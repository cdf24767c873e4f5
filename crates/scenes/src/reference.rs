//! Reference CPU renderer — the stand-in for the paper's NVIDIA-GPU images.
//!
//! Fig. 2 validates Vulkan-Sim's functional model by comparing rendered
//! pixels against an industry Vulkan implementation (0.3% of pixels
//! differ). Without NVIDIA hardware, the oracle here is an independent CPU
//! ray tracer that mirrors the shader math exactly (same camera, palette,
//! hash, shading formulas and operation order — see [`crate::shaders`] for
//! the shared twins). TRI, REF and EXT are supported; the path-traced
//! RTV5/RTV6 images are characterized by statistics instead (low-sample
//! path tracing is noisy by design, paper §V-A).

use crate::scenes::Workload;
use crate::shaders::{light_dir, palette_rgb, sky_rgb, MATERIAL_MIRROR};
use vksim_bvh::traversal::{traverse, TraversalConfig, TriangleIntersection};
use vksim_bvh::{Blas, Tlas};
use vksim_math::{Ray, Vec3};

/// Packs RGB floats exactly like the shader's quantization.
fn pack(c: Vec3) -> u32 {
    let q = |v: f32| (v.clamp(0.0, 1.0) * 255.0 + 0.5) as u32;
    q(c.x) | (q(c.y) << 8) | (q(c.z) << 16) | 0xFF00_0000
}

/// Normalization with the shader's exact operation order
/// (`1/sqrt(len2)` then multiply, not per-component division).
fn normalize_like_shader(v: Vec3) -> Vec3 {
    let len = (v.x * v.x + v.y * v.y + v.z * v.z).sqrt();
    let inv = 1.0 / len;
    Vec3::new(v.x * inv, v.y * inv, v.z * inv)
}

struct Tracer<'a> {
    tlas: &'a Tlas,
    blases: Vec<&'a Blas>,
}

impl<'a> Tracer<'a> {
    fn hit(&self, ray: &Ray) -> Option<TriangleIntersection> {
        let cfg = TraversalConfig {
            record_script: None,
            ..Default::default()
        };
        traverse(self.tlas, &self.blases, ray, &cfg)
            .expect("reference scenes are well-formed")
            .closest
    }

    fn occluded(&self, ray: &Ray) -> bool {
        let cfg = TraversalConfig {
            record_script: None,
            terminate_on_first_hit: true,
            ..Default::default()
        };
        traverse(self.tlas, &self.blases, ray, &cfg)
            .expect("reference scenes are well-formed")
            .closest
            .is_some()
    }
}

fn sky(dir: Vec3) -> Vec3 {
    sky_rgb(normalize_like_shader(dir).y)
}

/// Renders a workload with the reference renderer.
///
/// # Panics
///
/// Panics for workloads without a reference implementation (RTV5/RTV6).
pub fn render(w: &Workload) -> Vec<u32> {
    let tracer = Tracer {
        tlas: w.device.tlas.as_ref().expect("scene has TLAS"),
        blases: w.device.blases.iter().collect(),
    };
    let shade: &dyn Fn(&Tracer, &Ray, u32, u32) -> Vec3 = match w.name {
        "TRI" => &shade_tri,
        "REF" => &shade_refl,
        "EXT" => &shade_ext,
        other => panic!("no reference renderer for {other}"),
    };
    let mut out = Vec::with_capacity((w.width * w.height) as usize);
    for py in 0..w.height {
        for px in 0..w.width {
            let mut ray = w.camera.primary_ray(px, py, w.width, w.height);
            ray.t_max = 1e30;
            let pid = py * w.width + px;
            out.push(pack(shade(&tracer, &ray, 1, pid)));
        }
    }
    out
}

fn shade_tri(t: &Tracer, ray: &Ray, _depth: u32, _pid: u32) -> Vec3 {
    match t.hit(ray) {
        Some(h) => Vec3::new(1.0 - h.u - h.v, h.u, h.v),
        None => sky(ray.dir),
    }
}

fn probe(t: &Tracer, p: Vec3, n: Vec3, dir: Vec3, t_max: f32) -> f32 {
    let origin = p + n * 1e-3;
    let ray = Ray::with_interval(origin, dir, 1e-3, t_max);
    if t.occluded(&ray) {
        0.0
    } else {
        1.0
    }
}

// `pid` is unused here but the signature must match the shader table's
// `fn(&Tracer, &Ray, u32, u32) -> Vec3` entries.
#[allow(clippy::only_used_in_recursion)]
fn shade_refl(t: &Tracer, ray: &Ray, depth: u32, pid: u32) -> Vec3 {
    let Some(h) = t.hit(ray) else {
        return sky(ray.dir);
    };
    let n = h.world_normal;
    let p = ray.origin + ray.dir * h.t;
    if h.instance_custom_index == MATERIAL_MIRROR {
        if depth < 2 {
            let dn = ray.dir.dot(n);
            let refl = ray.dir - n * (2.0 * dn);
            let sub = Ray::with_interval(p + n * 1e-3, refl, 1e-3, 1e30);
            shade_refl(t, &sub, depth + 1, pid) * 0.9
        } else {
            Vec3::ZERO
        }
    } else {
        let albedo = palette_rgb(h.instance_custom_index);
        let l = light_dir();
        let lit = if depth < 2 {
            probe(t, p, n, l, 1e4)
        } else {
            1.0
        };
        let ndotl = n.dot(l).max(0.0);
        let shade = 0.15 + 0.85 * lit * ndotl;
        albedo * shade
    }
}

fn shade_ext(t: &Tracer, ray: &Ray, depth: u32, pid: u32) -> Vec3 {
    use crate::shaders::{hash_u32_cpu, hash_unit_cpu};
    let Some(h) = t.hit(ray) else {
        return sky(ray.dir);
    };
    let n = h.world_normal;
    let p = ray.origin + ray.dir * h.t;
    let albedo = palette_rgb(h.instance_custom_index);
    let l = light_dir();
    let lit = if depth < 2 {
        probe(t, p, n, l, 1e4)
    } else {
        1.0
    };
    let ndotl = n.dot(l).max(0.0);
    let mut ao_acc = 0.0f32;
    for k in 0..2u32 {
        let seed = hash_u32_cpu(pid * 2 + k);
        let u1 = hash_unit_cpu(seed);
        let s2 = hash_u32_cpu(seed);
        let u2 = hash_unit_cpu(s2);
        let s3 = hash_u32_cpu(s2);
        let u3 = hash_unit_cpu(s3);
        let raw = Vec3::new(
            n.x + (u1 - 0.5) * 1.6,
            n.y + (u2 - 0.5) * 1.6,
            n.z + (u3 - 0.5) * 1.6,
        );
        let dir = normalize_like_shader(raw);
        let open = if depth < 2 {
            probe(t, p, n, dir, 4.0)
        } else {
            1.0
        };
        ao_acc += open;
    }
    let ao = 0.4 + 0.3 * ao_acc;
    let shade = (0.15 + 0.75 * lit * ndotl) * ao;
    albedo * shade
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenes::{build, Scale, WorkloadKind};

    #[test]
    fn tri_reference_has_triangle_and_sky() {
        let w = build(WorkloadKind::Tri, Scale::Test);
        let img = render(&w);
        assert_eq!(img.len(), (w.width * w.height) as usize);
        // Center pixel: on the triangle (not sky).
        let center = img[(w.height / 2 * w.width + w.width / 2) as usize];
        let corner = img[0];
        assert_ne!(center, corner, "triangle differs from sky");
    }

    #[test]
    fn ref_reference_contains_shadowed_and_lit_regions() {
        let w = build(WorkloadKind::Ref, Scale::Test);
        let img = render(&w);
        let distinct: std::collections::HashSet<u32> = img.iter().copied().collect();
        assert!(
            distinct.len() > 10,
            "expect varied shading, got {}",
            distinct.len()
        );
    }

    #[test]
    fn ext_reference_renders() {
        let w = build(WorkloadKind::Ext, Scale::Test);
        let img = render(&w);
        assert_eq!(img.len(), (w.width * w.height) as usize);
        let distinct: std::collections::HashSet<u32> = img.iter().copied().collect();
        assert!(distinct.len() > 10);
    }

    #[test]
    #[should_panic(expected = "no reference renderer")]
    fn rtv5_has_no_reference() {
        let w = build(WorkloadKind::Rtv5, Scale::Test);
        let _ = render(&w);
    }
}
