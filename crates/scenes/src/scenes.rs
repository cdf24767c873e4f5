//! The five evaluation workloads (paper Table IV).

use crate::camera::Camera;
use crate::geometry::{box_mesh, column, ground_quad, icosphere, wall_quad};
use crate::shaders::*;
use crate::{BINDING_CAMERA, BINDING_FRAMEBUFFER, BINDING_PRIMDATA};
use vksim_bvh::geometry::{BlasGeometry, ProceduralPrimitive, Triangle};
use vksim_bvh::Instance;
use vksim_math::{Aabb, Mat4x3, Vec3};
use vksim_shader::builder::{hash_to_unit_f32, hash_u32, ShaderBuilder};
use vksim_shader::ir::{Builtin, Expr, RtIdxQuery, ShaderKind, Var};
use vksim_shader::PipelineShaders;
use vksim_vulkan::{Device, TraceRaysCommand};

/// Which workload to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// Single ray-traced triangle (primary rays only).
    Tri,
    /// Reflections + shadows (50 primitives).
    Ref,
    /// Sponza-like architectural scene (primary + shadow + AO rays).
    Ext,
    /// Statue-like mesh, path traced.
    Rtv5,
    /// Procedural spheres and cubes with two intersection shaders.
    Rtv6,
}

impl WorkloadKind {
    /// All five workloads, evaluation order.
    pub const ALL: [WorkloadKind; 5] = [
        WorkloadKind::Tri,
        WorkloadKind::Ref,
        WorkloadKind::Ext,
        WorkloadKind::Rtv5,
        WorkloadKind::Rtv6,
    ];

    /// Paper name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Tri => "TRI",
            WorkloadKind::Ref => "REF",
            WorkloadKind::Ext => "EXT",
            WorkloadKind::Rtv5 => "RTV5",
            WorkloadKind::Rtv6 => "RTV6",
        }
    }
}

/// Scene/launch size.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Tiny: unit-test sized (seconds even under the timing model).
    Test,
    /// Medium: benchmark runs.
    Small,
    /// Paper-scale primitive counts (functional characterization).
    Paper,
}

impl Scale {
    fn resolution(self) -> (u32, u32) {
        match self {
            Scale::Test => (32, 32),
            Scale::Small => (96, 96),
            Scale::Paper => (224, 160),
        }
    }
}

/// A fully assembled workload: device (scene + descriptors) and the
/// recorded trace command.
#[derive(Debug)]
pub struct Workload {
    /// Paper name (TRI/REF/EXT/RTV5/RTV6).
    pub name: &'static str,
    /// The logical device holding the scene.
    pub device: Device,
    /// The recorded `vkCmdTraceRaysKHR`.
    pub cmd: TraceRaysCommand,
    /// Framebuffer address.
    pub fb_addr: u64,
    /// Image width.
    pub width: u32,
    /// Image height.
    pub height: u32,
    /// Total primitive count (Table IV row).
    pub primitive_count: usize,
    /// Combined TLAS + deepest-BLAS depth (Table IV row).
    pub bvh_depth: u32,
    /// The camera used (for the reference renderer).
    pub camera: Camera,
    /// The shader set (kept for re-translation, e.g. FCC on/off).
    pub shaders: PipelineShaders,
}

impl Workload {
    /// Re-records the trace command with FCC lowering toggled (case study
    /// §IV-A).
    ///
    /// # Panics
    ///
    /// Panics if the pipeline fails to re-translate (cannot happen for a
    /// workload that built once).
    pub fn with_fcc(&mut self, fcc: bool) -> TraceRaysCommand {
        let pipeline = self
            .device
            .create_ray_tracing_pipeline(self.shaders.clone(), fcc)
            .expect("retranslation");
        self.device
            .cmd_trace_rays(&pipeline, self.width, self.height)
    }
}

/// Builds one of the five workloads at the given scale.
pub fn build(kind: WorkloadKind, scale: Scale) -> Workload {
    match kind {
        WorkloadKind::Tri => build_tri(scale),
        WorkloadKind::Ref => build_ref(scale),
        WorkloadKind::Ext => build_ext(scale),
        WorkloadKind::Rtv5 => build_rtv5(scale),
        WorkloadKind::Rtv6 => build_rtv6(scale),
    }
}

fn finish_workload(
    name: &'static str,
    mut device: Device,
    shaders: PipelineShaders,
    camera: Camera,
    width: u32,
    height: u32,
    fcc: bool,
) -> Workload {
    let fb = device.alloc_buffer(width as u64 * height as u64 * 4);
    device.bind_descriptor(BINDING_FRAMEBUFFER, fb);
    let cam_buf = device.alloc_buffer(64);
    device.upload_f32(cam_buf, &camera.to_uniform());
    device.bind_descriptor(BINDING_CAMERA, cam_buf);
    let pipeline = device
        .create_ray_tracing_pipeline(shaders.clone(), fcc)
        .expect("pipeline translation");
    let cmd = device.cmd_trace_rays(&pipeline, width, height);
    let primitive_count: usize = device
        .blases
        .iter()
        .map(|b| b.geometry.primitive_count())
        .sum();
    let blas_refs: Vec<&vksim_bvh::Blas> = device.blases.iter().collect();
    let bvh_depth = device
        .tlas
        .as_ref()
        .map(|t| t.combined_depth(&blas_refs))
        .unwrap_or(0);
    Workload {
        name,
        device,
        cmd,
        fb_addr: fb,
        width,
        height,
        primitive_count,
        bvh_depth,
        camera,
        shaders,
    }
}

/// Miss shader writing the sky gradient into the incoming color payload.
fn sky_miss() -> vksim_shader::ir::ShaderModule {
    let mut b = ShaderBuilder::new(ShaderKind::Miss);
    let d = [0u8, 1, 2].map(|i| b.var_f32(b.builtin(Builtin::RayDirection(i))));
    let d_exprs = d.map(Expr::Var);
    let n = normalize3(&mut b, d_exprs);
    let ny = Expr::Var(n[1]);
    let rgb = sky_color(&mut b, ny);
    for (slot, c) in rgb.into_iter().enumerate() {
        b.set_payload_in(slot as u8, c);
    }
    b.finish()
}

/// Occlusion miss shader: sets payload slot 7 to 1.0 ("unoccluded").
fn occlusion_miss() -> vksim_shader::ir::ShaderModule {
    let mut b = ShaderBuilder::new(ShaderKind::Miss);
    b.set_payload_in(7, b.c_f32(1.0));
    b.finish()
}

/// Emits the occlusion-probe protocol into a closest-hit shader: traces a
/// shadow feeler toward `dir` from `point` (only below the recursion limit)
/// and leaves 1.0/0.0 in `lit`.
fn occlusion_probe(
    b: &mut ShaderBuilder,
    point: &[Var; 3],
    normal: &[Var; 3],
    dir: [Expr; 3],
    t_max: f32,
    depth_limit: u32,
) -> Var {
    b.set_payload(7, b.c_f32(0.0));
    let origin = [0, 1, 2].map(|i| b.var_f32(b.v(point[i]) + b.v(normal[i]) * b.c_f32(1e-3)));
    let depth_ok = b.builtin(Builtin::RecursionDepth).lt(b.c_u32(depth_limit));
    let dir2 = dir.clone();
    b.if_(depth_ok.clone(), move |b| {
        b.trace_ray(
            [b.v(origin[0]), b.v(origin[1]), b.v(origin[2])],
            dir2,
            b.c_f32(1e-3),
            b.c_f32(t_max),
            b.c_u32(1), // terminate on first hit
            1,          // occlusion miss shader
        );
    });
    b.var_f32(depth_ok.select(b.payload(7), b.c_f32(1.0)))
}

// ------------------------------- TRI -------------------------------

fn build_tri(scale: Scale) -> Workload {
    let (w, h) = scale.resolution();
    let mut device = Device::new();
    let blas = device.create_blas(BlasGeometry::triangles(vec![Triangle::new(
        Vec3::new(-1.0, -1.0, 0.0),
        Vec3::new(1.0, -1.0, 0.0),
        Vec3::new(0.0, 1.0, 0.0),
    )]));
    device.create_tlas(vec![Instance::new(blas, Mat4x3::IDENTITY)]);
    let camera = Camera::look_at(
        Vec3::new(0.0, 0.0, 2.5),
        Vec3::ZERO,
        Vec3::Y,
        60.0,
        w as f32 / h as f32,
    );

    let mut rg = ShaderBuilder::new(ShaderKind::RayGen);
    let (o, d, pixel) = camera_ray(&mut rg);
    rg.trace_ray(
        [rg.v(o[0]), rg.v(o[1]), rg.v(o[2])],
        [rg.v(d[0]), rg.v(d[1]), rg.v(d[2])],
        rg.c_f32(1e-3),
        rg.c_f32(1e30),
        rg.c_u32(0),
        0,
    );
    let rgb = [rg.payload(0), rg.payload(1), rg.payload(2)];
    store_pixel(&mut rg, pixel, rgb);

    // Classic barycentric-color triangle.
    let mut ch = ShaderBuilder::new(ShaderKind::ClosestHit);
    let u = ch.var_f32(ch.builtin(Builtin::HitU));
    let v = ch.var_f32(ch.builtin(Builtin::HitV));
    ch.set_payload_in(0, ch.c_f32(1.0) - ch.v(u) - ch.v(v));
    ch.set_payload_in(1, ch.v(u));
    ch.set_payload_in(2, ch.v(v));

    let shaders = PipelineShaders {
        raygen: rg.finish(),
        miss: vec![sky_miss()],
        closest_hit: vec![ch.finish()],
        intersection: vec![],
        any_hit: vec![],
        max_recursion_depth: 1,
    };
    finish_workload("TRI", device, shaders, camera, w, h, false)
}

// ------------------------------- REF -------------------------------

fn build_ref(scale: Scale) -> Workload {
    let (w, h) = scale.resolution();
    let mut device = Device::new();
    // Ground (2) + 4 boxes (48) = 50 primitives (Table IV).
    let ground = device.create_blas(BlasGeometry::triangles(ground_quad(
        -12.0, 12.0, -12.0, 12.0, 0.0,
    )));
    let boxes: Vec<u32> = (0..4)
        .map(|_| {
            device.create_blas(BlasGeometry::triangles(box_mesh(
                Vec3::new(-0.8, 0.0, -0.8),
                Vec3::new(0.8, 1.6, 0.8),
            )))
        })
        .collect();
    let mut instances = vec![Instance::new(ground, Mat4x3::IDENTITY).with_custom_index(1)];
    let spots = [
        (Vec3::new(-2.5, 0.0, 0.0), 2u32),
        (Vec3::new(0.0, 0.0, -2.0), MATERIAL_MIRROR),
        (Vec3::new(2.5, 0.0, 0.5), 3),
        (Vec3::new(0.5, 0.0, 2.5), 4),
    ];
    for (i, (pos, material)) in spots.iter().enumerate() {
        instances
            .push(Instance::new(boxes[i], Mat4x3::translation(*pos)).with_custom_index(*material));
    }
    device.create_tlas(instances);
    let camera = Camera::look_at(
        Vec3::new(5.0, 3.5, 6.5),
        Vec3::new(0.0, 0.8, 0.0),
        Vec3::Y,
        50.0,
        w as f32 / h as f32,
    );

    let mut rg = ShaderBuilder::new(ShaderKind::RayGen);
    let (o, d, pixel) = camera_ray(&mut rg);
    rg.trace_ray(
        [rg.v(o[0]), rg.v(o[1]), rg.v(o[2])],
        [rg.v(d[0]), rg.v(d[1]), rg.v(d[2])],
        rg.c_f32(1e-3),
        rg.c_f32(1e30),
        rg.c_u32(0),
        0,
    );
    let rgb = [rg.payload(0), rg.payload(1), rg.payload(2)];
    store_pixel(&mut rg, pixel, rgb);

    // Closest-hit: mirror boxes reflect, everything else is diffuse with a
    // shadow ray — the "mirror reflections and shadows rendered by
    // secondary rays" of the paper's REF.
    let mut ch = ShaderBuilder::new(ShaderKind::ClosestHit);
    let n = [0u8, 1, 2].map(|i| ch.var_f32(ch.builtin(Builtin::HitWorldNormal(i))));
    let p = hit_point(&mut ch);
    let custom = ch.var_u32(ch.builtin(Builtin::HitInstanceCustomIndex));
    let is_mirror = ch.v(custom).eq_(ch.c_u32(MATERIAL_MIRROR));
    ch.if_else(
        is_mirror,
        |ch| {
            // refl = d - 2 (d . n) n
            let d = [0u8, 1, 2].map(|i| ch.var_f32(ch.builtin(Builtin::RayDirection(i))));
            let dn = ch.var_f32(dot3(d.map(|v| ch.v(v)), n.map(|v| ch.v(v))));
            let refl =
                [0, 1, 2].map(|i| ch.var_f32(ch.v(d[i]) - ch.c_f32(2.0) * ch.v(dn) * ch.v(n[i])));
            let org = [0, 1, 2].map(|i| ch.var_f32(ch.v(p[i]) + ch.v(n[i]) * ch.c_f32(1e-3)));
            for slot in 0..3u8 {
                ch.set_payload(slot, ch.c_f32(0.0));
            }
            let depth_ok = ch.builtin(Builtin::RecursionDepth).lt(ch.c_u32(2));
            ch.if_(depth_ok, |ch| {
                ch.trace_ray(
                    [ch.v(org[0]), ch.v(org[1]), ch.v(org[2])],
                    [ch.v(refl[0]), ch.v(refl[1]), ch.v(refl[2])],
                    ch.c_f32(1e-3),
                    ch.c_f32(1e30),
                    ch.c_u32(0),
                    0,
                );
            });
            for slot in 0..3u8 {
                ch.set_payload_in(slot, ch.c_f32(0.9) * ch.payload(slot));
            }
        },
        |ch| {
            let albedo = palette(ch, ch.v(custom));
            let l = [
                ch.c_f32(LIGHT_DIR[0]),
                ch.c_f32(LIGHT_DIR[1]),
                ch.c_f32(LIGHT_DIR[2]),
            ];
            let lit = occlusion_probe(ch, &p, &n, l.clone(), 1e4, 2);
            let ndotl = ch.var_f32(dot3(n.map(|v| ch.v(v)), l).max(ch.c_f32(0.0)));
            let shade = ch.var_f32(ch.c_f32(0.15) + ch.c_f32(0.85) * ch.v(lit) * ch.v(ndotl));
            for slot in 0..3u8 {
                ch.set_payload_in(slot, ch.v(albedo[slot as usize]) * ch.v(shade));
            }
        },
    );

    let shaders = PipelineShaders {
        raygen: rg.finish(),
        miss: vec![sky_miss(), occlusion_miss()],
        closest_hit: vec![ch.finish()],
        intersection: vec![],
        any_hit: vec![],
        max_recursion_depth: 3,
    };
    finish_workload("REF", device, shaders, camera, w, h, false)
}

// ------------------------------- EXT -------------------------------

fn build_ext(scale: Scale) -> Workload {
    let (w, h) = scale.resolution();
    // Column grid sized per scale; Paper lands at ≈283 k primitives like
    // Sponza (Table IV).
    let (cols_x, cols_z, segments, stories) = match scale {
        Scale::Test => (2, 2, 6, 1),
        Scale::Small => (6, 3, 10, 2),
        Scale::Paper => (24, 12, 41, 6),
    };
    let mut tris = Vec::new();
    let extent_x = cols_x as f32 * 3.0;
    let extent_z = cols_z as f32 * 3.0;
    tris.extend(ground_quad(-extent_x, extent_x, -extent_z, extent_z, 0.0));
    tris.extend(wall_quad(-extent_x, extent_x, 0.0, 10.0, -extent_z));
    tris.extend(wall_quad(-extent_x, extent_x, 0.0, 10.0, extent_z));
    for story in 0..stories {
        let y = story as f32 * 3.2;
        for ix in 0..cols_x {
            for iz in 0..cols_z {
                let x = (ix as f32 - cols_x as f32 / 2.0) * 3.0 + 1.5;
                let z = (iz as f32 - cols_z as f32 / 2.0) * 3.0 + 1.5;
                tris.extend(column(Vec3::new(x, y, z), 0.45, 3.0, segments));
            }
        }
    }
    let mut device = Device::new();
    let atrium = device.create_blas(BlasGeometry::triangles(tris));
    device.create_tlas(vec![
        Instance::new(atrium, Mat4x3::IDENTITY).with_custom_index(7)
    ]);
    let camera = Camera::look_at(
        Vec3::new(-extent_x * 0.6, 4.5, extent_z * 0.9),
        Vec3::new(0.0, 1.5, 0.0),
        Vec3::Y,
        55.0,
        w as f32 / h as f32,
    );

    let mut rg = ShaderBuilder::new(ShaderKind::RayGen);
    let (o, d, pixel) = camera_ray(&mut rg);
    rg.trace_ray(
        [rg.v(o[0]), rg.v(o[1]), rg.v(o[2])],
        [rg.v(d[0]), rg.v(d[1]), rg.v(d[2])],
        rg.c_f32(1e-3),
        rg.c_f32(1e30),
        rg.c_u32(0),
        0,
    );
    let rgb = [rg.payload(0), rg.payload(1), rg.payload(2)];
    store_pixel(&mut rg, pixel, rgb);

    // Closest-hit: diffuse + shadow ray + 2 ambient-occlusion rays (the
    // paper's EXT uses secondary, shadow and AO rays).
    let mut ch = ShaderBuilder::new(ShaderKind::ClosestHit);
    let n = [0u8, 1, 2].map(|i| ch.var_f32(ch.builtin(Builtin::HitWorldNormal(i))));
    let p = hit_point(&mut ch);
    let custom = ch.var_u32(ch.builtin(Builtin::HitInstanceCustomIndex));
    let custom_e = Expr::Var(custom);
    let albedo = palette(&mut ch, custom_e);
    let l = [
        ch.c_f32(LIGHT_DIR[0]),
        ch.c_f32(LIGHT_DIR[1]),
        ch.c_f32(LIGHT_DIR[2]),
    ];
    let lit = occlusion_probe(&mut ch, &p, &n, l.clone(), 1e4, 2);
    let ndotl = ch.var_f32(dot3(n.map(|v| ch.v(v)), l).max(ch.c_f32(0.0)));
    // Two AO feelers with hashed directions; the paper notes AO rays are
    // the bulk of EXT (59%) and highly incoherent.
    let pid = ch.var_u32(ch.launch_id(1) * ch.launch_size(0) + ch.launch_id(0));
    let ao_acc = ch.var_f32(ch.c_f32(0.0));
    for k in 0..2u32 {
        let seed = ch.var_u32(hash_u32(&ch, ch.v(pid) * ch.c_u32(2) + ch.c_u32(k)));
        let u1 = ch.var_f32(hash_to_unit_f32(&ch, ch.v(seed)));
        let s2 = ch.var_u32(hash_u32(&ch, ch.v(seed)));
        let u2 = ch.var_f32(hash_to_unit_f32(&ch, ch.v(s2)));
        let s3 = ch.var_u32(hash_u32(&ch, ch.v(s2)));
        let u3 = ch.var_f32(hash_to_unit_f32(&ch, ch.v(s3)));
        let us = [u1, u2, u3];
        let ao_dir_raw: [Expr; 3] =
            [0, 1, 2].map(|i| ch.v(n[i]) + (ch.v(us[i]) - ch.c_f32(0.5)) * ch.c_f32(1.6));
        let ao_dir = normalize3(&mut ch, ao_dir_raw);
        let ao_dir_e = [
            Expr::Var(ao_dir[0]),
            Expr::Var(ao_dir[1]),
            Expr::Var(ao_dir[2]),
        ];
        let open = occlusion_probe(&mut ch, &p, &n, ao_dir_e, 4.0, 2);
        ch.set(ao_acc, ch.v(ao_acc) + ch.v(open));
    }
    let ao = ch.var_f32(ch.c_f32(0.4) + ch.c_f32(0.3) * ch.v(ao_acc));
    let shade = ch.var_f32((ch.c_f32(0.15) + ch.c_f32(0.75) * ch.v(lit) * ch.v(ndotl)) * ch.v(ao));
    for slot in 0..3u8 {
        ch.set_payload_in(slot, ch.v(albedo[slot as usize]) * ch.v(shade));
    }

    let shaders = PipelineShaders {
        raygen: rg.finish(),
        miss: vec![sky_miss(), occlusion_miss()],
        closest_hit: vec![ch.finish()],
        intersection: vec![],
        any_hit: vec![],
        max_recursion_depth: 2,
    };
    finish_workload("EXT", device, shaders, camera, w, h, false)
}

// ----------------------- path-tracing raygen -----------------------

/// Iterative path-tracing raygen shared by RTV5/RTV6: bounces rays while
/// the hit shaders keep the path alive through the payload protocol
/// (0-2 segment color, 3-5 scatter direction, 6 alive flag, 7 hit t).
fn path_trace_raygen(bounces: u32) -> vksim_shader::ir::ShaderModule {
    let mut rg = ShaderBuilder::new(ShaderKind::RayGen);
    let (o0, d0, pixel) = camera_ray(&mut rg);
    let o = [0, 1, 2].map(|i| rg.var_f32(rg.v(o0[i])));
    let d = [0, 1, 2].map(|i| rg.var_f32(rg.v(d0[i])));
    let atten = [0, 1, 2].map(|_| rg.var_f32(rg.c_f32(1.0)));
    let color = [0, 1, 2].map(|_| rg.var_f32(rg.c_f32(0.0)));
    let done = rg.var_u32(rg.c_u32(0));
    let bounce = rg.var_u32(rg.c_u32(0));
    let cond = rg
        .v(done)
        .eq_(rg.c_u32(0))
        .and(rg.v(bounce).lt(rg.c_u32(bounces)));
    rg.while_(cond, |rg| {
        rg.trace_ray(
            [rg.v(o[0]), rg.v(o[1]), rg.v(o[2])],
            [rg.v(d[0]), rg.v(d[1]), rg.v(d[2])],
            rg.c_f32(1e-3),
            rg.c_f32(1e30),
            rg.c_u32(0),
            0,
        );
        let seg = [0u8, 1, 2].map(|s| rg.var_f32(rg.payload(s)));
        let alive = rg.var_f32(rg.payload(6));
        rg.if_else(
            rg.v(alive).gt(rg.c_f32(0.5)),
            |rg| {
                // Continue the path: attenuate, move to the hit point,
                // follow the scatter direction.
                let t = rg.var_f32(rg.payload(7));
                for i in 0..3 {
                    rg.set(atten[i], rg.v(atten[i]) * rg.v(seg[i]));
                    rg.set(o[i], rg.v(o[i]) + rg.v(d[i]) * rg.v(t));
                }
                for (i, slot) in (3u8..6).enumerate() {
                    rg.set(d[i], rg.payload(slot));
                    // Offset along the new direction to escape the surface.
                    rg.set(o[i], rg.v(o[i]) + rg.v(d[i]) * rg.c_f32(1e-3));
                }
            },
            |rg| {
                // Terminated (sky): accumulate and stop.
                for i in 0..3 {
                    rg.set(color[i], rg.v(atten[i]) * rg.v(seg[i]));
                }
                rg.set(done, rg.c_u32(1));
            },
        );
        rg.set(bounce, rg.v(bounce) + rg.c_u32(1));
    });
    let rgb = [
        Expr::Var(color[0]),
        Expr::Var(color[1]),
        Expr::Var(color[2]),
    ];
    store_pixel(&mut rg, pixel, rgb);
    rg.finish()
}

/// Path-tracer miss: sky emission, path terminated.
fn path_trace_miss() -> vksim_shader::ir::ShaderModule {
    let mut b = ShaderBuilder::new(ShaderKind::Miss);
    let d = [0u8, 1, 2].map(|i| b.var_f32(b.builtin(Builtin::RayDirection(i))));
    let d_exprs = d.map(Expr::Var);
    let n = normalize3(&mut b, d_exprs);
    let ny = Expr::Var(n[1]);
    let rgb = sky_color(&mut b, ny);
    for (slot, c) in rgb.into_iter().enumerate() {
        b.set_payload_in(slot as u8, c);
    }
    b.set_payload_in(6, b.c_f32(0.0));
    b.finish()
}

/// Emits the Lambertian scatter tail of a path-tracing closest-hit: writes
/// albedo, a hashed scatter direction around `n`, alive flag and hit t.
fn scatter_tail(ch: &mut ShaderBuilder, n: &[Var; 3], albedo: &[Var; 3]) {
    let pid = ch.var_u32(ch.launch_id(1) * ch.launch_size(0) + ch.launch_id(0));
    let t = ch.var_f32(ch.builtin(Builtin::HitT));
    let tq = ch.var_u32((ch.v(t) * ch.c_f32(1024.0)).to_u32());
    let seed = ch.var_u32(hash_u32(
        ch,
        ch.v(pid).bitxor(ch.v(tq) * ch.c_u32(2654435761)),
    ));
    let u1 = ch.var_f32(hash_to_unit_f32(ch, ch.v(seed)));
    let s2 = ch.var_u32(hash_u32(ch, ch.v(seed)));
    let u2 = ch.var_f32(hash_to_unit_f32(ch, ch.v(s2)));
    let s3 = ch.var_u32(hash_u32(ch, ch.v(s2)));
    let u3 = ch.var_f32(hash_to_unit_f32(ch, ch.v(s3)));
    let us = [u1, u2, u3];
    let raw: [vksim_shader::ir::Expr; 3] =
        [0, 1, 2].map(|i| ch.v(n[i]) + (ch.v(us[i]) - ch.c_f32(0.5)) * ch.c_f32(1.8));
    let scatter = normalize3(ch, raw);
    for slot in 0..3u8 {
        ch.set_payload_in(slot, ch.v(albedo[slot as usize]));
    }
    for (i, slot) in (3u8..6).enumerate() {
        ch.set_payload_in(slot, ch.v(scatter[i]));
    }
    ch.set_payload_in(6, ch.c_f32(1.0));
    ch.set_payload_in(7, ch.v(t));
}

// ------------------------------- RTV5 -------------------------------

fn build_rtv5(scale: Scale) -> Workload {
    let (w, h) = scale.resolution();
    let subdivisions = match scale {
        Scale::Test => 1,
        Scale::Small => 3,
        Scale::Paper => 7, // 20 * 4^7 = 327,680 triangles: statue-scale
    };
    let mut tris = icosphere(Vec3::new(0.0, 1.0, 0.0), 1.0, subdivisions);
    tris.extend(ground_quad(-20.0, 20.0, -20.0, 20.0, 0.0));
    let mut device = Device::new();
    let statue = device.create_blas(BlasGeometry::triangles(tris));
    device.create_tlas(vec![
        Instance::new(statue, Mat4x3::IDENTITY).with_custom_index(11)
    ]);
    let camera = Camera::look_at(
        Vec3::new(0.0, 1.6, 4.0),
        Vec3::new(0.0, 1.0, 0.0),
        Vec3::Y,
        45.0,
        w as f32 / h as f32,
    );

    // Closest-hit: Lambertian scatter (incoherent bounces, paper §VI-B:
    // "secondary rays are generated by scattering randomly").
    let mut ch = ShaderBuilder::new(ShaderKind::ClosestHit);
    let n = [0u8, 1, 2].map(|i| ch.var_f32(ch.builtin(Builtin::HitWorldNormal(i))));
    let custom = ch.var_u32(ch.builtin(Builtin::HitInstanceCustomIndex));
    let custom_e = Expr::Var(custom);
    let albedo = palette(&mut ch, custom_e);
    scatter_tail(&mut ch, &n, &albedo);

    let shaders = PipelineShaders {
        raygen: path_trace_raygen(3),
        miss: vec![path_trace_miss()],
        closest_hit: vec![ch.finish()],
        intersection: vec![],
        any_hit: vec![],
        max_recursion_depth: 1,
    };
    finish_workload("RTV5", device, shaders, camera, w, h, false)
}

// ------------------------------- RTV6 -------------------------------

/// Procedural-primitive record: `[cx, cy, cz, size, r, g, b, kind]`.
const PRIM_STRIDE: u32 = 32;

fn build_rtv6(scale: Scale) -> Workload {
    let (w, h) = scale.resolution();
    let target = match scale {
        Scale::Test => 16usize,
        Scale::Small => 256,
        Scale::Paper => 4080, // Table IV's RTV6 primitive count
    };
    let grid = (target as f32).sqrt().ceil() as usize;
    let mut prims = Vec::new();
    let mut data: Vec<f32> = Vec::new();
    let mut i = 0usize;
    'outer: for gz in 0..grid {
        for gx in 0..grid {
            if i >= target {
                break 'outer;
            }
            let x = (gx as f32 - grid as f32 / 2.0) * 1.5;
            let z = (gz as f32 - grid as f32 / 2.0) * 1.5;
            let size = 0.45;
            let kind = (i % 2) as u32; // alternate spheres and cubes
            let c = Vec3::new(x, size, z);
            prims.push(ProceduralPrimitive::new(
                Aabb::new(c - Vec3::splat(size), c + Vec3::splat(size)),
                kind,
            ));
            let albedo = palette_rgb((i as u32) * 3 + 1);
            data.extend_from_slice(&[x, size, z, size, albedo.x, albedo.y, albedo.z, kind as f32]);
            i += 1;
        }
    }
    let mut device = Device::new();
    let blas = device.create_blas(BlasGeometry::procedurals(prims));
    device.create_tlas(vec![
        Instance::new(blas, Mat4x3::IDENTITY).with_custom_index(21)
    ]);
    let prim_buf = device.alloc_buffer(data.len() as u64 * 4);
    device.upload_f32(prim_buf, &data);
    device.bind_descriptor(BINDING_PRIMDATA, prim_buf);
    let camera = Camera::look_at(
        Vec3::new(0.0, grid as f32 * 0.8, grid as f32 * 1.2),
        Vec3::new(0.0, 0.0, 0.0),
        Vec3::Y,
        50.0,
        w as f32 / h as f32,
    );

    // Sphere intersection shader (analytic quadratic).
    let mut isect_sphere = ShaderBuilder::new(ShaderKind::Intersection);
    {
        let b = &mut isect_sphere;
        let prim = b.var_u32(b.intersection_attr(RtIdxQuery::IntersectionPrimitiveIndex));
        let base = b.var_u32(b.buffer_base(BINDING_PRIMDATA) + b.v(prim) * b.c_u32(PRIM_STRIDE));
        let c = load_vec3(b, &b.v(base), 0);
        let cy = b.var_f32(b.load_f32(b.v(base), 12)); // size doubles as radius
        let o = [0u8, 1, 2].map(|i| b.var_f32(b.builtin(Builtin::RayOrigin(i))));
        let d = [0u8, 1, 2].map(|i| b.var_f32(b.builtin(Builtin::RayDirection(i))));
        let oc = [0, 1, 2].map(|i| b.var_f32(b.v(o[i]) - b.v(c[i])));
        let a = b.var_f32(dot3(d.map(|v| b.v(v)), d.map(|v| b.v(v))));
        let half_b = b.var_f32(dot3(oc.map(|v| b.v(v)), d.map(|v| b.v(v))));
        let cc = b.var_f32(dot3(oc.map(|v| b.v(v)), oc.map(|v| b.v(v))) - b.v(cy) * b.v(cy));
        let disc = b.var_f32(b.v(half_b) * b.v(half_b) - b.v(a) * b.v(cc));
        b.if_(b.v(disc).ge(b.c_f32(0.0)), |b| {
            let sq = b.var_f32(b.v(disc).sqrt());
            let t0 = b.var_f32((b.c_f32(0.0) - b.v(half_b) - b.v(sq)) / b.v(a));
            let tmin = b.builtin(Builtin::RayTMin);
            b.if_else(
                b.v(t0).ge(tmin.clone()),
                |b| b.report_intersection(b.v(t0)),
                |b| {
                    let t1 = b.var_f32((b.c_f32(0.0) - b.v(half_b) + b.v(sq)) / b.v(a));
                    b.if_(b.v(t1).ge(b.builtin(Builtin::RayTMin)), |b| {
                        b.report_intersection(b.v(t1));
                    });
                },
            );
        });
    }

    // Cube intersection shader (slab test).
    let mut isect_cube = ShaderBuilder::new(ShaderKind::Intersection);
    {
        let b = &mut isect_cube;
        let prim = b.var_u32(b.intersection_attr(RtIdxQuery::IntersectionPrimitiveIndex));
        let base = b.var_u32(b.buffer_base(BINDING_PRIMDATA) + b.v(prim) * b.c_u32(PRIM_STRIDE));
        let c = load_vec3(b, &b.v(base), 0);
        let half = b.var_f32(b.load_f32(b.v(base), 12));
        let o = [0u8, 1, 2].map(|i| b.var_f32(b.builtin(Builtin::RayOrigin(i))));
        let d = [0u8, 1, 2].map(|i| b.var_f32(b.builtin(Builtin::RayDirection(i))));
        let mut near = b.var_f32(b.c_f32(-1e30));
        let mut far = b.var_f32(b.c_f32(1e30));
        for i in 0..3 {
            let inv = b.var_f32(b.c_f32(1.0) / b.v(d[i]));
            let lo = b.var_f32((b.v(c[i]) - b.v(half) - b.v(o[i])) * b.v(inv));
            let hi = b.var_f32((b.v(c[i]) + b.v(half) - b.v(o[i])) * b.v(inv));
            let n2 = b.var_f32(b.v(near).max(b.v(lo).min(b.v(hi))));
            let f2 = b.var_f32(b.v(far).min(b.v(lo).max(b.v(hi))));
            near = n2;
            far = f2;
        }
        let tmin = b.builtin(Builtin::RayTMin);
        let valid = b.v(near).le(b.v(far)).and(b.v(far).ge(tmin.clone()));
        b.if_(valid, |b| {
            let t = b.var_f32(
                b.v(near)
                    .ge(b.builtin(Builtin::RayTMin))
                    .select(b.v(near), b.v(far)),
            );
            b.report_intersection(b.v(t));
        });
    }

    // Closest-hit: reconstruct the procedural normal, then scatter.
    let mut ch = ShaderBuilder::new(ShaderKind::ClosestHit);
    {
        let b = &mut ch;
        let prim = b.var_u32(b.builtin(Builtin::HitPrimitiveIndex));
        let base = b.var_u32(b.buffer_base(BINDING_PRIMDATA) + b.v(prim) * b.c_u32(PRIM_STRIDE));
        let c = load_vec3(b, &b.v(base), 0);
        let size = b.var_f32(b.load_f32(b.v(base), 12));
        let kind = b.var_f32(b.load_f32(b.v(base), 28));
        let albedo = load_vec3(b, &b.v(base), 16);
        let p = hit_point(b);
        let q = [0, 1, 2].map(|i| b.var_f32(b.v(p[i]) - b.v(c[i])));
        // Sphere normal: q / r. Cube normal: dominant axis of q.
        let aq = [0, 1, 2].map(|i| b.var_f32(b.v(q[i]).abs()));
        let mut n = [q[0]; 3];
        for i in 0..3 {
            let (j, k) = ((i + 1) % 3, (i + 2) % 3);
            let dominant = b.v(aq[i]).ge(b.v(aq[j])).and(b.v(aq[i]).ge(b.v(aq[k])));
            let sign = b
                .v(q[i])
                .ge(b.c_f32(0.0))
                .select(b.c_f32(1.0), b.c_f32(-1.0));
            let cube_n = dominant.select(sign, b.c_f32(0.0));
            let sphere_n = b.v(q[i]) / b.v(size);
            let is_sphere = b.v(kind).lt(b.c_f32(0.5));
            n[i] = b.var_f32(is_sphere.select(sphere_n, cube_n));
        }
        scatter_tail(b, &n, &albedo);
    }

    let shaders = PipelineShaders {
        raygen: path_trace_raygen(2),
        miss: vec![path_trace_miss()],
        closest_hit: vec![ch.finish()],
        intersection: vec![isect_sphere.finish(), isect_cube.finish()],
        any_hit: vec![],
        max_recursion_depth: 1,
    };
    finish_workload("RTV6", device, shaders, camera, w, h, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_workloads_build_at_test_scale() {
        for kind in WorkloadKind::ALL {
            let w = build(kind, Scale::Test);
            assert_eq!(w.name, kind.name());
            assert!(w.primitive_count >= 1, "{}", w.name);
            assert!(w.bvh_depth >= 2, "{}", w.name);
            assert!(!w.cmd.program.is_empty(), "{}", w.name);
        }
    }

    #[test]
    fn table_iv_primitive_counts_at_paper_scale() {
        // Only check the cheap ones here (EXT/RTV5 at paper scale build
        // hundreds of thousands of primitives; exercised by benches).
        let tri = build(WorkloadKind::Tri, Scale::Paper);
        assert_eq!(tri.primitive_count, 1);
        let rf = build(WorkloadKind::Ref, Scale::Paper);
        assert_eq!(rf.primitive_count, 50);
        let rtv6 = build(WorkloadKind::Rtv6, Scale::Paper);
        assert_eq!(rtv6.primitive_count, 4080);
    }

    #[test]
    fn rtv6_registers_two_intersection_shaders() {
        let w = build(WorkloadKind::Rtv6, Scale::Test);
        assert_eq!(w.shaders.intersection.len(), 2);
        // FCC retranslation produces a different program.
        let mut w = w;
        let fcc_cmd = w.with_fcc(true);
        assert!(fcc_cmd.fcc);
    }

    #[test]
    fn scales_order_resolutions() {
        let (tw, th) = Scale::Test.resolution();
        let (pw, ph) = Scale::Paper.resolution();
        assert!(tw * th < pw * ph);
    }
}
