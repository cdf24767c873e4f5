//! Property-based tests on core data structures and invariants, running on
//! the in-repo `vksim-testkit` harness (offline, deterministic, replayable
//! via the seed printed on failure).

use vksim_bvh::geometry::Triangle;
use vksim_bvh::traversal::{traverse, TraversalConfig};
use vksim_bvh::{Blas, Instance, Tlas};
use vksim_core::trace_io::{dump_command, load_command};
use vksim_math::{intersect, Aabb, Mat4x3, Ray, Vec3};
use vksim_scenes::{build, Scale, WorkloadKind};
use vksim_testkit::prop::{
    check, f32_in, f64_in, filter, map, u32_in, u64_in, usize_in, vec_of, Strategy,
};
use vksim_testkit::{prop_assert, prop_assert_eq};

fn arb_vec3(range: f32) -> impl Strategy<Value = Vec3> {
    map(
        (
            f32_in(-range, range),
            f32_in(-range, range),
            f32_in(-range, range),
        ),
        |(x, y, z)| Vec3::new(x, y, z),
    )
}

fn arb_triangle() -> impl Strategy<Value = Triangle> {
    map(
        (arb_vec3(10.0), arb_vec3(10.0), arb_vec3(10.0)),
        |(a, b, c)| Triangle::new(a, b, c),
    )
}

fn arb_dir() -> impl Strategy<Value = Vec3> {
    filter(arb_vec3(1.0), "nonzero direction", |d| d.length() > 1e-3)
}

/// Any committed hit from BVH traversal must be reproducible by a
/// brute-force test over all triangles, with the same t (the BVH is an
/// exact accelerator, never an approximation).
#[test]
fn traversal_matches_brute_force() {
    let strat = (vec_of(arb_triangle(), 1, 40), arb_vec3(20.0), arb_dir());
    check(&strat, |(tris, origin, dir)| {
        let blas = Blas::from_triangles(tris);
        let tlas = Tlas::build(vec![Instance::new(0, Mat4x3::IDENTITY)], &[&blas]);
        let ray = Ray::with_interval(*origin, *dir, 1e-3, 1e30);
        let cfg = TraversalConfig {
            record_script: None,
            ..Default::default()
        };
        let result = traverse(&tlas, &[&blas], &ray, &cfg).expect("well-formed scene");

        let mut best: Option<f32> = None;
        for t in tris {
            if let Some(h) = intersect::ray_triangle(&ray, t.v0, t.v1, t.v2) {
                best = Some(best.map_or(h.t, |b: f32| b.min(h.t)));
            }
        }
        match (result.closest, best) {
            (Some(h), Some(t)) => {
                prop_assert!((h.t - t).abs() < 1e-3, "bvh t {} vs brute force {}", h.t, t)
            }
            (None, None) => {}
            (a, b) => {
                prop_assert!(false, "bvh {:?} vs brute force {:?}", a.map(|h| h.t), b)
            }
        }
        Ok(())
    });
}

/// Union is commutative and contains both operands.
#[test]
fn aabb_union_properties() {
    let strat = (
        arb_vec3(50.0),
        arb_vec3(50.0),
        arb_vec3(50.0),
        arb_vec3(50.0),
    );
    check(&strat, |&(a0, a1, b0, b1)| {
        let a = Aabb::new(a0.min(a1), a0.max(a1));
        let b = Aabb::new(b0.min(b1), b0.max(b1));
        let u = a.union(&b);
        prop_assert_eq!(u, b.union(&a));
        prop_assert!(u.contains(a.center()));
        prop_assert!(u.contains(b.center()));
        prop_assert!(u.surface_area() + 1e-3 >= a.surface_area().max(b.surface_area()));
        Ok(())
    });
}

/// Ray-AABB: any reported entry t lies inside (or on) the box.
#[test]
fn ray_aabb_entry_point_is_on_box() {
    let strat = (arb_vec3(30.0), arb_dir(), arb_vec3(10.0), arb_vec3(10.0));
    check(&strat, |&(origin, dir, c0, c1)| {
        let b = Aabb::new(c0.min(c1), c0.max(c1)).padded(1e-3);
        let ray = Ray::with_interval(origin, dir, 0.0, 1e30);
        if let Some(t) = intersect::ray_aabb(&ray, &b, 0.0, 1e30) {
            let p = ray.at(t);
            let eps = 1e-2 * (1.0 + t.abs());
            let inside = b.padded(eps).contains(p);
            prop_assert!(inside, "entry {p} at t={t} outside {b:?}");
        }
        Ok(())
    });
}

/// Affine inverse round-trips points (when invertible).
#[test]
fn mat_inverse_roundtrip() {
    let strat = (arb_vec3(5.0), f32_in(-3.0, 3.0), arb_vec3(10.0));
    check(&strat, |&(t, angle, p)| {
        let m = Mat4x3::translation(t).compose(&Mat4x3::rotation_y(angle));
        let inv = m.inverse().unwrap();
        let q = inv.transform_point(m.transform_point(p));
        prop_assert!((q - p).length() < 1e-3);
        Ok(())
    });
}

/// BVH build invariants hold for arbitrary triangle soups.
#[test]
fn bvh_structural_invariants() {
    check(&vec_of(arb_triangle(), 1, 100), |tris| {
        let blas = Blas::from_triangles(tris);
        prop_assert!(blas.bvh.check_invariants().is_ok());
        // All leaves present exactly once.
        let leaves = blas.bvh.leaf_count();
        prop_assert_eq!(leaves, tris.len());
        // Footprint equals sum of node sizes.
        let bytes: u64 = blas.bvh.nodes.iter().map(|n| n.kind().size_bytes()).sum();
        prop_assert_eq!(bytes, blas.bvh.size_bytes);
        Ok(())
    });
}

/// Histogram count equals number of recorded samples; mean within
/// [min, max].
#[test]
fn histogram_invariants() {
    check(&vec_of(f64_in(0.0, 1e6), 1, 200), |samples| {
        let mut h = vksim_stats::Histogram::new(100.0);
        for &s in samples {
            h.record(s);
        }
        prop_assert_eq!(h.count(), samples.len() as u64);
        let mean = h.mean();
        prop_assert!(mean >= h.min().unwrap() - 1e-9);
        prop_assert!(mean <= h.max().unwrap() + 1e-9);
        let total: u64 = h.iter().map(|(_, c)| c).sum();
        prop_assert_eq!(total, h.count());
        Ok(())
    });
}

/// Pearson correlation is symmetric and bounded.
#[test]
fn pearson_properties() {
    let pair = (f64_in(-1e3, 1e3), f64_in(-1e3, 1e3));
    check(&vec_of(pair, 3, 50), |pairs| {
        let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        if let Some(r) = vksim_stats::pearson(&xs, &ys) {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r), "r = {r}");
            let r2 = vksim_stats::pearson(&ys, &xs).unwrap();
            prop_assert!((r - r2).abs() < 1e-9);
        }
        Ok(())
    });
}

/// Memory chunking covers the whole byte range with 32 B-aligned chunks.
#[test]
fn chunking_covers_range() {
    check(&(u64_in(0, 1_000_000), u32_in(1, 512)), |&(addr, size)| {
        let chunks = vksim_mem::chunk_addresses(addr, size);
        prop_assert!(!chunks.is_empty());
        for c in &chunks {
            prop_assert_eq!(c % 32, 0);
        }
        prop_assert!(chunks[0] <= addr);
        prop_assert!(*chunks.last().unwrap() + 32 >= addr + size as u64);
        for w in chunks.windows(2) {
            prop_assert_eq!(w[1] - w[0], 32);
        }
        Ok(())
    });
}

/// One mutation of dumped trace text: drop (0) or duplicate (1) a line,
/// rewrite one of its numbers to `value` (2), swap two of its tokens (3),
/// or truncate the whole text (4). `a` and `b` pick the line, number,
/// tokens or cut.
fn mutate(text: &str, mutation: usize, a: u64, b: u64, value: u32) -> String {
    if mutation == 4 {
        let mut cut = (a % text.len() as u64) as usize;
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        return text[..cut].to_string();
    }
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    let i = (a % lines.len() as u64) as usize;
    match mutation {
        0 => drop(lines.remove(i)),
        1 => lines.insert(i, lines[i].clone()),
        2 => {
            let line = &lines[i];
            let mut numbers = Vec::new();
            let mut start = None;
            for (k, c) in line.char_indices().chain([(line.len(), ' ')]) {
                match (c.is_ascii_digit(), start) {
                    (true, None) => start = Some(k),
                    (false, Some(s)) => {
                        numbers.push((s, k));
                        start = None;
                    }
                    _ => {}
                }
            }
            if !numbers.is_empty() {
                let (s, e) = numbers[(b % numbers.len() as u64) as usize];
                lines[i] = format!("{}{value}{}", &line[..s], &line[e..]);
            }
        }
        _ => {
            let mut tokens: Vec<&str> = lines[i].split_whitespace().collect();
            if !tokens.is_empty() {
                let n = tokens.len() as u64;
                tokens.swap((b % n) as usize, ((b / n) % n) as usize);
                lines[i] = tokens.join(" ");
            }
        }
    }
    lines.join("\n")
}

/// Mutated ISA text: a dropped, duplicated or truncated line, a rewritten
/// number or two swapped tokens in any Test-scene trace dump must never
/// panic `load_command`, and every program it accepts names only the
/// registers and predicates its header declares. Accepted programs are
/// not executed: a mutated branch can loop until the step limit.
#[test]
fn mutated_isa_text_loads_or_fails_cleanly() {
    let dumps: Vec<String> = WorkloadKind::ALL
        .iter()
        .map(|&k| dump_command(&build(k, Scale::Test).cmd))
        .collect();
    let strat = (
        usize_in(0, dumps.len()),
        usize_in(0, 5),
        u64_in(0, u64::MAX),
        u64_in(0, u64::MAX),
        u32_in(0, 1 << 20),
    );
    check(&strat, |&(scene, mutation, a, b, value)| {
        // Most rewrites stay near real register, predicate and pc numbers.
        let value = value % [16, 256, 4096, 1 << 20][(b & 3) as usize];
        let text = mutate(&dumps[scene], mutation, a, b, value);
        let Ok(loaded) = std::panic::catch_unwind(|| load_command(&text)) else {
            return Err(format!("load_command panicked on:\n{text}"));
        };
        if let Ok(cmd) = loaded {
            let p = &cmd.program;
            for (pc, i) in p.instrs().iter().enumerate() {
                let (regs, preds) = i.operands();
                prop_assert!(
                    regs.iter().all(|r| r.0 < p.num_regs())
                        && preds.iter().all(|q| q.0 < p.num_preds()),
                    "pc {pc}: {i:?} accepted under regs={} preds={}",
                    p.num_regs(),
                    p.num_preds()
                );
            }
        }
        Ok(())
    });
}
