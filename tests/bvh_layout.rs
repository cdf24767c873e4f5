//! BVH layout pins: every acceleration structure the five scenes build,
//! hashed node for node.
//!
//! For each BLAS and the TLAS of a scene the test checks
//! `(node_count, size_bytes, depth)` and an FNV-1a-64 hash of the
//! `WideBvh`'s `Debug` form (node order, child indices and bounds, leaf
//! payloads, offsets, depth and root box; an `f32` prints as its shortest
//! round-trip decimal, so equal text means equal bits). The form is
//! streamed through a `fmt::Write` sink, so no string of it is built.
//!
//! A pin moves exactly when the builder's output moves. Every golden
//! counter depends on that output (traversal scripts replay node
//! addresses), so a builder change that is meant to be a pure speed-up
//! must leave all of these unchanged. Re-record the constants from the
//! failure message only for an intended layout change, together with a
//! re-bless of the goldens.
//!
//! The Paper-scale EXT and RTV5 pins are `#[ignore]`d (their BLASes hold
//! hundreds of thousands of primitives); run them in release mode:
//!
//! ```sh
//! cargo test --release --offline -q -p vksim-bench --test bvh_layout -- --ignored
//! ```

use std::fmt::{self, Write};
use vksim_bvh::WideBvh;
use vksim_scenes::{build, Scale, WorkloadKind};

/// `(node_count, size_bytes, depth, fnv1a(Debug form))` of one structure.
type Pin = (usize, u64, u32, u64);

/// A `fmt::Write` sink folding everything written into FNV-1a-64.
struct Fnv(u64);

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 = vksim_snapshot::fnv1a(self.0, s.as_bytes());
        Ok(())
    }
}

fn pin_of(bvh: &WideBvh) -> Pin {
    let mut h = Fnv(vksim_snapshot::fnv1a_init());
    write!(h, "{bvh:?}").expect("hashing sink never fails");
    (bvh.node_count(), bvh.size_bytes, bvh.depth, h.0)
}

/// The pins of one scene: every BLAS in creation order, then the TLAS.
fn scene_pins(kind: WorkloadKind, scale: Scale) -> Vec<(String, Pin)> {
    let w = build(kind, scale);
    let mut out: Vec<(String, Pin)> = w
        .device
        .blases
        .iter()
        .enumerate()
        .map(|(i, b)| (format!("blas{i}"), pin_of(&b.bvh)))
        .collect();
    let tlas = w.device.tlas.as_ref().expect("every scene builds a TLAS");
    out.push(("tlas".into(), pin_of(&tlas.bvh)));
    out
}

/// Compares every structure of `scenes` against `want`, listing all
/// actual pins in the failure message so they can be re-recorded at once.
fn assert_pins(scenes: &[(WorkloadKind, Scale)], want: &[(&str, Pin)]) {
    let got: Vec<(String, Pin)> = scenes
        .iter()
        .flat_map(|&(kind, scale)| {
            scene_pins(kind, scale)
                .into_iter()
                .map(move |(what, pin)| (format!("{}/{scale:?}/{what}", kind.name()), pin))
        })
        .collect();
    let report: Vec<String> = got
        .iter()
        .map(|(name, (n, bytes, depth, hash))| {
            format!("(\"{name}\", ({n}, {bytes}, {depth}, {hash:#018x})),")
        })
        .collect();
    let got: Vec<(&str, Pin)> = got.iter().map(|(n, p)| (n.as_str(), *p)).collect();
    assert!(
        got == want,
        "BVH layout moved; the structures now pin as\n{}",
        report.join("\n")
    );
}

fn all_scenes(scale: Scale) -> Vec<(WorkloadKind, Scale)> {
    WorkloadKind::ALL.iter().map(|&k| (k, scale)).collect()
}

#[test]
fn test_scale_bvh_layout_is_pinned() {
    assert_pins(
        &all_scenes(Scale::Test),
        &[
            ("TRI/Test/blas0", (2, 128, 2, 0xdc70923c13a99db7)),
            ("TRI/Test/tlas", (2, 192, 2, 0x5b0c1035fa6db682)),
            ("REF/Test/blas0", (3, 192, 2, 0x16970d2a28a1bf56)),
            ("REF/Test/blas1", (19, 1216, 3, 0x0e1e7cf98eae34c5)),
            ("REF/Test/blas2", (19, 1216, 3, 0x0e1e7cf98eae34c5)),
            ("REF/Test/blas3", (19, 1216, 3, 0x0e1e7cf98eae34c5)),
            ("REF/Test/blas4", (19, 1216, 3, 0x0e1e7cf98eae34c5)),
            ("REF/Test/tlas", (6, 704, 2, 0xa8e41377de7b07ac)),
            ("EXT/Test/blas0", (141, 9024, 5, 0xc2bb63613beaaa0f)),
            ("EXT/Test/tlas", (2, 192, 2, 0xb46ea3ecc5f2ac24)),
            ("RTV5/Test/blas0", (117, 7488, 5, 0x7129ed02d81ea1eb)),
            ("RTV5/Test/tlas", (2, 192, 2, 0x081ee450caeb43be)),
            ("RTV6/Test/blas0", (23, 1472, 3, 0x0e153d1bba5949d6)),
            ("RTV6/Test/tlas", (2, 192, 2, 0xd8fd1362e14995b4)),
        ],
    );
}

#[test]
fn small_scale_bvh_layout_is_pinned() {
    assert_pins(
        &all_scenes(Scale::Small),
        &[
            ("TRI/Small/blas0", (2, 128, 2, 0xdc70923c13a99db7)),
            ("TRI/Small/tlas", (2, 192, 2, 0x5b0c1035fa6db682)),
            ("REF/Small/blas0", (3, 192, 2, 0x16970d2a28a1bf56)),
            ("REF/Small/blas1", (19, 1216, 3, 0x0e1e7cf98eae34c5)),
            ("REF/Small/blas2", (19, 1216, 3, 0x0e1e7cf98eae34c5)),
            ("REF/Small/blas3", (19, 1216, 3, 0x0e1e7cf98eae34c5)),
            ("REF/Small/blas4", (19, 1216, 3, 0x0e1e7cf98eae34c5)),
            ("REF/Small/tlas", (6, 704, 2, 0xa8e41377de7b07ac)),
            ("EXT/Small/blas0", (2099, 134336, 7, 0x74d947c693a8380f)),
            ("EXT/Small/tlas", (2, 192, 2, 0x56a825f58caba0d4)),
            ("RTV5/Small/blas0", (1739, 111296, 7, 0x26384d1efffaa2d5)),
            ("RTV5/Small/tlas", (2, 192, 2, 0x081ee450caeb43be)),
            ("RTV6/Small/blas0", (355, 22720, 5, 0xaa28ec8298485f2c)),
            ("RTV6/Small/tlas", (2, 192, 2, 0x142f07a8691ab71c)),
        ],
    );
}

#[test]
#[ignore = "Paper-scale builds; run in release with --ignored"]
fn paper_scale_ext_rtv5_layout_is_pinned() {
    assert_pins(
        &[
            (WorkloadKind::Ext, Scale::Paper),
            (WorkloadKind::Rtv5, Scale::Paper),
        ],
        &[
            (
                "EXT/Paper/blas0",
                (391630, 25064320, 11, 0x95fc7db7e3f570b6),
            ),
            ("EXT/Paper/tlas", (2, 192, 2, 0x14b80a0102fcb034)),
            (
                "RTV5/Paper/blas0",
                (454929, 29115456, 11, 0xc1b6f32d8b13d6c9),
            ),
            ("RTV5/Paper/tlas", (2, 192, 2, 0x081ee450caeb43be)),
        ],
    );
}
