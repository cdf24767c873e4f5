//! Pins of the functional tier (`Simulator::run_functional`), the path that
//! renders the images of Fig. 2 and the workload characterisation of
//! Table IV without the timing model.
//!
//! * At Test scale, each scene's functional `RuntimeStats` must equal the
//!   `runtime.*` keys of its cycle-level golden: both tiers run the same
//!   traversal, so they must report the same totals, spill traffic
//!   included.
//! * At Paper scale, the statistics and an FNV-1a-64 hash of the
//!   framebuffer of every scene are pinned in `tests/goldens/func_paper.json`.
//!   That test is `#[ignore]`d (five Paper-scale scenes); run it in release:
//!
//! ```sh
//! cargo test --release --offline -q -p vksim-bench --test functional_tier -- --ignored
//! ```

use std::collections::BTreeMap;
use std::path::PathBuf;
use vksim_core::validate::read_framebuffer;
use vksim_core::{RuntimeStats, SimConfig, Simulator};
use vksim_scenes::{build, Scale, WorkloadKind};
use vksim_testkit::assert_matches_golden;
use vksim_testkit::json::parse_flat_u64_object;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/goldens")
        .join(format!("{name}.json"))
}

/// The eleven `runtime.*` keys, named as the cycle-level goldens name them.
fn runtime_keys(rt: &RuntimeStats) -> [(&'static str, u64); 11] {
    [
        ("runtime.rays", rt.rays),
        ("runtime.nodes_visited", rt.nodes_visited),
        ("runtime.box_tests", rt.box_tests),
        ("runtime.triangle_tests", rt.triangle_tests),
        ("runtime.transforms", rt.transforms),
        ("runtime.procedural_hits", rt.procedural_hits),
        ("runtime.triangle_hits", rt.triangle_hits),
        ("runtime.misses", rt.misses),
        ("runtime.max_stack_depth", u64::from(rt.max_stack_depth)),
        ("runtime.spill_stores", rt.spill_stores),
        ("runtime.spill_loads", rt.spill_loads),
    ]
}

#[test]
fn functional_stats_equal_the_timing_goldens() {
    for (kind, golden) in [
        (WorkloadKind::Tri, "tri"),
        (WorkloadKind::Ref, "ref"),
        (WorkloadKind::Ext, "ext"),
        (WorkloadKind::Rtv5, "rtv5"),
        (WorkloadKind::Rtv6, "rtv6"),
    ] {
        let w = build(kind, Scale::Test);
        let (_, stats) = Simulator::new(SimConfig::test_small())
            .run_functional(&w.device, &w.cmd)
            .expect("healthy run");
        let text = std::fs::read_to_string(golden_path(golden)).expect("golden readable");
        let want = parse_flat_u64_object(&text).expect("golden parses");
        for (key, got) in runtime_keys(&stats) {
            assert_eq!(Some(&got), want.get(key), "{golden}: {key}");
        }
    }
}

#[test]
#[ignore = "five Paper-scale scenes; run in release with --ignored"]
fn paper_scale_functional_runs_are_pinned() {
    let mut actual = BTreeMap::new();
    for kind in WorkloadKind::ALL {
        let w = build(kind, Scale::Paper);
        let (mem, stats) = Simulator::new(SimConfig::test_small())
            .run_functional(&w.device, &w.cmd)
            .expect("healthy run");
        for (key, v) in runtime_keys(&stats) {
            actual.insert(format!("{}.{key}", w.name), v);
        }
        let img = read_framebuffer(&mem, w.fb_addr, (w.width * w.height) as usize);
        let bytes: Vec<u8> = img.iter().flat_map(|p| p.to_le_bytes()).collect();
        let fnv = vksim_snapshot::fnv1a(vksim_snapshot::fnv1a_init(), &bytes);
        actual.insert(format!("{}.framebuffer_fnv", w.name), fnv);
    }
    assert_matches_golden(golden_path("func_paper"), &actual);
}
