//! Schema + conservation validation for the `VKSIM_RT_ANALYTICS`
//! flat-JSON export.
//!
//! Two modes, mirroring `tests/prof_smoke.rs`:
//!
//! * Self-contained (default): runs the TRI workload with analytics on,
//!   exports through the same `VKSIM_RT_ANALYTICS`-driven path the CLI
//!   uses, and validates the file.
//! * CI smoke: when `VKSIM_RT_SMOKE_FILE` names a file (written by a
//!   separate `vksim-experiments --rt-analytics=...` invocation in
//!   `scripts/ci.sh`), validates that file instead — proving the whole
//!   binary-to-disk pipeline, not just the library path.
//!
//! Validation is the analytics layer's external contract: the file
//! parses with the testkit's strict flat-JSON reader, carries the
//! documented key schema, and conserves — the heatmap and the per-ray
//! histograms tally the same traversal from independent legs, per-ray
//! box tests equal the RT unit's operation count, and every per-SM
//! series rolls up exactly into its merged total.
//!
//! The property test at the bottom re-proves conservation across the
//! configuration space (workload × RT-warp limit × divergence mode), not
//! just on the golden configs.

use std::collections::BTreeMap;
use vksim_bench::run_workload;
use vksim_core::SimConfig;
use vksim_scenes::{Scale, WorkloadKind};
use vksim_testkit::json::parse_flat_u64_object;
use vksim_testkit::prop::{check_with, map, u32_in, Config};
use vksim_testkit::prop_assert;
use vksim_trace::{RAY_HIST_BUCKETS, WARP_OCC_BUCKETS};

const HISTS: [&str; 4] = ["nodes", "box", "tri", "restarts"];

/// Asserts the documented schema and every conservation leg on a parsed
/// flat rt-analytics export.
fn validate(m: &BTreeMap<String, u64>) {
    let num_sms = *m.get("num_sms").expect("`num_sms` key");
    let rays = *m.get("rays").expect("`rays` key");
    assert!(num_sms > 0);
    assert!(rays > 0, "smoke workloads trace rays");

    // Leg 1: the per-node heatmap and the per-ray node counts tally the
    // same traversal from independent recording points.
    assert_eq!(
        m["heatmap.visits"], m["nodes_visited"],
        "heatmap visits vs per-ray node counts"
    );
    assert!(m["heatmap.hits"] <= m["heatmap.visits"]);
    assert!(m["heatmap.cells"] <= m["heatmap.visits"]);
    // Leg 2: every internal-node visit is exactly one RT-unit box op.
    assert_eq!(
        m["box_tests"], m["rtu.box_ops"],
        "per-ray box tests vs rt-unit box ops"
    );
    // Leg 3: every ray lands in every histogram exactly once.
    for h in HISTS {
        let total: u64 = (0..RAY_HIST_BUCKETS)
            .map(|i| m[&format!("hist.{h}.b{i}")])
            .sum();
        assert_eq!(total, rays, "hist.{h} must count every ray once");
    }
    // The per-level depth profile partitions the heatmap total.
    let level_visits: u64 = m
        .iter()
        .filter(|(k, _)| {
            (k.starts_with("tlas.l") || k.starts_with("blas.l")) && k.ends_with(".visits")
        })
        .map(|(_, v)| *v)
        .sum();
    assert_eq!(level_visits, m["heatmap.visits"], "depth-profile roll-up");
    // Warp-coherence integrals: the occupancy tally is the step-count
    // histogram, so its weighted sum is the lane-step integral and its
    // plain sum the step count (no step has zero active lanes).
    let lane_integral: u64 = (1..WARP_OCC_BUCKETS)
        .map(|n| n as u64 * m[&format!("warp.occ{n}")])
        .sum();
    assert_eq!(lane_integral, m["warp.lane_steps"], "occupancy integral");
    let occ_total: u64 = (1..WARP_OCC_BUCKETS)
        .map(|n| m[&format!("warp.occ{n}")])
        .sum();
    assert_eq!(occ_total, m["warp.warp_steps"], "occupancy step count");
    // Per-SM roll-ups are exact.
    for (field, total_key) in [
        ("trace_warps", "warp.trace_warps"),
        ("warp_steps", "warp.warp_steps"),
        ("lane_steps", "warp.lane_steps"),
    ] {
        let sum: u64 = (0..num_sms).map(|i| m[&format!("sm{i}.{field}")]).sum();
        assert_eq!(sum, m[total_key], "sm*.{field} roll-up");
    }
    for field in ["jobs", "steps", "latency"] {
        let sum: u64 = (0..num_sms).map(|i| m[&format!("sm{i}.rtu.{field}")]).sum();
        assert_eq!(sum, m[&format!("rtu.{field}")], "sm*.rtu.{field} roll-up");
    }

    // No undocumented keys: everything is a fixed scalar, a histogram
    // bucket, a depth-profile key, an occupancy tally, or a per-SM key
    // for a valid SM index.
    let sm_field_ok = |f: &str| {
        matches!(f, "trace_warps" | "warp_steps" | "lane_steps")
            || matches!(f, "rtu.jobs" | "rtu.steps" | "rtu.latency")
    };
    let level_ok = |rest: &str| {
        rest.strip_prefix("l").is_some_and(|rest| {
            rest.split_once('.').is_some_and(|(d, field)| {
                d.parse::<u32>().is_ok() && matches!(field, "visits" | "lines")
            })
        })
    };
    for k in m.keys() {
        let ok = matches!(
            k.as_str(),
            "num_sms"
                | "rays"
                | "nodes_visited"
                | "box_tests"
                | "triangle_tests"
                | "restarts"
                | "heatmap.cells"
                | "heatmap.visits"
                | "heatmap.hits"
                | "rtu.box_ops"
                | "rtu.jobs"
                | "rtu.steps"
                | "rtu.latency"
                | "warp.trace_warps"
                | "warp.warp_steps"
                | "warp.lane_steps"
        ) || k.strip_prefix("hist.").is_some_and(|rest| {
            rest.split_once(".b").is_some_and(|(h, i)| {
                HISTS.contains(&h) && i.parse::<usize>().is_ok_and(|i| i < RAY_HIST_BUCKETS)
            })
        }) || k.strip_prefix("tlas.").is_some_and(level_ok)
            || k.strip_prefix("blas.").is_some_and(level_ok)
            || k.strip_prefix("warp.occ").is_some_and(|n| {
                n.parse::<usize>()
                    .is_ok_and(|n| (1..WARP_OCC_BUCKETS).contains(&n))
            })
            || k.strip_prefix("sm").is_some_and(|rest| {
                rest.split_once('.').is_some_and(|(idx, field)| {
                    idx.parse::<u64>().is_ok_and(|i| i < num_sms) && sm_field_ok(field)
                })
            });
        assert!(ok, "undocumented key in rt analytics export: {k}");
    }
}

#[test]
fn rt_export_parses_and_conserves() {
    let text = match std::env::var("VKSIM_RT_SMOKE_FILE") {
        // CI mode: validate the file a separate experiments run produced.
        Ok(path) => std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("VKSIM_RT_SMOKE_FILE {path} unreadable: {e}")),
        // Self-contained mode: export through the library path ourselves.
        Err(_) => {
            let dir = std::env::temp_dir().join(format!("vksim-rt-smoke-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("rt.json");
            let mut config = SimConfig::test_small().with_rt_analytics(true);
            config.gpu.trace.rt = Some(path.to_str().unwrap().into());
            let (_, report) = run_workload(WorkloadKind::Tri, Scale::Test, config);
            assert!(report.rt.expect("analytics enabled").conservation_holds());
            let text = std::fs::read_to_string(&path).expect("rt export written");
            std::fs::remove_dir_all(&dir).ok();
            text
        }
    };
    let m = parse_flat_u64_object(&text).expect("rt export parses as flat u64 JSON");
    validate(&m);
}

/// Conservation is a structural invariant, not a property of the golden
/// configs: any workload under any (RT-warp limit, divergence mode)
/// combination must produce an export whose legs agree.
#[test]
fn rt_conservation_holds_across_configs() {
    let strat = map(
        (
            u32_in(0, WorkloadKind::ALL.len() as u32 - 1),
            u32_in(1, 20),
            u32_in(0, 1),
        ),
        |(w, warps, its)| (WorkloadKind::ALL[w as usize], warps as usize, its == 1),
    );
    // Each case is a full simulation; keep the count CI-sized.
    let config = Config {
        cases: 8,
        ..Config::from_env()
    };
    check_with(config, &strat, |&(kind, warps, its)| {
        let sim = SimConfig::test_small()
            .with_rt_analytics(true)
            .with_rt_max_warps(warps)
            .with_its(its);
        let (_, report) = run_workload(kind, Scale::Test, sim);
        let rt = report.rt.expect("analytics enabled");
        prop_assert!(
            rt.conservation_holds(),
            "conservation violated for {kind:?} warps={warps} its={its}"
        );
        validate(&rt.flat_map());
        Ok(())
    });
}
