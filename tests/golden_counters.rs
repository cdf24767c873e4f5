//! Golden-counter regression suite: the drift gate every perf PR diffs
//! against.
//!
//! Each test runs the full cycle-level pipeline on a small deterministic
//! scene and compares a flattened snapshot of the key `vksim-stats`
//! counters (cycles, RT-unit traffic, cache hits/misses by class,
//! warp-occupancy integrals, functional-traversal totals) **exactly**
//! against a checked-in JSON golden under `tests/goldens/`.
//!
//! * Drift fails loudly with a per-counter diff.
//! * After an intentional modeling change, regenerate with
//!   `VKSIM_BLESS=1 cargo test --offline -p vksim-bench --test golden_counters`
//!   and commit the golden diff so reviewers see exactly what moved.

use std::collections::BTreeMap;
use std::path::PathBuf;
use vksim_bench::run_workload;
use vksim_core::{RunReport, SimConfig, Simulator};
use vksim_scenes::{build, Scale, WorkloadKind};
use vksim_testkit::assert_matches_golden;

fn golden_path(name: &str) -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; goldens live at the repo root so
    // they sit next to the integration tests that guard them.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/goldens")
        .join(format!("{name}.json"))
}

/// Flattens a run report into the golden counter map. Only integer-exact
/// quantities are captured: floating-point summary statistics (SIMT
/// efficiency, DRAM utilization) are derived from these counters and would
/// only add platform-rounding noise to the gate.
fn snapshot(report: &RunReport) -> BTreeMap<String, u64> {
    let mut m = BTreeMap::new();
    let gpu = &report.gpu;
    m.insert("gpu.cycles".into(), gpu.cycles);
    m.insert("gpu.issued_insts".into(), gpu.issued_insts);
    m.insert("gpu.rt_busy_cycles".into(), gpu.rt_busy_cycles);
    m.insert(
        "gpu.rt_resident_warp_cycles".into(),
        gpu.rt_resident_warp_cycles,
    );
    m.insert("gpu.rt_ops".into(), gpu.rt_ops);
    m.insert("gpu.rt_chunks_fetched".into(), gpu.rt_chunks_fetched);
    m.insert(
        "gpu.rt_warp_latency.count".into(),
        gpu.rt_warp_latency.count(),
    );
    m.insert(
        "gpu.rt_occupancy.events".into(),
        gpu.rt_occupancy.iter().map(|t| t.len() as u64).sum(),
    );
    for (k, v) in gpu.counters.iter() {
        m.insert(format!("counter.{k}"), v);
    }
    for (prefix, bag) in [
        ("l1", &gpu.l1_stats),
        ("rtc", &gpu.rtc_stats),
        ("l2", &gpu.l2_stats),
        ("dram", &gpu.dram_stats),
    ] {
        for (k, v) in bag.iter() {
            m.insert(format!("{prefix}.{k}"), v);
        }
    }
    let rt = &report.runtime;
    m.insert("runtime.rays".into(), rt.rays);
    m.insert("runtime.nodes_visited".into(), rt.nodes_visited);
    m.insert("runtime.box_tests".into(), rt.box_tests);
    m.insert("runtime.triangle_tests".into(), rt.triangle_tests);
    m.insert("runtime.transforms".into(), rt.transforms);
    m.insert("runtime.procedural_hits".into(), rt.procedural_hits);
    m.insert("runtime.triangle_hits".into(), rt.triangle_hits);
    m.insert("runtime.misses".into(), rt.misses);
    m.insert("runtime.max_stack_depth".into(), rt.max_stack_depth as u64);
    m.insert("runtime.spill_stores".into(), rt.spill_stores);
    m.insert("runtime.spill_loads".into(), rt.spill_loads);
    m
}

/// Runs a workload with cycle accounting AND ray-traversal analytics
/// enabled and checks every gate at once: the counter snapshot must match
/// its golden **byte-for-byte** (proving both observers are purely
/// observational — the goldens were blessed without them), the accounting
/// breakdown must conserve (`Σ categories == num_sms × cycles`), and the
/// traversal analytics must conserve (heatmap visits == Σ per-ray node
/// counts, per-ray box tests == RT-unit box ops).
fn check_workload_with(kind: WorkloadKind, golden: &str, config: SimConfig) {
    let (_, report) = run_workload(
        kind,
        Scale::Test,
        config.with_accounting(true).with_rt_analytics(true),
    );
    let prof = report.prof.as_ref().expect("accounting enabled");
    assert!(
        prof.conservation_holds(),
        "cycle-accounting conservation violated on {golden}: {prof:?}"
    );
    assert_eq!(prof.cycles, report.gpu.cycles, "{golden}");
    let rt = report.rt.as_ref().expect("rt analytics enabled");
    assert!(
        rt.conservation_holds(),
        "rt-analytics conservation violated on {golden}"
    );
    assert_matches_golden(golden_path(golden), &snapshot(&report));
}

fn check_workload(kind: WorkloadKind, golden: &str) {
    check_workload_with(kind, golden, SimConfig::test_small());
}

#[test]
fn golden_tri() {
    check_workload(WorkloadKind::Tri, "tri");
}

#[test]
fn golden_ref() {
    check_workload(WorkloadKind::Ref, "ref");
}

#[test]
fn golden_ext() {
    check_workload(WorkloadKind::Ext, "ext");
}

#[test]
fn golden_rtv5() {
    check_workload(WorkloadKind::Rtv5, "rtv5");
}

#[test]
fn golden_rtv6() {
    check_workload(WorkloadKind::Rtv6, "rtv6");
}

/// The paper's mobile configuration (8 SMs, 32 K registers, mobile DRAM)
/// on the TRI scene — guards the Table III variant the FCC case study
/// runs on, not just the desktop baseline.
#[test]
fn golden_tri_mobile() {
    check_workload_with(WorkloadKind::Tri, "tri_mobile", SimConfig::mobile());
}

/// The paper-scale configuration (48 SMs, 8 memory partitions, FR-FCFS
/// DRAM scheduling) on the TRI scene — guards the partitioned memory
/// backend end to end, including the per-partition `l2.p{i}.*` /
/// `dram.p{i}.*` counters and the merged totals they roll up into.
#[test]
fn golden_tri_paper() {
    check_workload_with(WorkloadKind::Tri, "tri_paper", SimConfig::paper());
}

/// The full cycle-accounting breakdown of the paper-scale TRI run, pinned
/// key-by-key: per-SM and merged category counts, occupancy integrals and
/// issue totals. Any attribution change — a new stall source, a precedence
/// reorder, an engine-scheduling drift — shows up as a per-key diff here.
/// Regenerate with `VKSIM_BLESS=1` after intentional changes.
#[test]
fn golden_tri_paper_prof() {
    let (_, report) = run_workload(
        WorkloadKind::Tri,
        Scale::Test,
        SimConfig::paper().with_accounting(true),
    );
    let prof = report.prof.as_ref().expect("accounting enabled");
    assert!(prof.conservation_holds());
    assert_matches_golden(golden_path("tri_paper_prof"), &prof.flat_map());
}

/// The full ray-traversal characterization of the paper-scale TRI run,
/// pinned key-by-key: per-node heatmap totals, per-ray histograms,
/// depth profile, warp-coherence tallies and per-SM RT-unit roll-ups.
/// Any traversal-order, BVH-layout or attribution change shows up as a
/// per-key diff here. Regenerate with `VKSIM_BLESS=1` after intentional
/// changes.
#[test]
fn golden_tri_paper_rt() {
    let (_, report) = run_workload(
        WorkloadKind::Tri,
        Scale::Test,
        SimConfig::paper().with_rt_analytics(true),
    );
    let rt = report.rt.as_ref().expect("analytics enabled");
    assert!(rt.conservation_holds());
    assert_matches_golden(golden_path("tri_paper_rt"), &rt.flat_map());
}

/// The paper-scale configuration behind a *bounded* interconnect: finite
/// per-partition ingress queues and return credits, so SMs stall on
/// backpressure (`sm.icnt_stall_cycles`) and refused offers are counted
/// (`icnt.refused`). Pins the backpressured schedule so interconnect
/// changes cannot drift silently.
#[test]
fn golden_tri_paper_icnt() {
    let config = SimConfig::paper()
        .with_icnt_queue_depth(4)
        .with_icnt_return_credits(2);
    check_workload_with(WorkloadKind::Tri, "tri_paper_icnt", config);
}

/// The paper machine with its L2 MSHR file cut to one entry and two merge
/// slots per slice: the only configuration in the suite whose L2 refuses
/// accesses (`l2.mshr.full` and `l2.mshr.merge_fail` both nonzero), so it
/// pins the reservation-fail retry schedule of the memory backend.
fn l2_starved_paper() -> SimConfig {
    let mut config = SimConfig::paper();
    config.gpu.mem.l2.mshr_entries = config.gpu.mem.num_partitions as usize;
    config.gpu.mem.l2.mshr_merge = 2;
    config
}

#[test]
fn golden_tri_paper_l2starve() {
    check_workload_with(WorkloadKind::Tri, "tri_paper_l2starve", l2_starved_paper());
}

/// The observers the golden run carries are pure: a plain run of the
/// starved L2 (no accounting, no RT analytics) refuses on both checks and
/// matches the golden.
#[test]
fn l2_starved_observers_do_not_change_counters() {
    let (_, report) = run_workload(WorkloadKind::Tri, Scale::Test, l2_starved_paper());
    let plain = snapshot(&report);
    assert!(
        plain["l2.mshr.full"] > 0 && plain["l2.mshr.merge_fail"] > 0,
        "the starved L2 must refuse on both checks"
    );
    assert_matches_golden(golden_path("tri_paper_l2starve"), &plain);
}

/// The FCC case study (§VI-E): RTV6 with function-call coalescing enabled.
/// Locks the coalescing-table loads and reordered intersection-shader
/// lowering the case study measures, so tracing hooks (and future PRs)
/// cannot silently shift the FCC path.
#[test]
fn golden_rtv6_fcc() {
    let mut w = build(WorkloadKind::Rtv6, Scale::Test);
    let fcc_cmd = w.with_fcc(true);
    let report = Simulator::new(
        SimConfig::test_small()
            .with_accounting(true)
            .with_rt_analytics(true),
    )
    .run(&w.device, &fcc_cmd)
    .expect("healthy run");
    let prof = report.prof.as_ref().expect("accounting enabled");
    assert!(prof.conservation_holds(), "{prof:?}");
    assert!(report
        .rt
        .as_ref()
        .expect("analytics on")
        .conservation_holds());
    assert_matches_golden(golden_path("rtv6_fcc"), &snapshot(&report));
}

/// The ITS case study (§VI-F): REF under independent thread scheduling.
/// The multipath SIMT engine takes different divergence/reconvergence
/// decisions than the stack engine, so it gets its own golden.
#[test]
fn golden_ref_its() {
    let w = build(WorkloadKind::Ref, Scale::Test);
    let report = Simulator::new(
        SimConfig::test_small()
            .with_its(true)
            .with_accounting(true)
            .with_rt_analytics(true),
    )
    .run(&w.device, &w.cmd)
    .expect("healthy run");
    let prof = report.prof.as_ref().expect("accounting enabled");
    assert!(prof.conservation_holds(), "{prof:?}");
    assert!(report
        .rt
        .as_ref()
        .expect("analytics on")
        .conservation_holds());
    assert_matches_golden(golden_path("ref_its"), &snapshot(&report));
}

/// `SimConfig::with_threads` is inert: the cycle loop runs on the calling
/// thread alone, so a run that asks for four threads reproduces the TRI
/// golden counter for counter.
#[test]
fn threads_do_not_change_counters() {
    let config = SimConfig::test_small().with_threads(4);
    let (_, report) = run_workload(WorkloadKind::Tri, Scale::Test, config);
    assert_matches_golden(golden_path("tri"), &snapshot(&report));
}

/// ITS with the RT unit's warp buffer cut to two entries: several splits
/// of one warp hold `RtPending` jobs and refused L1 chunks at once, so
/// which split is admitted or re-offered first is decided by the order the
/// SM walks a warp's contexts in.
fn its_rt_buffer_pressure() -> SimConfig {
    SimConfig::test_small().with_its(true).with_rt_max_warps(2)
}

/// Pins that order (context id).
#[test]
fn golden_ref_its_rtw2() {
    let config = its_rt_buffer_pressure();
    check_workload_with(WorkloadKind::Ref, "ref_its_rtw2", config);
}

/// That walk must not follow a hashed container: every `HashMap` draws a
/// fresh `RandomState`, so 16 runs in one process sample 16 hash orders.
/// All of them must agree on every counter.
#[test]
fn its_under_rt_buffer_pressure_is_deterministic() {
    let w = build(WorkloadKind::Ref, Scale::Test);
    let run = || {
        let report = Simulator::new(its_rt_buffer_pressure())
            .run(&w.device, &w.cmd)
            .expect("healthy run");
        snapshot(&report)
    };
    let first = run();
    for i in 1..16 {
        assert_eq!(first, run(), "run {i} diverged from run 0");
    }
}

/// The simulator itself must be run-to-run deterministic, otherwise the
/// goldens above would flake rather than gate. Two back-to-back runs must
/// produce byte-identical snapshots. This covers the stack engine only
/// (TRI on `test_small`, one context per warp);
/// `its_under_rt_buffer_pressure_is_deterministic` covers the multipath
/// engine, where a warp holds several contexts.
#[test]
fn simulation_is_deterministic() {
    let (_, a) = run_workload(WorkloadKind::Tri, Scale::Test, SimConfig::test_small());
    let (_, b) = run_workload(WorkloadKind::Tri, Scale::Test, SimConfig::test_small());
    assert_eq!(
        snapshot(&a),
        snapshot(&b),
        "simulator must be deterministic"
    );
}
