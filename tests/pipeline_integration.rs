//! Cross-crate integration: every workload runs under the cycle-level
//! timing model with consistent statistics.

use vksim_core::report::{instruction_mix, roofline_point, rt_roofline};
use vksim_core::{MemoryMode, SimConfig, Simulator};
use vksim_scenes::{build, Scale, WorkloadKind};

fn small_sim() -> Simulator {
    Simulator::new(SimConfig::test_small())
}

#[test]
fn all_workloads_complete_under_timing_model() {
    for kind in WorkloadKind::ALL {
        let w = build(kind, Scale::Test);
        let report = small_sim().run(&w.device, &w.cmd).expect("healthy run");
        assert!(report.gpu.cycles > 0, "{}", w.name);
        assert!(report.runtime.rays > 0, "{}", w.name);
        assert!(
            report.gpu.rt_busy_cycles > 0,
            "{} must use the RT units",
            w.name
        );
        assert!(report.gpu.simt_efficiency > 0.0 && report.gpu.simt_efficiency <= 1.0);
    }
}

#[test]
fn instruction_mix_is_alu_dominated_with_rare_traces() {
    // Paper §VI: ~60% ALU, ~25% memory, ~1% trace instructions.
    let w = build(WorkloadKind::Ext, Scale::Test);
    let report = small_sim().run(&w.device, &w.cmd).expect("healthy run");
    let mix = instruction_mix(&report.gpu);
    assert!(mix.alu > 0.35, "ALU share {:.2}", mix.alu);
    assert!(mix.alu > mix.mem, "ALU > memory share");
    assert!(
        mix.trace_ray < 0.10,
        "trace-ray share {:.3} should be small",
        mix.trace_ray
    );
}

#[test]
fn roofline_points_are_memory_bound() {
    // Paper Fig. 12: all workloads fall under the memory bound.
    let w = build(WorkloadKind::Ext, Scale::Test);
    let report = small_sim().run(&w.device, &w.cmd).expect("healthy run");
    let point = roofline_point(&report.gpu);
    let roof = rt_roofline(&SimConfig::test_small().gpu.rt_unit);
    assert!(
        roof.is_memory_bound(&point),
        "EXT should be memory bound: {point:?}"
    );
    assert!(roof.utilization(&point) <= 1.0);
}

#[test]
fn memory_limit_studies_order_correctly() {
    // Fig. 15: perfect memory <= perfect BVH <= baseline (within noise,
    // asserted loosely as "not slower by more than 5%").
    let w = build(WorkloadKind::Ref, Scale::Test);
    let base = small_sim()
        .run(&w.device, &w.cmd)
        .expect("healthy run")
        .gpu
        .cycles as f64;
    let pbvh = Simulator::new(SimConfig::test_small().with_memory_mode(MemoryMode::PerfectBvh))
        .run(&w.device, &w.cmd)
        .expect("healthy run")
        .gpu
        .cycles as f64;
    let pmem = Simulator::new(SimConfig::test_small().with_memory_mode(MemoryMode::PerfectMem))
        .run(&w.device, &w.cmd)
        .expect("healthy run")
        .gpu
        .cycles as f64;
    assert!(pbvh <= base * 1.05, "perfect BVH {pbvh} vs baseline {base}");
    assert!(pmem <= base * 1.05, "perfect mem {pmem} vs baseline {base}");
}

#[test]
fn rt_unit_warp_sweep_changes_behaviour() {
    // Fig. 16 mechanism: more concurrent RT warps -> more memory-level
    // parallelism; occupancy integral must grow (or at least not shrink)
    // with the limit.
    let w = build(WorkloadKind::Ref, Scale::Test);
    let one = Simulator::new(SimConfig::test_small().with_rt_max_warps(1))
        .run(&w.device, &w.cmd)
        .expect("healthy run");
    let eight = Simulator::new(SimConfig::test_small().with_rt_max_warps(8))
        .run(&w.device, &w.cmd)
        .expect("healthy run");
    let occ1 = one.gpu.rt_resident_warp_cycles as f64 / one.gpu.rt_busy_cycles.max(1) as f64;
    let occ8 = eight.gpu.rt_resident_warp_cycles as f64 / eight.gpu.rt_busy_cycles.max(1) as f64;
    assert!(
        occ8 >= occ1,
        "occupancy with 8 warps ({occ8:.2}) >= with 1 ({occ1:.2})"
    );
    assert!(
        occ1 <= 1.01,
        "with a 1-warp limit occupancy can't exceed 1: {occ1}"
    );
}

#[test]
fn power_breakdown_matches_paper_shape() {
    // §VI-D: RT units < 1% of power; constant+static dominate.
    let w = build(WorkloadKind::Ext, Scale::Test);
    let report = small_sim().run(&w.device, &w.cmd).expect("healthy run");
    assert!(report.power.fraction("rt_unit") < 0.05);
    let cs = report.power.fraction("constant") + report.power.fraction("static");
    assert!(cs > 0.3, "constant+static fraction {cs:.2}");
}

#[test]
fn dram_stats_are_populated() {
    let w = build(WorkloadKind::Ext, Scale::Test);
    let report = small_sim().run(&w.device, &w.cmd).expect("healthy run");
    assert!(report.gpu.dram_stats.get("req") > 0);
    assert!(report.gpu.dram_efficiency > 0.0 && report.gpu.dram_efficiency <= 1.0);
    assert!(report.gpu.dram_utilization > 0.0 && report.gpu.dram_utilization <= 1.0);
    assert!(report.gpu.dram_efficiency >= report.gpu.dram_utilization);
}

#[test]
fn timing_and_functional_images_agree() {
    for kind in [WorkloadKind::Tri, WorkloadKind::Ref] {
        let w = build(kind, Scale::Test);
        let mut sim = small_sim();
        let (fmem, _) = sim.run_functional(&w.device, &w.cmd).expect("healthy run");
        let report = sim.run(&w.device, &w.cmd).expect("healthy run");
        let n = (w.width * w.height) as usize;
        for i in 0..n {
            let a = fmem.read_u32(w.fb_addr + i as u64 * 4);
            let b = report.memory.read_u32(w.fb_addr + i as u64 * 4);
            assert_eq!(a, b, "{}: pixel {i} timing vs functional", w.name);
        }
    }
}
