//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (see DESIGN.md's per-experiment index).
//!
//! Each `fig_*` / `tab_*` function runs the necessary simulations and
//! returns the printable rows/series the paper reports. The
//! `experiments` binary (`src/bin/experiments.rs`) exposes them on the
//! command line. Host speed is measured by the repo benchmark
//! (`benchmark/`), not here.

use vksim_core::hwproxy::{HwProxy, WorkloadProfile};
use vksim_core::report::{
    instruction_mix, roofline_point, rt_roofline, rt_time_fraction, CacheBreakdown,
};
use vksim_core::{MemoryMode, RunReport, SimConfig, Simulator};
use vksim_scenes::{build, reference, Scale, Workload, WorkloadKind};
use vksim_stats::{least_squares_slope, pearson};

// Compiles and runs the README's Rust snippet as a doctest.
#[doc = include_str!("../../../README.md")]
#[cfg(doctest)]
struct ReadmeDoctest;

/// The simulation configuration matched to a scene scale: paper-sized
/// scenes run on the 48-SM, 8-partition paper machine (Table IV / Fig. 12
/// fidelity); test scenes use the 2-SM mule so the suite stays fast.
pub fn config_for_scale(scale: Scale) -> SimConfig {
    match scale {
        Scale::Paper => SimConfig::paper(),
        _ => SimConfig::test_small(),
    }
}

/// Runs one workload under a configuration, returning the workload and the
/// full run report.
pub fn run_workload(kind: WorkloadKind, scale: Scale, config: SimConfig) -> (Workload, RunReport) {
    let w = build(kind, scale);
    let report = Simulator::new(config)
        .run(&w.device, &w.cmd)
        .expect("healthy run");
    (w, report)
}

/// Runs each workload with cycle accounting enabled and returns its
/// human-readable stall summary (the `--prof-summary` report: top stall
/// category, SIMT efficiency, achieved vs peak IPC, occupancy).
pub fn prof_summary_rows(scale: Scale) -> Vec<(&'static str, String)> {
    WorkloadKind::ALL
        .iter()
        .map(|&k| {
            let config = config_for_scale(scale).with_accounting(true);
            let (w, report) = run_workload(k, scale, config);
            let prof = report.prof.expect("accounting enabled");
            debug_assert!(prof.conservation_holds());
            (w.name, prof.summary())
        })
        .collect()
}

/// Runs each workload with ray-traversal analytics enabled and returns
/// its human-readable characterization (the `--rt-summary` report: rays
/// traced, per-ray traversal work, heatmap concentration, warp
/// coherence, RT-unit attribution).
pub fn rt_summary_rows(scale: Scale) -> Vec<(&'static str, String)> {
    WorkloadKind::ALL
        .iter()
        .map(|&k| {
            let config = config_for_scale(scale).with_rt_analytics(true);
            let (w, report) = run_workload(k, scale, config);
            let rt = report.rt.expect("rt analytics enabled");
            debug_assert!(rt.conservation_holds());
            (w.name, rt.summary())
        })
        .collect()
}

/// One row shared by several experiments.
#[derive(Clone, Debug)]
pub struct WorkloadRow {
    /// Workload name.
    pub name: &'static str,
    /// Simulated cycles.
    pub cycles: u64,
    /// The full report.
    pub report: RunReport,
}

/// Runs all five workloads under `config`.
pub fn run_all(scale: Scale, config: &SimConfig) -> Vec<WorkloadRow> {
    WorkloadKind::ALL
        .iter()
        .map(|&k| {
            let (w, report) = run_workload(k, scale, config.clone());
            WorkloadRow {
                name: w.name,
                cycles: report.gpu.cycles,
                report,
            }
        })
        .collect()
}

/// Fig. 1 substitute: per-workload ray-tracing share of execution (the
/// paper profiles RTX games and finds 28% of frame time on average).
pub fn fig01_frame_breakdown(scale: Scale) -> Vec<(String, f64)> {
    let config = SimConfig::test_small();
    let num_sms = config.gpu.num_sms;
    run_all(scale, &config)
        .into_iter()
        .map(|r| (r.name.to_string(), rt_time_fraction(&r.report.gpu, num_sms)))
        .collect()
}

/// Fig. 2: pixel-diff percentage between the simulator's image and the
/// reference renderer, per validated workload.
pub fn fig02_pixel_diff(scale: Scale) -> Vec<(String, f64)> {
    use vksim_core::validate::{pixel_diff_fraction, read_framebuffer};
    [WorkloadKind::Tri, WorkloadKind::Ref, WorkloadKind::Ext]
        .iter()
        .map(|&k| {
            let w = build(k, scale);
            let mut sim = Simulator::new(SimConfig::test_small());
            let (mem, _) = sim.run_functional(&w.device, &w.cmd).expect("healthy run");
            let img = read_framebuffer(&mem, w.fb_addr, (w.width * w.height) as usize);
            let reference = reference::render(&w);
            let diff = pixel_diff_fraction(&img, &reference, 1).expect("same dimensions");
            (w.name.to_string(), diff)
        })
        .collect()
}

/// Table IV row: workload summary.
#[derive(Clone, Debug)]
pub struct Tab04Row {
    /// Workload name.
    pub name: &'static str,
    /// BVH tree depth (TLAS + deepest BLAS).
    pub bvh_depth: u32,
    /// Average nodes visited per ray.
    pub avg_nodes_per_ray: f64,
    /// Primitive count.
    pub primitive_count: usize,
}

/// Table IV: workload summary (depth, nodes/ray, primitives). Uses the
/// functional simulator so it scales to Paper-sized scenes.
pub fn tab04_workloads(scale: Scale) -> Vec<Tab04Row> {
    WorkloadKind::ALL
        .iter()
        .map(|&k| {
            let w = build(k, scale);
            let mut sim = Simulator::new(config_for_scale(scale));
            let (_, stats) = sim.run_functional(&w.device, &w.cmd).expect("healthy run");
            Tab04Row {
                name: w.name,
                bvh_depth: w.bvh_depth,
                avg_nodes_per_ray: stats.avg_nodes_per_ray(),
                primitive_count: w.primitive_count,
            }
        })
        .collect()
}

/// §VI intro: instruction-mix percentages per workload.
pub fn instruction_mix_rows(scale: Scale) -> Vec<(String, vksim_core::report::InstructionMix)> {
    run_all(scale, &SimConfig::test_small())
        .into_iter()
        .map(|r| (r.name.to_string(), instruction_mix(&r.report.gpu)))
        .collect()
}

/// Correlation result (Figs. 11 / 19).
#[derive(Clone, Debug)]
pub struct Correlation {
    /// Per-workload `(name, simulator cycles, hardware-proxy cycles)`.
    pub points: Vec<(String, f64, f64)>,
    /// Pearson correlation coefficient.
    pub correlation: f64,
    /// Least-squares slope of hw = slope × sim.
    pub slope: f64,
}

/// Runs the correlation study for one configuration (Fig. 11 uses the
/// baseline; Fig. 19 sweeps tuned configurations).
pub fn correlation_study(scale: Scale, config: &SimConfig) -> Correlation {
    let hw = HwProxy::default();
    let mut points = Vec::new();
    for &k in &WorkloadKind::ALL {
        let w = build(k, scale);
        let report = Simulator::new(config.clone())
            .run(&w.device, &w.cmd)
            .expect("healthy run");
        let footprint: u64 = w.device.blases.iter().map(|b| b.size_bytes()).sum::<u64>()
            + w.device.tlas.as_ref().map(|t| t.size_bytes()).unwrap_or(0);
        let profile = WorkloadProfile::from_stats(
            report.gpu.issued_insts,
            &report.runtime,
            footprint,
            config.gpu.num_sms as u32,
        );
        points.push((
            w.name.to_string(),
            report.gpu.cycles as f64,
            hw.estimate_cycles(&profile),
        ));
    }
    let xs: Vec<f64> = points.iter().map(|p| p.1).collect();
    let ys: Vec<f64> = points.iter().map(|p| p.2).collect();
    Correlation {
        correlation: pearson(&xs, &ys).unwrap_or(0.0),
        slope: least_squares_slope(&xs, &ys).unwrap_or(0.0),
        points,
    }
}

/// Fig. 19: the three tuning steps of the correlation study — (a) matched
/// parameters with 4 RT-unit warps, (b) higher latencies with 2 warps,
/// (c) 1 warp (the paper's best fit, slope 0.88).
pub fn fig19_configs() -> Vec<(&'static str, SimConfig)> {
    let a = SimConfig::baseline().with_rt_max_warps(4);
    let mut b = SimConfig::baseline().with_rt_max_warps(2);
    b.gpu.l1.hit_latency = 32;
    b.gpu.mem.l2.hit_latency = 210;
    let mut c = SimConfig::baseline().with_rt_max_warps(1);
    c.gpu.l1.hit_latency = 32;
    c.gpu.mem.l2.hit_latency = 210;
    vec![
        ("a: matched, 4 warps", a),
        ("b: latencies, 2 warps", b),
        ("c: 1 warp", c),
    ]
}

/// Fig. 12: roofline points for all workloads plus the roofs.
pub fn fig12_roofline(scale: Scale, config: &SimConfig) -> Vec<(String, f64, f64, bool)> {
    let roof = rt_roofline(&config.gpu.rt_unit);
    run_all(scale, config)
        .into_iter()
        .map(|r| {
            let p = roofline_point(&r.report.gpu);
            (
                r.name.to_string(),
                p.operational_intensity,
                p.performance,
                roof.is_memory_bound(&p),
            )
        })
        .collect()
}

/// Fig. 13: RT-unit warp-latency histogram for EXT.
pub fn fig13_warp_latency(scale: Scale) -> Vec<(f64, u64)> {
    let (_, report) = run_workload(WorkloadKind::Ext, scale, SimConfig::test_small());
    report.gpu.rt_warp_latency.iter().collect()
}

/// Fig. 14: L1D and L2 access breakdowns per workload.
pub fn fig14_cache_breakdown(scale: Scale) -> Vec<(String, CacheBreakdown, CacheBreakdown)> {
    run_all(scale, &SimConfig::test_small())
        .into_iter()
        .map(|r| {
            (
                r.name.to_string(),
                CacheBreakdown::from_counters(&r.report.gpu.l1_stats),
                CacheBreakdown::from_counters(&r.report.gpu.l2_stats),
            )
        })
        .collect()
}

/// Fig. 15: execution time under the four memory configurations,
/// normalized to baseline.
pub fn fig15_memory_modes(scale: Scale) -> Vec<(String, Vec<(&'static str, f64)>)> {
    let modes = [
        ("baseline", MemoryMode::Baseline),
        ("rt-cache", MemoryMode::RtCache),
        ("perfect-bvh", MemoryMode::PerfectBvh),
        ("perfect-mem", MemoryMode::PerfectMem),
    ];
    WorkloadKind::ALL
        .iter()
        .map(|&k| {
            let w = build(k, scale);
            let base = Simulator::new(SimConfig::test_small())
                .run(&w.device, &w.cmd)
                .expect("healthy run")
                .gpu
                .cycles as f64;
            let series = modes
                .iter()
                .map(|&(name, mode)| {
                    let c = Simulator::new(SimConfig::test_small().with_memory_mode(mode))
                        .run(&w.device, &w.cmd)
                        .expect("healthy run")
                        .gpu
                        .cycles as f64;
                    (name, c / base)
                })
                .collect();
            (w.name.to_string(), series)
        })
        .collect()
}

/// Fig. 16: DRAM efficiency and utilization versus the RT unit's maximum
/// concurrent warps.
pub fn fig16_dram_sweep(
    kind: WorkloadKind,
    scale: Scale,
    warp_limits: &[usize],
) -> Vec<(usize, f64, f64)> {
    let w = build(kind, scale);
    warp_limits
        .iter()
        .map(|&n| {
            let r = Simulator::new(SimConfig::test_small().with_rt_max_warps(n))
                .run(&w.device, &w.cmd)
                .expect("healthy run");
            (n, r.gpu.dram_efficiency, r.gpu.dram_utilization)
        })
        .collect()
}

/// Fig. 17 (left): FCC vs baseline on RTV6 — speedup and SIMT efficiency.
pub fn fig17_fcc(scale: Scale) -> (f64, f64, f64) {
    let mut w = build(WorkloadKind::Rtv6, scale);
    let base_cmd = w.with_fcc(false);
    let fcc_cmd = w.with_fcc(true);
    let config = SimConfig::mobile(); // the paper evaluates FCC on mobile
    let base = Simulator::new(config.clone())
        .run(&w.device, &base_cmd)
        .expect("healthy run");
    let fcc = Simulator::new(config)
        .run(&w.device, &fcc_cmd)
        .expect("healthy run");
    let speedup = base.gpu.cycles as f64 / fcc.gpu.cycles as f64;
    (speedup, base.gpu.simt_efficiency, fcc.gpu.simt_efficiency)
}

/// Fig. 17 (right): ITS vs stack reconvergence — speedup per workload.
pub fn fig17_its(scale: Scale) -> Vec<(String, f64)> {
    WorkloadKind::ALL
        .iter()
        .map(|&k| {
            let w = build(k, scale);
            let stack = Simulator::new(SimConfig::test_small())
                .run(&w.device, &w.cmd)
                .expect("healthy run");
            let its = Simulator::new(SimConfig::test_small().with_its(true))
                .run(&w.device, &w.cmd)
                .expect("healthy run");
            (
                w.name.to_string(),
                stack.gpu.cycles as f64 / its.gpu.cycles as f64,
            )
        })
        .collect()
}

/// One RT-unit occupancy timeline: `(sample cycle, resident warps)` points.
pub type OccupancyTimeline = Vec<(u64, u32)>;

/// Fig. 18: RT-unit occupancy timelines (resident warps per sample) for
/// stack vs ITS on EXT.
pub fn fig18_occupancy(scale: Scale) -> (OccupancyTimeline, OccupancyTimeline) {
    let w = build(WorkloadKind::Ext, scale);
    let collect = |r: &RunReport| -> Vec<(u64, u32)> {
        r.gpu
            .rt_occupancy
            .first()
            .map(|t| t.iter().map(|&(c, w, _)| (c, w)).collect())
            .unwrap_or_default()
    };
    let stack = Simulator::new(SimConfig::test_small())
        .run(&w.device, &w.cmd)
        .expect("healthy run");
    let its = Simulator::new(SimConfig::test_small().with_its(true))
        .run(&w.device, &w.cmd)
        .expect("healthy run");
    (collect(&stack), collect(&its))
}

/// §VI-D: energy breakdown per workload.
pub fn energy_rows(scale: Scale) -> Vec<(String, Vec<(&'static str, f64)>)> {
    run_all(scale, &SimConfig::test_small())
        .into_iter()
        .map(|r| {
            let comps = r
                .report
                .power
                .components
                .iter()
                .map(|&(n, e)| (n, e / r.report.power.total_energy_j.max(1e-30)))
                .collect();
            (r.name.to_string(), comps)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tab04_has_five_rows_in_paper_order() {
        let rows = tab04_workloads(Scale::Test);
        let names: Vec<&str> = rows.iter().map(|r| r.name).collect();
        assert_eq!(names, vec!["TRI", "REF", "EXT", "RTV5", "RTV6"]);
        for r in &rows {
            assert!(r.avg_nodes_per_ray > 0.0, "{}", r.name);
        }
        // TRI is the smallest scene; EXT visits the most nodes per ray
        // among the triangle scenes (matches the Table IV shape).
        let tri = &rows[0];
        let ext = &rows[2];
        assert!(ext.avg_nodes_per_ray > tri.avg_nodes_per_ray);
        assert!(ext.primitive_count > tri.primitive_count);
    }

    #[test]
    fn fig02_diffs_are_small() {
        for (name, diff) in fig02_pixel_diff(Scale::Test) {
            assert!(diff < 0.02, "{name}: {diff}");
        }
    }

    #[test]
    fn fig16_sweep_returns_requested_points() {
        let pts = fig16_dram_sweep(WorkloadKind::Tri, Scale::Test, &[1, 4, 8]);
        assert_eq!(pts.len(), 3);
        for (n, eff, util) in pts {
            assert!(n >= 1);
            assert!((0.0..=1.0).contains(&eff));
            assert!((0.0..=1.0).contains(&util));
        }
    }

    #[test]
    fn fig19_has_three_configs_with_decreasing_rt_warps() {
        let cfgs = fig19_configs();
        assert_eq!(cfgs.len(), 3);
        let warps: Vec<usize> = cfgs.iter().map(|(_, c)| c.gpu.rt_unit.max_warps).collect();
        assert_eq!(warps, vec![4, 2, 1]);
    }
}
