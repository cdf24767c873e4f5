//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (see DESIGN.md's per-experiment index).
//!
//! Each `fig_*` / `tab_*` function asks one [`Runs`] table for its
//! simulations and returns the printable rows/series the paper reports;
//! figures that share a (scene, command, machine) point share its run.
//! The `experiments` binary (`src/bin/experiments.rs`) makes one table
//! per invocation and prints. Host speed is measured by the repo
//! benchmark (`benchmark/`), not here.

use std::collections::HashMap;
use vksim_core::hwproxy::{HwProxy, WorkloadProfile};
use vksim_core::report::{
    instruction_mix, roofline_point, rt_roofline, rt_time_fraction, CacheBreakdown,
};
use vksim_core::validate::{pixel_diff_fraction, read_framebuffer};
use vksim_core::{config_fingerprint, MemoryMode, RunReport, RuntimeStats, SimConfig, Simulator};
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

/// The evaluation's run table: the scenes of one scale, each built on
/// first use, and every simulation the figures ask for, each run once.
///
/// A timing point is keyed on the kind and the [`config_fingerprint`] of
/// the resolved configuration (with the `VKSIM_*` overrides a run
/// applies), scene and command; the kind is in the key because the
/// fingerprint hashes only the scene's BLAS and instance counts. Stored
/// reports drop [`RunReport::memory`], which no figure reads. A
/// functional run reads no configuration, so there is one per kind: its
/// statistics and framebuffer.
pub struct Runs {
    scale: Scale,
    scenes: HashMap<WorkloadKind, Workload>,
    timing: HashMap<(WorkloadKind, u64), RunReport>,
    functional: HashMap<WorkloadKind, (RuntimeStats, Vec<u32>)>,
}

impl Runs {
    /// An empty table for scenes of `scale`.
    pub fn new(scale: Scale) -> Self {
        Runs {
            scale,
            scenes: HashMap::new(),
            timing: HashMap::new(),
            functional: HashMap::new(),
        }
    }

    /// The scene scale.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The scene of `kind`.
    pub fn scene(&mut self, kind: WorkloadKind) -> &Workload {
        let scale = self.scale;
        self.scenes
            .entry(kind)
            .or_insert_with(|| build(kind, scale))
    }

    /// The timing report of `kind`'s own command under `config`.
    pub fn timing(&mut self, kind: WorkloadKind, config: &SimConfig) -> &RunReport {
        self.timing_with(kind, config, false)
    }

    /// The timing report of `kind`'s command, re-lowered with FCC when
    /// `fcc` is set, under `config`.
    pub fn timing_with(&mut self, kind: WorkloadKind, config: &SimConfig, fcc: bool) -> &RunReport {
        self.scene(kind);
        let w = self.scenes.get_mut(&kind).expect("scene built above");
        let cmd = if fcc { w.with_fcc(true) } else { w.cmd.clone() };
        let gpu = config.resolve().with_env_overrides();
        let key = (kind, config_fingerprint(&gpu, &w.device, &cmd));
        self.timing.entry(key).or_insert_with(|| {
            let mut report = Simulator::new(config.clone())
                .run(&w.device, &cmd)
                .expect("healthy run");
            report.memory = Default::default();
            report
        })
    }

    /// The functional-tier statistics and framebuffer of `kind`'s own
    /// command.
    pub fn functional(&mut self, kind: WorkloadKind) -> &(RuntimeStats, Vec<u32>) {
        self.scene(kind);
        let w = &self.scenes[&kind];
        self.functional.entry(kind).or_insert_with(|| {
            let (mem, stats) = Simulator::new(SimConfig::test_small())
                .run_functional(&w.device, &w.cmd)
                .expect("healthy run");
            let pixels = (w.width * w.height) as usize;
            (stats, read_framebuffer(&mem, w.fb_addr, pixels))
        })
    }

    /// The distinct timing and functional runs made so far.
    pub fn counts(&self) -> (usize, usize) {
        (self.timing.len(), self.functional.len())
    }
}

/// Each workload's name and `f` of its report under `config`, in paper
/// order.
fn each<T>(runs: &mut Runs, config: &SimConfig, f: impl Fn(&RunReport) -> T) -> Vec<(String, T)> {
    WorkloadKind::ALL
        .iter()
        .map(|&k| (k.name().to_string(), f(runs.timing(k, config))))
        .collect()
}

/// Runs each workload with cycle accounting enabled and returns its
/// human-readable stall summary (the `--prof-summary` report: top stall
/// category, SIMT efficiency, achieved vs peak IPC, occupancy).
pub fn prof_summary_rows(runs: &mut Runs) -> Vec<(String, String)> {
    let config = config_for_scale(runs.scale()).with_accounting(true);
    each(runs, &config, |r| {
        let prof = r.prof.as_ref().expect("accounting enabled");
        debug_assert!(prof.conservation_holds());
        prof.summary()
    })
}

/// Runs each workload with ray-traversal analytics enabled and returns
/// its human-readable characterization (the `--rt-summary` report: rays
/// traced, per-ray traversal work, heatmap concentration, warp
/// coherence, RT-unit attribution).
pub fn rt_summary_rows(runs: &mut Runs) -> Vec<(String, String)> {
    let config = config_for_scale(runs.scale()).with_rt_analytics(true);
    each(runs, &config, |r| {
        let rt = r.rt.as_ref().expect("rt analytics enabled");
        debug_assert!(rt.conservation_holds());
        rt.summary()
    })
}

/// Fig. 1 substitute: per-workload ray-tracing share of execution (the
/// paper profiles RTX games and finds 28% of frame time on average).
pub fn fig01_frame_breakdown(runs: &mut Runs) -> Vec<(String, f64)> {
    let config = SimConfig::test_small();
    let num_sms = config.gpu.num_sms;
    each(runs, &config, |r| rt_time_fraction(&r.gpu, num_sms))
}

/// Fig. 2: pixel-diff percentage between the simulator's image and the
/// reference renderer, per validated workload.
pub fn fig02_pixel_diff(runs: &mut Runs) -> Vec<(String, f64)> {
    [WorkloadKind::Tri, WorkloadKind::Ref, WorkloadKind::Ext]
        .iter()
        .map(|&k| {
            let reference = reference::render(runs.scene(k));
            let img = &runs.functional(k).1;
            let diff = pixel_diff_fraction(img, &reference, 1).expect("same dimensions");
            (k.name().to_string(), diff)
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
pub fn tab04_workloads(runs: &mut Runs) -> Vec<Tab04Row> {
    WorkloadKind::ALL
        .iter()
        .map(|&k| {
            let avg_nodes_per_ray = runs.functional(k).0.avg_nodes_per_ray();
            let w = runs.scene(k);
            Tab04Row {
                name: w.name,
                bvh_depth: w.bvh_depth,
                avg_nodes_per_ray,
                primitive_count: w.primitive_count,
            }
        })
        .collect()
}

/// §VI intro: instruction-mix percentages per workload.
pub fn instruction_mix_rows(runs: &mut Runs) -> Vec<(String, vksim_core::report::InstructionMix)> {
    each(runs, &SimConfig::test_small(), |r| instruction_mix(&r.gpu))
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
pub fn correlation_study(runs: &mut Runs, config: &SimConfig) -> Correlation {
    let hw = HwProxy::default();
    let points: Vec<(String, f64, f64)> = WorkloadKind::ALL
        .iter()
        .map(|&k| {
            let device = &runs.scene(k).device;
            let footprint: u64 = device.blases.iter().map(|b| b.size_bytes()).sum::<u64>()
                + device.tlas.as_ref().map(|t| t.size_bytes()).unwrap_or(0);
            let report = runs.timing(k, config);
            let profile = WorkloadProfile::from_stats(
                report.gpu.issued_insts,
                &report.runtime,
                footprint,
                config.gpu.num_sms as u32,
            );
            (
                k.name().to_string(),
                report.gpu.cycles as f64,
                hw.estimate_cycles(&profile),
            )
        })
        .collect();
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
/// (c) 1 warp (the paper's best fit, slope 0.88). At Test scale the
/// machine shrinks to 4 SMs to keep run time sane.
pub fn fig19_configs(scale: Scale) -> Vec<(&'static str, SimConfig)> {
    let config = |warps, slow: bool| {
        let mut c = SimConfig::baseline().with_rt_max_warps(warps);
        if slow {
            c.gpu.l1.hit_latency = 32;
            c.gpu.mem.l2.hit_latency = 210;
        }
        if scale == Scale::Test {
            c.gpu.num_sms = 4;
        }
        c
    };
    vec![
        ("a: matched, 4 warps", config(4, false)),
        ("b: latencies, 2 warps", config(2, true)),
        ("c: 1 warp", config(1, true)),
    ]
}

/// Fig. 12: roofline points for all workloads plus the roofs.
pub fn fig12_roofline(runs: &mut Runs, config: &SimConfig) -> Vec<(String, (f64, f64, bool))> {
    let roof = rt_roofline(&config.gpu.rt_unit);
    each(runs, config, |r| {
        let p = roofline_point(&r.gpu);
        (
            p.operational_intensity,
            p.performance,
            roof.is_memory_bound(&p),
        )
    })
}

/// Fig. 13: RT-unit warp-latency histogram for EXT.
pub fn fig13_warp_latency(runs: &mut Runs) -> Vec<(f64, u64)> {
    let report = runs.timing(WorkloadKind::Ext, &SimConfig::test_small());
    report.gpu.rt_warp_latency.iter().collect()
}

/// Fig. 14: L1D and L2 access breakdowns per workload.
pub fn fig14_cache_breakdown(runs: &mut Runs) -> Vec<(String, [CacheBreakdown; 2])> {
    each(runs, &SimConfig::test_small(), |r| {
        [&r.gpu.l1_stats, &r.gpu.l2_stats].map(CacheBreakdown::from_counters)
    })
}

/// Fig. 15: execution time under the four memory configurations,
/// normalized to baseline.
pub fn fig15_memory_modes(runs: &mut Runs) -> Vec<(String, [(&'static str, f64); 4])> {
    let modes = [
        ("baseline", MemoryMode::Baseline),
        ("rt-cache", MemoryMode::RtCache),
        ("perfect-bvh", MemoryMode::PerfectBvh),
        ("perfect-mem", MemoryMode::PerfectMem),
    ];
    WorkloadKind::ALL
        .iter()
        .map(|&k| {
            let mut cycles = |mode| {
                let config = SimConfig::test_small().with_memory_mode(mode);
                runs.timing(k, &config).gpu.cycles as f64
            };
            let base = cycles(MemoryMode::Baseline);
            let series = modes.map(|(name, mode)| (name, cycles(mode) / base));
            (k.name().to_string(), series)
        })
        .collect()
}

/// Fig. 16: DRAM efficiency and utilization versus the RT unit's maximum
/// concurrent warps.
pub fn fig16_dram_sweep(
    runs: &mut Runs,
    kind: WorkloadKind,
    warp_limits: &[usize],
) -> Vec<(usize, f64, f64)> {
    warp_limits
        .iter()
        .map(|&n| {
            let r = runs.timing(kind, &SimConfig::test_small().with_rt_max_warps(n));
            (n, r.gpu.dram_efficiency, r.gpu.dram_utilization)
        })
        .collect()
}

/// Fig. 17 (left): FCC vs baseline on RTV6 — speedup and SIMT efficiency.
pub fn fig17_fcc(runs: &mut Runs) -> (f64, f64, f64) {
    let config = SimConfig::mobile(); // the paper evaluates FCC on mobile
    let base = &runs.timing(WorkloadKind::Rtv6, &config).gpu;
    let (base_cycles, base_eff) = (base.cycles as f64, base.simt_efficiency);
    let fcc = &runs.timing_with(WorkloadKind::Rtv6, &config, true).gpu;
    let speedup = base_cycles / fcc.cycles as f64;
    (speedup, base_eff, fcc.simt_efficiency)
}

/// Fig. 17 (right): ITS vs stack reconvergence — speedup per workload.
pub fn fig17_its(runs: &mut Runs) -> Vec<(String, f64)> {
    let cycles = |r: &RunReport| r.gpu.cycles as f64;
    let stack = each(runs, &SimConfig::test_small(), cycles);
    let its = each(runs, &SimConfig::test_small().with_its(true), cycles);
    let speedup = |((name, s), (_, i))| (name, s / i);
    stack.into_iter().zip(its).map(speedup).collect()
}

/// Fig. 18: RT-unit occupancy timelines, `(sample cycle, resident warps)`
/// points, for stack vs ITS on EXT.
pub fn fig18_occupancy(runs: &mut Runs) -> [Vec<(u64, u32)>; 2] {
    [
        SimConfig::test_small(),
        SimConfig::test_small().with_its(true),
    ]
    .map(|config| {
        let occupancy = &runs.timing(WorkloadKind::Ext, &config).gpu.rt_occupancy;
        let first = occupancy.first();
        first
            .map(|t| t.iter().map(|&(c, w, _)| (c, w)).collect())
            .unwrap_or_default()
    })
}

/// §VI-D: energy breakdown per workload.
pub fn energy_rows(runs: &mut Runs) -> Vec<(String, Vec<(&'static str, f64)>)> {
    each(runs, &SimConfig::test_small(), |r| {
        let total = r.power.total_energy_j.max(1e-30);
        r.power
            .components
            .iter()
            .map(|&(n, e)| (n, e / total))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tab04_has_five_rows_in_paper_order() {
        let rows = tab04_workloads(&mut Runs::new(Scale::Test));
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
        for (name, diff) in fig02_pixel_diff(&mut Runs::new(Scale::Test)) {
            assert!(diff < 0.02, "{name}: {diff}");
        }
    }

    #[test]
    fn fig16_sweep_returns_requested_points() {
        let mut runs = Runs::new(Scale::Test);
        let pts = fig16_dram_sweep(&mut runs, WorkloadKind::Tri, &[1, 4, 8]);
        assert_eq!(pts.len(), 3);
        for (n, eff, util) in pts {
            assert!(n >= 1);
            assert!((0.0..=1.0).contains(&eff));
            assert!((0.0..=1.0).contains(&util));
        }
    }

    #[test]
    fn fig19_has_three_configs_with_decreasing_rt_warps() {
        let cfgs = fig19_configs(Scale::Small);
        assert_eq!(cfgs.len(), 3);
        let warps: Vec<usize> = cfgs.iter().map(|(_, c)| c.gpu.rt_unit.max_warps).collect();
        assert_eq!(warps, vec![4, 2, 1]);
        let baseline_sms = SimConfig::baseline().gpu.num_sms;
        assert!(cfgs.iter().all(|(_, c)| c.gpu.num_sms == baseline_sms));
        // Test scale keeps each configuration but on a 4-SM machine.
        assert!(fig19_configs(Scale::Test)
            .iter()
            .all(|(_, c)| c.gpu.num_sms == 4));
    }

    #[test]
    fn figures_sharing_points_share_runs() {
        let mut runs = Runs::new(Scale::Test);
        fig01_frame_breakdown(&mut runs);
        instruction_mix_rows(&mut runs);
        fig13_warp_latency(&mut runs);
        energy_rows(&mut runs);
        // One run per figure per workload would be 5 + 5 + 1 + 5 = 16;
        // all four read the mule's five baseline points.
        assert_eq!(runs.counts(), (5, 0));
    }

    #[test]
    fn kinds_and_commands_are_separate_points() {
        let mut runs = Runs::new(Scale::Test);
        let config = SimConfig::test_small();
        let tri = runs.timing(WorkloadKind::Tri, &config).gpu.cycles;
        let rf = runs.timing(WorkloadKind::Ref, &config).gpu.cycles;
        assert_ne!(tri, rf);
        assert_eq!(runs.counts(), (2, 0));
        // FCC re-lowers RTV6's command: same scene and machine, new point.
        runs.timing(WorkloadKind::Rtv6, &config);
        runs.timing_with(WorkloadKind::Rtv6, &config, true);
        assert_eq!(runs.counts(), (4, 0));
        // The stored report keeps its counters but not its memory image.
        let again = runs.timing(WorkloadKind::Tri, &config);
        assert_eq!(again.gpu.cycles, tri);
        assert_eq!(again.memory.resident_pages(), 0);
        assert_eq!(runs.counts(), (4, 0));
    }

    #[test]
    fn tab04_and_fig02_share_the_functional_runs() {
        let mut runs = Runs::new(Scale::Test);
        tab04_workloads(&mut runs);
        fig02_pixel_diff(&mut runs);
        assert_eq!(runs.counts(), (0, 5));
    }
}
