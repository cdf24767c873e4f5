//! Kernel execution: cycle-accurate and functional modes.

use crate::checkpoint;
use crate::config::SimConfig;
use crate::runtime::{RtRuntime, RuntimeStats};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use vksim_fault::SimError;
use vksim_gpu::{GpuConfig, GpuFault, GpuSim, GpuStats, LaunchDims, RunOutcome};
use vksim_isa::interp::{run_to_exit, ExecError, ThreadState};
use vksim_isa::SimMemory;
use vksim_power::{ActivityCounts, PowerModel, PowerReport};
use vksim_snapshot::Snapshot;
use vksim_trace::{
    chrome_trace_json, hotspot_summary, interval_csv, ProfReport, RtReport, TraceReport,
};
use vksim_vulkan::{Device, TraceRaysCommand};

/// Everything a simulated `vkCmdTraceRaysKHR` produced.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Timing-model statistics.
    pub gpu: GpuStats,
    /// Functional-traversal statistics.
    pub runtime: RuntimeStats,
    /// Power/energy estimate.
    pub power: PowerReport,
    /// Final functional memory (framebuffers, output buffers).
    pub memory: SimMemory,
    /// The cycle-level trace, when tracing was enabled (any exporter files
    /// requested in the config have already been written).
    pub trace: Option<TraceReport>,
    /// The cycle-accounting breakdown, when accounting was enabled
    /// (`VKSIM_PROF` / [`vksim_trace::TraceConfig::accounting`]; the flat
    /// JSON export, if requested, has already been written).
    pub prof: Option<ProfReport>,
    /// The ray-traversal analytics report, when RT analytics was enabled
    /// (`VKSIM_RT_ANALYTICS` /
    /// [`vksim_trace::TraceConfig::rt_analytics`]; the flat JSON and
    /// heatmap CSV exports, if requested, have already been written).
    pub rt: Option<RtReport>,
}

/// A classified simulation failure.
///
/// Carries the structured [`SimError`], the path of the post-mortem dump
/// (when one was written), and — for timing-model faults — the partial
/// [`RunReport`] accumulated up to the failing cycle, so callers can
/// inspect counters, power and memory state post mortem.
#[derive(Debug)]
pub struct SimFailure {
    /// What went wrong, classified.
    pub error: SimError,
    /// Post-mortem dump file (flat JSON), if one could be written.
    pub dump: Option<PathBuf>,
    /// Final machine snapshot written beside the post-mortem dump, if one
    /// could be captured — the complete state at the failing cycle, for
    /// offline inspection or a recovery attempt.
    pub snapshot: Option<PathBuf>,
    /// Statistics and memory state up to the fault. `None` only for
    /// functional-mode failures, which have no timing state to report.
    pub report: Option<RunReport>,
}

impl std::fmt::Display for SimFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.dump {
            Some(path) => write!(f, "{} (post-mortem dump: {})", self.error, path.display()),
            None => write!(f, "{}", self.error),
        }
    }
}

impl std::error::Error for SimFailure {}

/// The simulator facade: executes recorded trace commands against a scene
/// device.
pub struct Simulator {
    config: SimConfig,
}

impl Simulator {
    /// Creates a simulator with the given configuration.
    pub fn new(config: SimConfig) -> Self {
        Simulator { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Cycle-level run (paper §III-C): functional execution drives the
    /// timing model; returns full statistics.
    ///
    /// # Errors
    ///
    /// Returns a classified [`SimFailure`] — carrying the partial
    /// [`RunReport`] and a post-mortem dump path — when the simulation
    /// faults: a shader execution error, the cycle bound, a watchdog-
    /// detected hang, or a contained worker panic.
    pub fn run(
        &mut self,
        device: &Device,
        cmd: &TraceRaysCommand,
    ) -> Result<RunReport, Box<SimFailure>> {
        self.run_inner(device, cmd, None)
    }

    /// Resumes a killed or faulted cycle-level run from a checkpoint file
    /// written by a previous [`Simulator::run`] under
    /// `VKSIM_CHECKPOINT_EVERY` / [`SimConfig::with_checkpoint`].
    ///
    /// The device and command must be the ones the checkpointed run was
    /// started with; the configuration must match architecturally
    /// (watchdog, cycle bound and fault plan may differ — a resumed chaos
    /// run does not re-inject the worker panic that killed it). The resumed
    /// run continues from the checkpoint cycle and produces byte-identical
    /// counters, goldens and traces to an uninterrupted run.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SnapshotMismatch`] when the file is unreadable,
    /// corrupt, or fingerprinted for a different configuration, command
    /// or scene; otherwise fails exactly as [`Simulator::run`] does.
    pub fn resume(
        &mut self,
        device: &Device,
        cmd: &TraceRaysCommand,
        snapshot: &Path,
    ) -> Result<RunReport, Box<SimFailure>> {
        self.run_inner(device, cmd, Some(snapshot))
    }

    fn run_inner(
        &mut self,
        device: &Device,
        cmd: &TraceRaysCommand,
        resume_from: Option<&Path>,
    ) -> Result<RunReport, Box<SimFailure>> {
        // The one place a run reads the environment.
        let mut gpu_config = self.config.resolve().with_env_overrides();
        if let Err(e) = crate::validate::validate_config(&gpu_config) {
            return Err(config_failure(e));
        }
        let fingerprint = checkpoint::config_fingerprint(&gpu_config, device, cmd);
        let resume_payload = match resume_from {
            Some(path) => match Snapshot::read(path) {
                Ok(snap) if snap.fingerprint != fingerprint => {
                    return Err(snapshot_failure(format!(
                        "snapshot {} was taken under fingerprint {:016x}, this \
                         configuration/command fingerprints as {fingerprint:016x}",
                        path.display(),
                        snap.fingerprint
                    )))
                }
                Ok(snap) => {
                    // The panic that killed the original run must not fire
                    // again on the recovery attempt.
                    gpu_config.fault_plan.worker_panic = None;
                    Some(snap.payload)
                }
                Err(e) => {
                    return Err(snapshot_failure(format!(
                        "cannot read snapshot {}: {e}",
                        path.display()
                    )))
                }
            },
            None => None,
        };
        let every = gpu_config.checkpoint_every;
        let keep = gpu_config.checkpoint_keep;
        let ckpt_dir = gpu_config.checkpoint_dir.clone();
        let (mut gpu, mut runtime) = self.launch(gpu_config, device, cmd);
        if let Some(payload) = resume_payload {
            if let Err(e) = checkpoint::restore_machine(&mut gpu, &mut runtime, &payload) {
                return Err(snapshot_failure(format!(
                    "snapshot does not match this run: {e}"
                )));
            }
        }
        // Run in checkpoint-bounded slices. With checkpointing off (the
        // default) this is a single unbounded slice — exactly the
        // historical run path.
        let outcome = loop {
            let res = if every == 0 {
                gpu.run(&mut runtime)
                    .map(|stats| RunOutcome::Done(Box::new(stats)))
            } else {
                // Next checkpoint boundary strictly after the current cycle.
                let stop = (gpu.cycles() + 1).next_multiple_of(every);
                gpu.run_until(&mut runtime, stop)
            };
            match res {
                Ok(RunOutcome::Done(stats)) => break Ok(*stats),
                Ok(RunOutcome::Paused) => {
                    let dir = ckpt_dir.clone().unwrap_or_else(|| ".".into());
                    let path = Path::new(&dir).join(format!("ckpt-{}.vksnap", gpu.cycles()));
                    let snap =
                        Snapshot::new(fingerprint, checkpoint::machine_payload(&gpu, &runtime));
                    // Checkpoint failures are warnings: a healthy run never
                    // dies because a checkpoint could not be written.
                    if let Err(e) = snap.write_atomic(&path) {
                        eprintln!("vksim: failed to write checkpoint {}: {e}", path.display());
                    } else {
                        prune_checkpoints(Path::new(&dir), keep);
                    }
                }
                Err(fault) => break Err(fault),
            }
        };
        // On a fault, capture the final machine state beside the
        // post-mortem dump before anything is torn down.
        let fault_snapshot = match &outcome {
            Err(fault) => write_final_snapshot(&gpu, &runtime, fingerprint, fault.dump.as_deref()),
            Ok(_) => None,
        };
        let memory = std::mem::take(&mut gpu.mem);
        // Trace export happens on healthy AND faulted runs: a trace that
        // ends at the fault is exactly what post-mortem analysis wants.
        let trace = gpu.take_trace_report();
        if let Some(t) = &trace {
            export_trace(t);
        }
        // Profile export too: a faulted run's partial breakdown is exactly
        // what post-mortem analysis wants (conservation only holds for
        // healthy runs; a faulting tick can die before it attributes its
        // cycle).
        let prof = gpu.prof_report();
        if let (Some(p), Some(path)) = (&prof, &gpu.config().trace.prof) {
            write_export(path, "profile", p.flat_json());
        }
        // RT analytics likewise export on both paths; a faulted run's
        // partial heatmap is still a valid characterization of the rays
        // that completed.
        let rt = rt_report(&gpu, &runtime);
        if let Some(r) = &rt {
            let tcfg = &gpu.config().trace;
            if let Some(path) = &tcfg.rt {
                write_export(path, "rt analytics", r.flat_json());
            }
            if let Some(path) = &tcfg.rt_heatmap {
                write_export(path, "rt heatmap", r.heatmap_csv());
            }
        }
        match outcome {
            Ok(stats) => {
                // Conservation only holds on healthy runs: fault paths can
                // stop mid-traversal with scripts half-consumed.
                if let Some(r) = &rt {
                    assert!(
                        r.conservation_holds(),
                        "rt analytics conservation violated on a healthy run: \
                         heatmap visits {} vs per-ray nodes {}, per-ray box \
                         tests {} vs rt-unit box ops {}",
                        r.traversal.visit_total(),
                        r.traversal.histograms()[0].1.sum(),
                        r.traversal.histograms()[1].1.sum(),
                        r.rt_box_ops,
                    );
                }
                let power = power_from_stats(&stats);
                Ok(RunReport {
                    gpu: stats,
                    runtime: runtime.stats,
                    power,
                    memory,
                    trace,
                    prof,
                    rt,
                })
            }
            Err(fault) => {
                let GpuFault { error, stats, dump } = *fault;
                let power = power_from_stats(&stats);
                let report = RunReport {
                    gpu: stats,
                    runtime: runtime.stats,
                    power,
                    memory,
                    trace,
                    prof,
                    rt,
                };
                Err(Box::new(SimFailure {
                    error,
                    dump,
                    snapshot: fault_snapshot,
                    report: Some(report),
                }))
            }
        }
    }

    /// A machine with `cmd` launched, and the runtime every SM ticks
    /// against.
    fn launch(
        &self,
        config: GpuConfig,
        device: &Device,
        cmd: &TraceRaysCommand,
    ) -> (GpuSim, RtRuntime) {
        let rt_analytics_on = config.trace.rt_analytics;
        let mut gpu = GpuSim::new(config);
        gpu.mem = device.memory.clone();
        gpu.launch(
            cmd.program.clone(),
            LaunchDims {
                width: cmd.dims.width,
                height: cmd.dims.height,
                depth: cmd.dims.depth,
            },
        );
        let mut runtime = self.make_runtime(device, cmd);
        if rt_analytics_on {
            runtime.enable_analytics();
        }
        (gpu, runtime)
    }

    /// Functional-only run: executes every thread to completion without the
    /// timing model — used for image generation/validation (Fig. 2) and for
    /// workload characterization on large launches.
    ///
    /// # Errors
    ///
    /// Returns a classified [`SimFailure`] (with a post-mortem dump but no
    /// timing report) when a thread's program execution fails — a
    /// translator bug, a truncated program, or a corrupted acceleration
    /// structure.
    pub fn run_functional(
        &mut self,
        device: &Device,
        cmd: &TraceRaysCommand,
    ) -> Result<(SimMemory, RuntimeStats), Box<SimFailure>> {
        let mut runtime = self.make_runtime(device, cmd).without_scripts();
        let mut mem = device.memory.clone();
        let total = cmd.dims.width as usize * cmd.dims.height as usize * cmd.dims.depth as usize;
        let mut t =
            ThreadState::with_tid(cmd.program.num_regs(), cmd.program.num_preds().max(1), 0);
        for tid in 0..total {
            t.reset(tid);
            if let Err(e) = run_to_exit(&cmd.program, &mut t, &mut mem, &mut runtime) {
                return Err(functional_failure(tid, &e));
            }
        }
        Ok((mem, runtime.stats.clone()))
    }

    fn make_runtime(&self, device: &Device, cmd: &TraceRaysCommand) -> RtRuntime {
        let tlas = device.tlas.clone().unwrap_or_else(|| vksim_bvh::Tlas {
            bvh: Default::default(),
            instances: Vec::new(),
            base_addr: 0,
        });
        RtRuntime::new(
            tlas,
            Arc::clone(&device.blases),
            [cmd.dims.width, cmd.dims.height, cmd.dims.depth],
            cmd.fcc,
        )
    }
}

/// Writes one exporter output: `-` prints `text` to stderr, any other
/// path is written as a file. Export failures are warnings — a finished
/// simulation never fails because a report could not be written.
fn write_export(path: &str, what: &str, text: String) {
    if path == "-" {
        eprintln!("{text}");
    } else if let Err(e) = std::fs::write(path, text) {
        eprintln!("vksim: failed to write {what} {path}: {e}");
    }
}

/// Writes the exporter files requested by the trace configuration: Chrome
/// trace-event JSON (`out`), interval CSV (`csv`) and the hotspot summary
/// (`summary`).
fn export_trace(report: &TraceReport) {
    // The streaming exporter writes `out` incrementally during the run
    // and claims the file by setting `streamed`; only fall back to the
    // one-shot serialization when no stream ever reached the file.
    if let (Some(path), false) = (&report.config.out, report.streamed) {
        write_export(path, "trace file", chrome_trace_json(report));
    }
    if let Some(path) = &report.config.csv {
        write_export(path, "trace file", interval_csv(report));
    }
    if let Some(path) = &report.config.summary {
        write_export(path, "trace file", hotspot_summary(report, 10));
    }
}

/// Assembles the end-of-run [`RtReport`] when RT analytics was enabled:
/// traversal tallies come from the runtime, per-SM coherence and RT-unit
/// attribution from the machine. `None` whenever analytics was off.
fn rt_report(gpu: &GpuSim, runtime: &RtRuntime) -> Option<RtReport> {
    let (per_sm, rt_box_ops) = gpu.rt_report_parts()?;
    Some(RtReport {
        traversal: runtime.analytics()?.clone(),
        per_sm,
        rt_box_ops,
    })
}

/// Prunes all but the newest `keep` periodic `ckpt-*.vksnap` files in
/// `dir` after a successful checkpoint write; `keep == 0` retains
/// everything. Failures are warnings — retention must never kill a
/// healthy run.
fn prune_checkpoints(dir: &Path, keep: u64) {
    if keep == 0 {
        return;
    }
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!(
                "vksim: cannot scan checkpoint dir {} for pruning: {e}",
                dir.display()
            );
            return;
        }
    };
    let mut ckpts: Vec<(u64, PathBuf)> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter_map(|p| {
            let cycle = p
                .file_name()?
                .to_str()?
                .strip_prefix("ckpt-")?
                .strip_suffix(".vksnap")?
                .parse::<u64>()
                .ok()?;
            Some((cycle, p))
        })
        .collect();
    if ckpts.len() as u64 <= keep {
        return;
    }
    ckpts.sort_unstable_by_key(|&(cycle, _)| cycle);
    let cut = ckpts.len() - keep as usize;
    for (_, p) in &ckpts[..cut] {
        if let Err(e) = std::fs::remove_file(p) {
            eprintln!("vksim: failed to prune checkpoint {}: {e}", p.display());
        }
    }
}

/// Writes the final machine snapshot for a faulted run beside the
/// post-mortem dump (same stem, `.vksnap` extension). A run with no dump
/// writes no snapshot. Best-effort: returns `None` when there is no dump
/// or the write fails — a snapshot failure must never mask the original
/// fault.
fn write_final_snapshot(
    gpu: &GpuSim,
    runtime: &RtRuntime,
    fingerprint: u64,
    dump: Option<&Path>,
) -> Option<PathBuf> {
    let path = match dump {
        Some(p) => p.with_extension("vksnap"),
        None => return None,
    };
    let snap = Snapshot::new(fingerprint, checkpoint::machine_payload(gpu, runtime));
    match snap.write_atomic(&path) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!(
                "vksim: failed to write final snapshot {}: {e}",
                path.display()
            );
            None
        }
    }
}

/// Builds the `SimFailure` for an unusable snapshot: unreadable, corrupt,
/// or fingerprinted for a different configuration/command/scene. The run
/// never started.
fn snapshot_failure(detail: String) -> Box<SimFailure> {
    let error = SimError::SnapshotMismatch { detail };
    let mut snap = BTreeMap::new();
    snap.insert("fault.kind".to_string(), error.kind_code());
    let dump = vksim_fault::write_dump(&snap).ok();
    Box::new(SimFailure {
        error,
        dump,
        snapshot: None,
        report: None,
    })
}

/// Builds the `SimFailure` for a rejected configuration: the run never
/// started, so there is no timing report — just the classified error and
/// a minimal dump identifying the fault class.
fn config_failure(e: crate::validate::ConfigError) -> Box<SimFailure> {
    let error = SimError::InvalidConfig { detail: e.detail };
    let mut snap = BTreeMap::new();
    snap.insert("fault.kind".to_string(), error.kind_code());
    let dump = vksim_fault::write_dump(&snap).ok();
    Box::new(SimFailure {
        error,
        dump,
        snapshot: None,
        report: None,
    })
}

/// Builds the `SimFailure` for a functional-mode execution error, writing
/// a small post-mortem dump identifying the failing thread.
fn functional_failure(tid: usize, e: &ExecError) -> Box<SimFailure> {
    let pc = match e {
        ExecError::PcOutOfRange { pc } | ExecError::Rt { pc, .. } => *pc,
        ExecError::StepLimit => 0,
    };
    let error = SimError::Exec {
        sm: 0,
        warp: (tid / 32) as u32,
        lane: tid % 32,
        pc,
        detail: format!("thread {tid}: {e}"),
    };
    let mut snap = BTreeMap::new();
    snap.insert("fault.kind".to_string(), error.kind_code());
    snap.insert("fault.thread".to_string(), tid as u64);
    snap.insert("fault.pc".to_string(), u64::from(pc));
    let dump = vksim_fault::write_dump(&snap).ok();
    Box::new(SimFailure {
        error,
        dump,
        snapshot: None,
        report: None,
    })
}

/// Derives AccelWattch-style activity counts from GPU statistics.
pub fn power_from_stats(stats: &GpuStats) -> PowerReport {
    let counts = ActivityCounts {
        cycles: stats.cycles,
        alu_ops: stats.counters.get("inst.Alu") * 32,
        sfu_ops: stats.counters.get("inst.Sfu") * 32,
        cache_accesses: stats.l1_stats.sum_prefix("shader") + stats.l1_stats.sum_prefix("rt_unit"),
        dram_accesses: stats.dram_stats.get("req"),
        rt_ops: stats.rt_ops,
        regfile_accesses: 0,
    };
    PowerModel::default().estimate(&counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemoryMode;
    use vksim_bvh::geometry::{BlasGeometry, Triangle};
    use vksim_bvh::Instance;
    use vksim_math::{Mat4x3, Vec3};
    use vksim_shader::builder::ShaderBuilder;
    use vksim_shader::ir::{Builtin, ShaderKind};
    use vksim_shader::PipelineShaders;

    /// A minimal full pipeline: camera-less raygen fires a +z ray per
    /// pixel through a quad; closest-hit writes 1.0, miss writes 0.25.
    fn quad_workload(width: u32, height: u32) -> (Device, TraceRaysCommand, u64) {
        let mut device = Device::new();
        let fb = device.alloc_buffer(width as u64 * height as u64 * 4);
        device.bind_descriptor(0, fb);
        let blas = device.create_blas(BlasGeometry::triangles(vec![
            Triangle::new(
                Vec3::new(-0.5, -0.5, 0.0),
                Vec3::new(0.5, -0.5, 0.0),
                Vec3::new(0.5, 0.5, 0.0),
            ),
            Triangle::new(
                Vec3::new(-0.5, -0.5, 0.0),
                Vec3::new(0.5, 0.5, 0.0),
                Vec3::new(-0.5, 0.5, 0.0),
            ),
        ]));
        device.create_tlas(vec![Instance::new(blas, Mat4x3::IDENTITY)]);

        let mut rg = ShaderBuilder::new(ShaderKind::RayGen);
        let x = rg.var_f32(rg.launch_id(0).to_f32());
        let y = rg.var_f32(rg.launch_id(1).to_f32());
        let w = rg.var_f32(rg.launch_size(0).to_f32());
        let h = rg.var_f32(rg.launch_size(1).to_f32());
        // Map pixel to [-1, 1]^2 at z = -3, firing +z.
        let ox = rg.var_f32(rg.v(x) / rg.v(w) * rg.c_f32(2.0) - rg.c_f32(1.0));
        let oy = rg.var_f32(rg.v(y) / rg.v(h) * rg.c_f32(2.0) - rg.c_f32(1.0));
        rg.trace_ray(
            [rg.v(ox), rg.v(oy), rg.c_f32(-3.0)],
            [rg.c_f32(0.0), rg.c_f32(0.0), rg.c_f32(1.0)],
            rg.c_f32(0.001),
            rg.c_f32(1e30),
            rg.c_u32(0),
            0,
        );
        let px = rg.var_u32(rg.launch_id(1) * rg.launch_size(0) + rg.launch_id(0));
        let addr = rg.var_u32(rg.buffer_base(0) + rg.v(px) * rg.c_u32(4));
        rg.store(rg.v(addr), 0, rg.payload(0));

        let mut ch = ShaderBuilder::new(ShaderKind::ClosestHit);
        ch.set_payload_in(0, ch.c_f32(1.0));
        let mut ms = ShaderBuilder::new(ShaderKind::Miss);
        ms.set_payload_in(0, ms.c_f32(0.25));

        let shaders = PipelineShaders {
            raygen: rg.finish(),
            miss: vec![ms.finish()],
            closest_hit: vec![ch.finish()],
            intersection: vec![],
            any_hit: vec![],
            max_recursion_depth: 1,
        };
        let pipeline = device.create_ray_tracing_pipeline(shaders, false).unwrap();
        let cmd = device.cmd_trace_rays(&pipeline, width, height);
        (device, cmd, fb)
    }

    fn center_pixel(mem: &SimMemory, fb: u64, w: u32, h: u32) -> f32 {
        mem.read_f32(fb + ((h / 2) * w + w / 2) as u64 * 4)
    }

    #[test]
    fn functional_run_renders_hit_and_miss() {
        let (device, cmd, fb) = quad_workload(16, 16);
        let mut sim = Simulator::new(SimConfig::test_small());
        let (mem, stats) = sim.run_functional(&device, &cmd).expect("healthy run");
        assert_eq!(center_pixel(&mem, fb, 16, 16), 1.0, "center hits the quad");
        assert_eq!(mem.read_f32(fb), 0.25, "corner misses");
        assert_eq!(stats.rays, 256);
        assert!(stats.triangle_hits > 0 && stats.misses > 0);
    }

    #[test]
    fn timing_run_matches_functional_image() {
        let (device, cmd, fb) = quad_workload(16, 4);
        let mut sim = Simulator::new(SimConfig::test_small());
        let (fmem, _) = sim.run_functional(&device, &cmd).expect("healthy run");
        let report = sim.run(&device, &cmd).expect("healthy run");
        for i in 0..(16 * 4) {
            assert_eq!(
                report.memory.read_f32(fb + i * 4),
                fmem.read_f32(fb + i * 4),
                "pixel {i} differs between timing and functional runs"
            );
        }
        assert!(report.gpu.cycles > 0);
        assert!(report.gpu.counters.get("rt.trace_warps") >= 2);
        assert!(report.runtime.rays == 64);
        assert!(report.power.total_energy_j > 0.0);
    }

    #[test]
    fn rt_units_see_traffic_in_timing_run() {
        let (device, cmd, _) = quad_workload(32, 4);
        let mut sim = Simulator::new(SimConfig::test_small());
        let report = sim.run(&device, &cmd).expect("healthy run");
        assert!(report.gpu.rt_busy_cycles > 0);
        assert!(report.gpu.rt_ops > 0);
        assert!(report.gpu.rt_warp_latency.count() >= 4);
        assert!(
            report.gpu.l1_stats.sum_prefix("rt_unit") > 0,
            "RT unit uses the L1"
        );
    }

    #[test]
    fn perfect_bvh_is_faster_than_baseline() {
        let (device, cmd, _) = quad_workload(32, 8);
        let base = Simulator::new(SimConfig::test_small())
            .run(&device, &cmd)
            .expect("healthy run");
        let perfect =
            Simulator::new(SimConfig::test_small().with_memory_mode(MemoryMode::PerfectBvh))
                .run(&device, &cmd)
                .expect("healthy run");
        assert!(
            perfect.gpu.cycles <= base.gpu.cycles,
            "perfect BVH {} vs baseline {}",
            perfect.gpu.cycles,
            base.gpu.cycles
        );
    }

    #[test]
    fn rt_cache_mode_populates_rtc_stats() {
        let (device, cmd, _) = quad_workload(32, 4);
        let report = Simulator::new(SimConfig::test_small().with_memory_mode(MemoryMode::RtCache))
            .run(&device, &cmd)
            .expect("healthy run");
        assert!(!report.gpu.rtc_stats.is_empty(), "RT cache saw accesses");
        assert_eq!(
            report.gpu.l1_stats.sum_prefix("rt_unit"),
            0,
            "RT traffic moved off L1"
        );
    }

    #[test]
    fn its_mode_completes_with_same_image() {
        let (device, cmd, fb) = quad_workload(16, 4);
        let stack = Simulator::new(SimConfig::test_small())
            .run(&device, &cmd)
            .expect("healthy run");
        let its = Simulator::new(SimConfig::test_small().with_its(true))
            .run(&device, &cmd)
            .expect("healthy run");
        for i in 0..(16 * 4) {
            assert_eq!(
                stack.memory.read_f32(fb + i * 4),
                its.memory.read_f32(fb + i * 4),
                "pixel {i}"
            );
        }
    }

    #[test]
    fn instruction_mix_recorded() {
        let (device, cmd, _) = quad_workload(16, 4);
        let report = Simulator::new(SimConfig::test_small())
            .run(&device, &cmd)
            .expect("healthy run");
        let alu = report.gpu.counters.get("inst.Alu");
        let mem = report.gpu.counters.get("inst.Mem");
        let rt = report.gpu.counters.get("inst.Rt");
        assert!(alu > 0 && mem > 0 && rt > 0);
        assert!(alu > rt, "ALU dominates trace instructions");
    }

    #[test]
    fn killed_run_resumes_bit_identically_from_checkpoint() {
        let (device, cmd, fb) = quad_workload(16, 8);
        let reference = Simulator::new(SimConfig::test_small())
            .run(&device, &cmd)
            .expect("healthy run");
        let dir = std::env::temp_dir().join(format!("vksim-ckpt-core-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Checkpoint every quarter of the reference run and kill at the
        // three-quarter mark: at least two checkpoints land before the
        // panic regardless of the workload's absolute cycle count.
        let every = (reference.gpu.cycles / 4).max(1);
        let ckpt_cfg = || {
            let mut cfg =
                SimConfig::test_small().with_checkpoint(every, dir.to_string_lossy().to_string());
            // An injected worker panic kills the run mid-flight; resume
            // must clear it from the plan instead of dying again.
            cfg.gpu.fault_plan.worker_panic = Some(vksim_gpu::WorkerPanicSpec {
                sm: 1,
                cycle: every * 3,
            });
            cfg
        };
        let failure = Simulator::new(ckpt_cfg())
            .run(&device, &cmd)
            .expect_err("injected panic kills the run");
        assert!(
            matches!(failure.error, SimError::WorkerPanicked { .. }),
            "{failure}"
        );
        assert!(
            failure.snapshot.is_some(),
            "final snapshot written beside the post-mortem dump"
        );
        let last_ckpt = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "vksnap"))
            .max_by_key(|p| {
                p.file_stem()
                    .and_then(|s| s.to_str())
                    .and_then(|s| s.strip_prefix("ckpt-"))
                    .and_then(|s| s.parse::<u64>().ok())
                    .unwrap_or(0)
            })
            .expect("at least one periodic checkpoint written before the kill");
        let resumed = Simulator::new(ckpt_cfg())
            .resume(&device, &cmd, &last_ckpt)
            .expect("resumed run completes");
        assert_eq!(resumed.gpu.cycles, reference.gpu.cycles, "same end cycle");
        assert_eq!(
            resumed.gpu.counters, reference.gpu.counters,
            "bit-identical counters after kill + resume"
        );
        for i in 0..(16 * 8) {
            assert_eq!(
                resumed.memory.read_f32(fb + i * 4),
                reference.memory.read_f32(fb + i * 4),
                "pixel {i}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_keep_prunes_all_but_newest() {
        let (device, cmd, _) = quad_workload(16, 8);
        let reference = Simulator::new(SimConfig::test_small())
            .run(&device, &cmd)
            .expect("healthy run");
        let dir = std::env::temp_dir().join(format!("vksim-ckpt-keep-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Checkpoint every eighth of the run: at least 7 land, retention
        // must leave exactly 2.
        let every = (reference.gpu.cycles / 8).max(1);
        let cfg = SimConfig::test_small()
            .with_checkpoint(every, dir.to_string_lossy().to_string())
            .with_checkpoint_keep(2);
        let resumed = Simulator::new(cfg).run(&device, &cmd).expect("healthy run");
        assert_eq!(resumed.gpu.cycles, reference.gpu.cycles);
        let mut cycles: Vec<u64> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter_map(|p| {
                p.file_name()?
                    .to_str()?
                    .strip_prefix("ckpt-")?
                    .strip_suffix(".vksnap")?
                    .parse::<u64>()
                    .ok()
            })
            .collect();
        cycles.sort_unstable();
        assert_eq!(cycles.len(), 2, "retention must keep exactly 2: {cycles:?}");
        // The survivors are the two *newest* checkpoints.
        assert!(
            cycles[0] > every && cycles[1] > cycles[0],
            "oldest checkpoints must be pruned first: {cycles:?}"
        );
        // The newest survivor still resumes bit-identically.
        let last = dir.join(format!("ckpt-{}.vksnap", cycles[1]));
        let resumed = Simulator::new(SimConfig::test_small())
            .resume(&device, &cmd, &last)
            .expect("resume from retained checkpoint");
        assert_eq!(resumed.gpu.cycles, reference.gpu.cycles);
        assert_eq!(resumed.gpu.counters, reference.gpu.counters);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prof_export_writes_conserved_breakdown() {
        let (device, cmd, _) = quad_workload(16, 8);
        let dir = std::env::temp_dir().join(format!("vksim-prof-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("prof.json");
        let cfg = SimConfig::test_small().with_prof(path.to_string_lossy().to_string());
        let report = Simulator::new(cfg).run(&device, &cmd).expect("healthy run");
        let prof = report.prof.as_ref().expect("accounting enabled");
        assert!(prof.conservation_holds(), "{prof:?}");
        assert_eq!(prof.cycles, report.gpu.cycles);
        let written = std::fs::read_to_string(&path).expect("prof file written");
        assert_eq!(written, prof.flat_json(), "file matches in-memory report");
        let parsed = vksim_testkit::json::parse_flat_u64_object(&written).expect("valid flat JSON");
        assert_eq!(parsed.get("cycles"), Some(&report.gpu.cycles));
        assert_eq!(parsed.get("num_sms"), Some(&2));
        let total: u64 = vksim_trace::CycleCategory::ALL
            .iter()
            .map(|c| parsed[&format!("total.{c}")])
            .sum();
        assert_eq!(total, report.gpu.cycles * 2, "conservation in the file");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn default_run_carries_no_prof() {
        let (device, cmd, _) = quad_workload(16, 4);
        let report = Simulator::new(SimConfig::test_small())
            .run(&device, &cmd)
            .expect("healthy run");
        assert!(report.prof.is_none(), "accounting is opt-in");
        assert!(report.rt.is_none(), "rt analytics is opt-in");
    }

    #[test]
    fn rt_export_writes_conserved_analytics() {
        let (device, cmd, _) = quad_workload(16, 8);
        let dir = std::env::temp_dir().join(format!("vksim-rt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let json_path = dir.join("rt.json");
        let csv_path = dir.join("heatmap.csv");
        let cfg = SimConfig::test_small()
            .with_rt(json_path.to_string_lossy().to_string())
            .with_rt_heatmap(csv_path.to_string_lossy().to_string());
        let report = Simulator::new(cfg).run(&device, &cmd).expect("healthy run");
        let rt = report.rt.as_ref().expect("rt analytics enabled");
        assert!(rt.conservation_holds(), "{rt:?}");
        assert_eq!(rt.traversal.rays(), report.runtime.rays);
        assert_eq!(rt.num_sms(), 2);
        let written = std::fs::read_to_string(&json_path).expect("rt file written");
        assert_eq!(written, rt.flat_json(), "file matches in-memory report");
        let parsed = vksim_testkit::json::parse_flat_u64_object(&written).expect("valid flat JSON");
        assert_eq!(parsed.get("rays"), Some(&report.runtime.rays));
        assert_eq!(
            parsed["heatmap.visits"], parsed["nodes_visited"],
            "conservation in the file"
        );
        assert_eq!(parsed["box_tests"], parsed["rtu.box_ops"]);
        let csv = std::fs::read_to_string(&csv_path).expect("heatmap written");
        assert!(csv.starts_with("space,depth,node,visits,hits\n"));
        assert_eq!(
            csv.lines().count() as u64,
            1 + parsed["heatmap.cells"],
            "one CSV row per heatmap cell"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_rejects_mismatched_fingerprint() {
        let (device, cmd, _) = quad_workload(16, 4);
        let dir = std::env::temp_dir().join(format!("vksim-ckpt-fp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = SimConfig::test_small().with_checkpoint(64, dir.to_string_lossy().to_string());
        Simulator::new(cfg.clone())
            .run(&device, &cmd)
            .expect("healthy run");
        let ckpt = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .find(|p| p.extension().is_some_and(|x| x == "vksnap"))
            .expect("checkpoint written");
        // A different machine (4 SMs) must refuse the snapshot.
        let mut other = cfg;
        other.gpu.num_sms = 4;
        let failure = Simulator::new(other)
            .resume(&device, &cmd, &ckpt)
            .expect_err("mismatched config must be rejected");
        assert!(
            matches!(failure.error, SimError::SnapshotMismatch { .. }),
            "{failure}"
        );
        assert!(failure.report.is_none(), "the run never started");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_refuses_the_previous_format_version() {
        // Files of the previous format version hold one runtime per SM: a
        // classified refusal by version, never a misread machine.
        let (device, cmd, _) = quad_workload(16, 4);
        let dir = std::env::temp_dir().join(format!("vksim-ckpt-ver-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = SimConfig::test_small().with_checkpoint(64, dir.to_string_lossy().to_string());
        Simulator::new(cfg.clone())
            .run(&device, &cmd)
            .expect("healthy run");
        let ckpt = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .find(|p| p.extension().is_some_and(|x| x == "vksnap"))
            .expect("checkpoint written");
        let current = Snapshot::read(&ckpt).expect("checkpoint readable");
        let old = dir.join("old-format.vksnap");
        Snapshot {
            version: vksim_snapshot::FORMAT_VERSION - 1,
            ..current
        }
        .write_atomic(&old)
        .expect("snapshot written");
        let failure = Simulator::new(cfg)
            .resume(&device, &cmd, &old)
            .expect_err("a previous-version snapshot must be refused");
        match &failure.error {
            SimError::SnapshotMismatch { detail } => {
                assert!(detail.contains("format version"), "{detail}")
            }
            other => panic!("expected SnapshotMismatch, got {other:?}"),
        }
        assert!(failure.report.is_none(), "the run never started");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn faulted_run_returns_partial_report_and_dump() {
        let (device, cmd, _) = quad_workload(16, 4);
        let mut cfg = SimConfig::test_small();
        cfg.gpu.watchdog_cycles = 2_000;
        cfg.gpu.fault_plan.stall_warp = Some(0);
        let failure = Simulator::new(cfg)
            .run(&device, &cmd)
            .expect_err("stalled warp must trip the watchdog");
        assert!(matches!(failure.error, SimError::Hang { .. }), "{failure}");
        let report = failure.report.as_ref().expect("timing fault keeps stats");
        assert!(report.gpu.cycles > 0, "partial stats reach the caller");
        assert!(failure.dump.is_some(), "post-mortem dump written");
    }

    #[test]
    fn degenerate_fr_fcfs_depth_is_rejected_before_the_run() {
        let (device, cmd, _) = quad_workload(4, 4);
        let cfg = SimConfig::test_small().with_dram_sched(vksim_mem::DramSched::FrFcfs {
            queue_depth: 0,
            age_cap: 100,
        });
        let failure = Simulator::new(cfg)
            .run(&device, &cmd)
            .expect_err("queue_depth 0 must be rejected, not clamped");
        assert!(
            matches!(failure.error, SimError::InvalidConfig { .. }),
            "{failure}"
        );
        assert!(failure.report.is_none(), "the run never started");
        assert!(failure.dump.is_some(), "fault class still dumped");
    }

    /// Without validation, each row panics inside a constructor or on the
    /// first DRAM access, or spins until `max_cycles`.
    #[test]
    fn degenerate_geometries_are_rejected_before_the_run() {
        let (device, cmd, _) = quad_workload(4, 4);
        type Degrade = fn(&mut GpuConfig);
        let rows: [(&str, Degrade); 17] = [
            ("num_sms", |g| g.num_sms = 0),
            ("max_warps_per_sm", |g| g.max_warps_per_sm = 0),
            ("rt_unit.max_warps", |g| g.rt_unit.max_warps = 0),
            ("rt_unit.mem_queue", |g| g.rt_unit.mem_queue = 0),
            ("rt_unit.issue_per_cycle", |g| g.rt_unit.issue_per_cycle = 0),
            ("mem.num_partitions", |g| g.mem.num_partitions = 0),
            ("mem.dram.channels", |g| g.mem.dram.channels = 0),
            ("mem.dram.channels", |g| g.mem.num_partitions = 4),
            ("mem.dram.channels", |g| {
                g.mem.dram.channels = 6;
                g.mem.num_partitions = 8
            }),
            ("l1.size_bytes", |g| g.l1.size_bytes = 0),
            ("l1.line_bytes", |g| g.l1.line_bytes = 0),
            ("rt_cache.size_bytes", |g| {
                g.rt_cache = Some(vksim_mem::CacheConfig {
                    size_bytes: 0,
                    ..vksim_mem::CacheConfig::l1d_baseline()
                })
            }),
            ("l1.mshr_entries", |g| g.l1.mshr_entries = 0),
            ("rt_cache.mshr_entries", |g| {
                g.rt_cache = Some(vksim_mem::CacheConfig {
                    mshr_entries: 0,
                    ..vksim_mem::CacheConfig::l1d_baseline()
                })
            }),
            ("mem.l2.line_bytes", |g| g.mem.l2.line_bytes = 0),
            ("mem.dram.banks_per_channel", |g| {
                g.mem.dram.banks_per_channel = 0
            }),
            ("mem.dram.row_bytes", |g| g.mem.dram.row_bytes = 0),
        ];
        for (knob, degrade) in rows {
            let mut cfg = SimConfig::test_small();
            degrade(&mut cfg.gpu);
            let failure = Simulator::new(cfg).run(&device, &cmd).expect_err(knob);
            match &failure.error {
                SimError::InvalidConfig { detail } => {
                    assert!(detail.contains(knob), "{knob}: {detail}")
                }
                other => panic!("{knob}: expected InvalidConfig, got {other:?}"),
            }
            assert!(failure.report.is_none(), "{knob}: the run never started");
        }
    }

    #[test]
    fn truncated_program_fails_functionally_with_classified_error() {
        let (device, mut cmd, _) = quad_workload(4, 4);
        cmd.program = cmd.program.truncated(cmd.program.len() / 2);
        let failure = Simulator::new(SimConfig::test_small())
            .run_functional(&device, &cmd)
            .expect_err("truncated program must fail");
        assert!(matches!(failure.error, SimError::Exec { .. }), "{failure}");
        assert!(
            failure.report.is_none(),
            "functional faults carry no report"
        );
        assert!(failure.dump.is_some());
    }

    /// A raygen with a shader-visible builtin (world normal) exercised via
    /// closest-hit.
    #[test]
    fn closest_hit_reads_hit_attributes() {
        let mut device = Device::new();
        let fb = device.alloc_buffer(64);
        device.bind_descriptor(0, fb);
        let blas = device.create_blas(BlasGeometry::triangles(vec![Triangle::new(
            Vec3::new(-1.0, -1.0, 2.0),
            Vec3::new(1.0, -1.0, 2.0),
            Vec3::new(0.0, 1.0, 2.0),
        )]));
        device.create_tlas(vec![
            Instance::new(blas, Mat4x3::IDENTITY).with_custom_index(42)
        ]);

        let mut rg = ShaderBuilder::new(ShaderKind::RayGen);
        rg.trace_ray(
            [rg.c_f32(0.0), rg.c_f32(-0.2), rg.c_f32(-1.0)],
            [rg.c_f32(0.0), rg.c_f32(0.0), rg.c_f32(1.0)],
            rg.c_f32(0.001),
            rg.c_f32(1e30),
            rg.c_u32(0),
            0,
        );
        let a = rg.var_u32(rg.buffer_base(0));
        rg.store(rg.v(a), 0, rg.payload(0)); // t
        rg.store(rg.v(a), 4, rg.payload(1)); // custom index as f32
        rg.store(rg.v(a), 8, rg.payload(2)); // normal z

        let mut ch = ShaderBuilder::new(ShaderKind::ClosestHit);
        ch.set_payload_in(0, ch.builtin(Builtin::HitT));
        ch.set_payload_in(1, ch.builtin(Builtin::HitInstanceCustomIndex).to_f32());
        ch.set_payload_in(2, ch.builtin(Builtin::HitWorldNormal(2)));
        let mut ms = ShaderBuilder::new(ShaderKind::Miss);
        ms.set_payload_in(0, ms.c_f32(-1.0));

        let shaders = PipelineShaders {
            raygen: rg.finish(),
            miss: vec![ms.finish()],
            closest_hit: vec![ch.finish()],
            intersection: vec![],
            any_hit: vec![],
            max_recursion_depth: 1,
        };
        let pipeline = device.create_ray_tracing_pipeline(shaders, false).unwrap();
        let cmd = device.cmd_trace_rays(&pipeline, 1, 1);
        let mut sim = Simulator::new(SimConfig::test_small());
        let (mem, _) = sim.run_functional(&device, &cmd).expect("healthy run");
        assert!((mem.read_f32(fb) - 3.0).abs() < 1e-3, "hit t");
        assert_eq!(mem.read_f32(fb + 4), 42.0, "custom index");
        assert!(mem.read_f32(fb + 8) < 0.0, "normal faces the ray");
    }

    /// Everything a run leaves behind, for comparing two runs byte by byte.
    fn outcome(gpu: &mut GpuSim, runtime: &RtRuntime, stats: GpuStats) -> String {
        let payload = checkpoint::machine_payload(gpu, runtime);
        format!(
            "{stats:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{payload:?}",
            gpu.prof_report(),
            gpu.rt_report_parts(),
            rt_report(gpu, runtime),
            gpu.take_trace_report(),
        )
    }

    /// Idle SMs sleep through the ticks that would change nothing; a run
    /// stepped one cycle at a time never skips a tick, because every exit
    /// of the cycle loop wakes every SM. Both must leave identical
    /// statistics, observers, trace and machine state. The grid covers
    /// every memory mode (the RT cache takes the RT unit's refusals apart
    /// from the shader's) and a starved L1, and some RT unit must end a
    /// stepped slice stalled, so the stall sleep cannot pass unexercised.
    #[test]
    fn sleeping_sms_match_a_run_that_ticks_every_cycle() {
        use vksim_scenes::{build, Scale, WorkloadKind};
        let mut starved = SimConfig::paper();
        starved.gpu.mem.l2.mshr_entries = starved.gpu.mem.num_partitions as usize;
        starved.gpu.mem.l2.mshr_merge = 2;
        let observed = SimConfig::paper()
            .with_icnt_queue_depth(4)
            .with_icnt_return_credits(2)
            .with_trace(vksim_trace::TraceConfig {
                enabled: true,
                interval: 200,
                ..Default::default()
            })
            .with_accounting(true)
            .with_rt_analytics(true);
        let small = SimConfig::test_small;
        let mut starved_l1 = small();
        starved_l1.gpu.l1.mshr_entries = 4;
        let mode = |mode| small().with_memory_mode(mode);
        let cases = [
            ("paper icnt + observers", observed, WorkloadKind::Ext, false),
            ("paper l2 starved", starved, WorkloadKind::Tri, false),
            (
                "ref its rtw2",
                small().with_its(true).with_rt_max_warps(2),
                WorkloadKind::Ref,
                false,
            ),
            ("rtv6 fcc", small(), WorkloadKind::Rtv6, true),
            (
                "rt cache starved",
                mode(MemoryMode::RtCache),
                WorkloadKind::Ext,
                false,
            ),
            (
                "perfect bvh",
                mode(MemoryMode::PerfectBvh),
                WorkloadKind::Rtv5,
                false,
            ),
            (
                "perfect mem",
                mode(MemoryMode::PerfectMem),
                WorkloadKind::Rtv6,
                false,
            ),
            ("l1 starved", starved_l1, WorkloadKind::Ext, false),
        ];
        let mut stalled = Vec::new();
        for (name, config, kind, fcc) in cases {
            let mut w = build(kind, Scale::Test);
            let cmd = if fcc { w.with_fcc(true) } else { w.cmd.clone() };
            let sim = Simulator::new(config);
            let mut resolved = sim.config().resolve();
            if let Some(rtc) = resolved.rt_cache.as_mut() {
                rtc.mshr_entries = 4; // so that the RT cache's refusals stall
            }
            let run = |stepped: bool| {
                let (mut gpu, mut runtime) = sim.launch(resolved.clone(), &w.device, &cmd);
                let mut stall_seen = false;
                let stats = if stepped {
                    loop {
                        let stop = gpu.cycles() + 1;
                        match gpu.run_until(&mut runtime, stop).expect("healthy run") {
                            RunOutcome::Done(stats) => break *stats,
                            RunOutcome::Paused => {
                                let mut sms = gpu.sms().iter();
                                stall_seen |= sms.any(|sm| sm.rt_unit.stalled_on().is_some());
                            }
                        }
                    }
                } else {
                    gpu.run(&mut runtime).expect("healthy run")
                };
                (outcome(&mut gpu, &runtime, stats), stall_seen)
            };
            let (slept, (stepped, stall_seen)) = (run(false).0, run(true));
            assert!(slept == stepped, "{name}: sleeping changed the run");
            if stall_seen {
                stalled.push(name);
            }
        }
        let starved = ["rtv6 fcc", "rt cache starved", "l1 starved"];
        assert!(stalled == starved, "stalled: {stalled:?}");
    }
}
