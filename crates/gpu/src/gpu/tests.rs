use super::*;
use crate::ScriptSource;
use vksim_isa::interp::{NoRt, RayDesc, RtHooks};
use vksim_isa::op::{RtIdxQuery, RtQuery};
use vksim_isa::ProgramBuilder;
use vksim_rtunit::{OpKind, Step};

/// Hooks for GPU tests: launch ids + canned traversal scripts.
struct TestHooks {
    width: u32,
    scripts_taken: usize,
}

impl RtHooks for TestHooks {
    fn traverse(&mut self, _tid: usize, _ray: RayDesc) -> Result<(), vksim_isa::RtError> {
        Ok(())
    }
    fn end_trace(&mut self, _tid: usize) {}
    fn alloc_mem(&mut self, _tid: usize, _size: u32) -> u64 {
        0
    }
    fn query(&mut self, tid: usize, q: RtQuery) -> u32 {
        match q {
            RtQuery::LaunchId(0) => (tid as u32) % self.width,
            RtQuery::LaunchId(1) => (tid as u32) / self.width,
            RtQuery::LaunchId(_) => 0,
            RtQuery::HitKind => 0,
            _ => 0,
        }
    }
    fn query_idx(&mut self, _tid: usize, _q: RtIdxQuery, _idx: u32) -> u32 {
        0
    }
    fn intersection_valid(&mut self, _tid: usize, _idx: u32) -> bool {
        false
    }
    fn next_coalesced_call(&mut self, _tid: usize, _idx: u32) -> u32 {
        u32::MAX
    }
    fn report_intersection(
        &mut self,
        _tid: usize,
        _idx: u32,
        _t: f32,
    ) -> Result<(), vksim_isa::RtError> {
        Ok(())
    }
}

impl ScriptSource for TestHooks {
    fn take_script(&mut self, tid: usize) -> Vec<Step> {
        self.scripts_taken += 1;
        vec![Step::Fetch {
            addr: 0x8000_0000 + (tid as u64 % 7) * 64,
            size: 64,
            op: OpKind::Box { tests: 6 },
        }]
    }
}

impl ScriptSource for NoRt {
    fn take_script(&mut self, _tid: usize) -> Vec<Step> {
        Vec::new()
    }
}

/// One hook shard per SM, as [`GpuSim::run`] takes them.
fn shards(gpu: &GpuSim, width: u32) -> Vec<TestHooks> {
    (0..gpu.config().num_sms)
        .map(|_| TestHooks {
            width,
            scripts_taken: 0,
        })
        .collect()
}

fn small_config() -> GpuConfig {
    GpuConfig {
        num_sms: 2,
        max_cycles: 50_000_000,
        ..GpuConfig::baseline()
    }
}

#[test]
fn store_kernel_writes_every_thread() {
    // Each thread stores its launch-id x to out[tid].
    let mut b = ProgramBuilder::new();
    let [idx, base, addr, four] = b.regs::<4>();
    b.emit(vksim_isa::op::Instr::RtRead {
        dst: idx,
        query: RtQuery::LaunchId(0),
    });
    b.mov_imm_u32(base, 0x10_0000);
    b.mov_imm_u32(four, 4);
    b.imul(addr, idx, four);
    b.iadd(addr, addr, base);
    b.st_global(addr, 0, idx);
    b.exit();
    let program = b.build();

    let mut gpu = GpuSim::new(small_config());
    gpu.launch(
        program,
        LaunchDims {
            width: 64,
            height: 1,
            depth: 1,
        },
    );
    let mut hooks = shards(&gpu, 64);
    let stats = gpu.run(&mut hooks).expect("healthy run");
    for i in 0..64u64 {
        assert_eq!(gpu.mem.read_u32(0x10_0000 + i * 4), i as u32, "thread {i}");
    }
    assert!(stats.cycles > 0);
    assert!(stats.issued_insts >= 7 * 2); // 2 warps x 7 instructions
    assert!(
        stats.simt_efficiency > 0.9,
        "uniform kernel: {}",
        stats.simt_efficiency
    );
}

#[test]
fn partial_last_warp_handled() {
    let mut b = ProgramBuilder::new();
    let [idx, base, addr, four] = b.regs::<4>();
    b.emit(vksim_isa::op::Instr::RtRead {
        dst: idx,
        query: RtQuery::LaunchId(0),
    });
    b.mov_imm_u32(base, 0x20_0000);
    b.mov_imm_u32(four, 4);
    b.imul(addr, idx, four);
    b.iadd(addr, addr, base);
    b.st_global(addr, 0, idx);
    b.exit();
    let program = b.build();
    let mut gpu = GpuSim::new(small_config());
    gpu.launch(
        program,
        LaunchDims {
            width: 40,
            height: 1,
            depth: 1,
        },
    );
    let mut hooks = shards(&gpu, 40);
    gpu.run(&mut hooks).expect("healthy run");
    assert_eq!(gpu.mem.read_u32(0x20_0000 + 39 * 4), 39);
    // Thread 40 does not exist: untouched memory.
    assert_eq!(gpu.mem.read_u32(0x20_0000 + 40 * 4), 0);
}

#[test]
fn loads_go_through_memory_hierarchy() {
    // Every thread loads the same word and stores it: one cold miss,
    // then hits.
    let mut b = ProgramBuilder::new();
    let [src, v, idx, base, addr, four] = b.regs::<6>();
    b.mov_imm_u32(src, 0x30_0000);
    b.ld_global(v, src, 0);
    b.emit(vksim_isa::op::Instr::RtRead {
        dst: idx,
        query: RtQuery::LaunchId(0),
    });
    b.mov_imm_u32(base, 0x40_0000);
    b.mov_imm_u32(four, 4);
    b.imul(addr, idx, four);
    b.iadd(addr, addr, base);
    b.st_global(addr, 0, v);
    b.exit();
    let program = b.build();
    let mut gpu = GpuSim::new(GpuConfig {
        num_sms: 1,
        ..small_config()
    });
    gpu.mem.write_u32(0x30_0000, 0xBEEF);
    gpu.launch(
        program,
        LaunchDims {
            width: 128,
            height: 1,
            depth: 1,
        },
    );
    let mut hooks = shards(&gpu, 128);
    let stats = gpu.run(&mut hooks).expect("healthy run");
    assert_eq!(gpu.mem.read_u32(0x40_0000), 0xBEEF);
    assert_eq!(gpu.mem.read_u32(0x40_0000 + 127 * 4), 0xBEEF);
    let l1_misses = stats.l1_stats.get("shader_load.miss_compulsory");
    assert_eq!(l1_misses, 1, "one cold miss for the shared word");
    // The other three warps issue while the fill is outstanding and
    // merge into the MSHR (or, if scheduled after the fill, hit).
    let merged = stats.l1_stats.get("shader_load.miss_pending");
    let hits = stats.l1_stats.get("shader_load.hit");
    assert_eq!(merged + hits, 3, "merged={merged} hits={hits}");
}

#[test]
fn trace_ray_routes_through_rt_unit() {
    let mut b = ProgramBuilder::new();
    let rs = b.regs::<9>();
    for r in &rs[..8] {
        b.mov_imm_f32(*r, 0.5);
    }
    b.mov_imm_u32(rs[8], 0);
    b.emit(vksim_isa::op::Instr::TraverseAs {
        origin: [rs[0], rs[1], rs[2]],
        dir: [rs[3], rs[4], rs[5]],
        tmin: rs[6],
        tmax: rs[7],
        flags: rs[8],
    });
    b.emit(vksim_isa::op::Instr::EndTraceRay);
    b.exit();
    let program = b.build();
    let mut gpu = GpuSim::new(GpuConfig {
        num_sms: 1,
        ..small_config()
    });
    gpu.launch(
        program,
        LaunchDims {
            width: 256,
            height: 1,
            depth: 1,
        },
    );
    let mut hooks = shards(&gpu, 256);
    let stats = gpu.run(&mut hooks).expect("healthy run");
    assert_eq!(hooks[0].scripts_taken, 256, "every lane's script consumed");
    assert_eq!(stats.counters.get("rt.trace_warps"), 8);
    assert_eq!(stats.counters.get("warps_completed"), 8);
    assert!(stats.rt_busy_cycles > 0);
    assert!(stats.rt_ops > 0);
    // 8 warps > 4 RT slots: some enqueues must have stalled.
    assert!(stats.counters.get("rt.enqueue_stall") > 0 || stats.cycles > 10);
}

#[test]
fn divergent_branch_lowers_simt_efficiency() {
    // if (lane_id < 8) { long ALU block } else { other block }
    let mut b = ProgramBuilder::new();
    let [idx, eight, acc, one] = b.regs::<4>();
    let p = b.pred();
    b.emit(vksim_isa::op::Instr::RtRead {
        dst: idx,
        query: RtQuery::LaunchId(0),
    });
    b.mov_imm_u32(eight, 8);
    b.mov_imm_u32(acc, 0);
    b.mov_imm_u32(one, 1);
    b.setp_i(p, vksim_isa::op::CmpOp::Lt, idx, eight);
    let join = b.new_label();
    let els = b.new_label();
    b.ssy(join);
    b.bra_if(els, p, false);
    for _ in 0..20 {
        b.iadd(acc, acc, one);
    }
    b.bra(join);
    b.bind_label(els);
    for _ in 0..20 {
        b.iadd(acc, acc, one);
    }
    b.bind_label(join);
    b.sync();
    b.exit();
    let program = b.build();
    let mut gpu = GpuSim::new(GpuConfig {
        num_sms: 1,
        ..small_config()
    });
    gpu.launch(
        program,
        LaunchDims {
            width: 32,
            height: 1,
            depth: 1,
        },
    );
    let mut hooks = shards(&gpu, 32);
    let stats = gpu.run(&mut hooks).expect("healthy run");
    assert_eq!(stats.counters.get("divergent_branches"), 1);
    assert!(
        stats.simt_efficiency < 0.8,
        "divergence must cost efficiency: {}",
        stats.simt_efficiency
    );
}

#[test]
fn multipath_mode_completes_divergent_kernel() {
    let mut b = ProgramBuilder::new();
    let [idx, half, acc, one] = b.regs::<4>();
    let p = b.pred();
    b.emit(vksim_isa::op::Instr::RtRead {
        dst: idx,
        query: RtQuery::LaunchId(0),
    });
    b.mov_imm_u32(half, 16);
    b.mov_imm_u32(acc, 0);
    b.mov_imm_u32(one, 1);
    b.setp_i(p, vksim_isa::op::CmpOp::Lt, idx, half);
    let join = b.new_label();
    let els = b.new_label();
    b.ssy(join);
    b.bra_if(els, p, false);
    b.iadd(acc, acc, one);
    b.bra(join);
    b.bind_label(els);
    b.iadd(acc, acc, one);
    b.bind_label(join);
    b.sync();
    // Store acc so we can verify both sides ran.
    let [base, addr, four] = b.regs::<3>();
    b.mov_imm_u32(base, 0x50_0000);
    b.mov_imm_u32(four, 4);
    b.imul(addr, idx, four);
    b.iadd(addr, addr, base);
    b.st_global(addr, 0, acc);
    b.exit();
    let program = b.build();
    let mut gpu = GpuSim::new(GpuConfig {
        num_sms: 1,
        divergence: DivergenceMode::Multipath,
        ..small_config()
    });
    gpu.launch(
        program,
        LaunchDims {
            width: 32,
            height: 1,
            depth: 1,
        },
    );
    let mut hooks = shards(&gpu, 32);
    gpu.run(&mut hooks).expect("healthy run");
    for i in 0..32u64 {
        assert_eq!(gpu.mem.read_u32(0x50_0000 + i * 4), 1, "lane {i}");
    }
}

use crate::config::DivergenceMode;

#[test]
fn occupancy_respects_register_limit() {
    let c = GpuConfig::baseline();
    assert_eq!(c.occupancy_limit(2048), 1);
}

fn trace_program() -> vksim_isa::Program {
    let mut b = ProgramBuilder::new();
    let rs = b.regs::<9>();
    for r in &rs[..8] {
        b.mov_imm_f32(*r, 0.5);
    }
    b.mov_imm_u32(rs[8], 0);
    b.emit(vksim_isa::op::Instr::TraverseAs {
        origin: [rs[0], rs[1], rs[2]],
        dir: [rs[3], rs[4], rs[5]],
        tmin: rs[6],
        tmax: rs[7],
        flags: rs[8],
    });
    b.emit(vksim_isa::op::Instr::EndTraceRay);
    b.exit();
    b.build()
}

#[test]
fn stalled_warp_trips_watchdog_as_simt_livelock() {
    use vksim_fault::{FaultPlan, HangClass};
    let mut gpu = GpuSim::new(GpuConfig {
        num_sms: 1,
        watchdog_cycles: 2_000,
        fault_plan: FaultPlan {
            stall_warp: Some(0),
            ..FaultPlan::default()
        },
        ..small_config()
    });
    gpu.launch(
        trace_program(),
        LaunchDims {
            width: 32,
            height: 1,
            depth: 1,
        },
    );
    let mut hooks = shards(&gpu, 32);
    let fault = gpu.run(&mut hooks).expect_err("stalled warp must hang");
    assert!(
        matches!(
            fault.error,
            SimError::Hang {
                class: HangClass::SimtLivelock,
                window: 2_000,
                ..
            }
        ),
        "{:?}",
        fault.error
    );
    assert!(fault.dump.is_some(), "post-mortem dump must be written");
    assert!(fault.stats.cycles > 0);
    assert_eq!(fault.stats.counters.get("gpu.faults"), 1);
    assert_eq!(fault.stats.counters.get("gpu.watchdog_armed"), 2_000);
}

#[test]
fn injected_worker_panic_is_contained() {
    use vksim_fault::{FaultPlan, WorkerPanicSpec};
    let mut gpu = GpuSim::new(GpuConfig {
        fault_plan: FaultPlan {
            worker_panic: Some(WorkerPanicSpec { sm: 1, cycle: 5 }),
            ..FaultPlan::default()
        },
        ..small_config()
    });
    gpu.launch(
        trace_program(),
        LaunchDims {
            width: 256,
            height: 1,
            depth: 1,
        },
    );
    let mut hooks = shards(&gpu, 256);
    let fault = gpu.run(&mut hooks).expect_err("injected panic must fault");
    match &fault.error {
        SimError::WorkerPanicked { sm, detail } => {
            assert_eq!(*sm, 1);
            assert!(detail.contains("injected worker panic"), "{detail}");
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    assert!(fault.dump.is_some());
}

/// The cycle loop passes over an asleep SM, but never the fault plan's
/// worker-panic SM: its injection fires at its cycle even while the SM
/// sleeps (it waits on the RT unit from about cycle 10 on).
#[test]
fn injected_worker_panic_fires_in_a_sleep() {
    use vksim_fault::{FaultPlan, WorkerPanicSpec};
    let mut gpu = GpuSim::new(GpuConfig {
        num_sms: 1,
        fault_plan: FaultPlan {
            worker_panic: Some(WorkerPanicSpec { sm: 0, cycle: 100 }),
            ..FaultPlan::default()
        },
        ..small_config()
    });
    gpu.launch(
        trace_program(),
        LaunchDims {
            width: 32,
            height: 1,
            depth: 1,
        },
    );
    let mut hooks = shards(&gpu, 32);
    let fault = gpu.run(&mut hooks).expect_err("injected panic must fault");
    assert!(matches!(
        fault.error,
        SimError::WorkerPanicked { sm: 0, .. }
    ));
    assert_eq!(fault.stats.cycles, 100, "fired at its cycle, not at a wake");
}

#[test]
fn max_cycles_is_a_classified_error_not_a_panic() {
    use vksim_fault::FaultPlan;
    let mut gpu = GpuSim::new(GpuConfig {
        num_sms: 1,
        max_cycles: 1_000,
        fault_plan: FaultPlan {
            stall_warp: Some(0),
            ..FaultPlan::default()
        },
        ..small_config()
    });
    gpu.launch(
        trace_program(),
        LaunchDims {
            width: 32,
            height: 1,
            depth: 1,
        },
    );
    let mut hooks = shards(&gpu, 32);
    let fault = gpu.run(&mut hooks).expect_err("cycle cap must fault");
    assert!(
        matches!(fault.error, SimError::MaxCycles { limit: 1_000 }),
        "{:?}",
        fault.error
    );
}

#[test]
fn pause_save_restore_resumes_bit_identically() {
    let config = small_config();
    let dims = LaunchDims {
        width: 256,
        height: 1,
        depth: 1,
    };

    // Uninterrupted reference run.
    let mut reference = GpuSim::new(config.clone());
    reference.launch(trace_program(), dims);
    let mut hooks = shards(&reference, 256);
    let want = reference.run(&mut hooks).expect("healthy run");

    // Paused run: slice at cycle 40, snapshot, keep going.
    let mut gpu = GpuSim::new(config.clone());
    gpu.launch(trace_program(), dims);
    let mut hooks = shards(&gpu, 256);
    let outcome = gpu.run_until(&mut hooks, 40).expect("healthy slice");
    assert!(matches!(outcome, RunOutcome::Paused), "{outcome:?}");
    assert_eq!(gpu.cycles(), 40);
    let mut enc = vksim_snapshot::Enc::new();
    gpu.save(&mut enc);
    let payload = enc.into_bytes();

    // Restore into a fresh GPU: re-encoding must be byte-identical.
    let mut restored = GpuSim::new(config);
    restored.launch(trace_program(), dims);
    let mut dec = vksim_snapshot::Dec::new(&payload);
    restored.restore(&mut dec).expect("restore");
    dec.finish().expect("full consumption");
    let mut enc2 = vksim_snapshot::Enc::new();
    restored.save(&mut enc2);
    assert_eq!(payload, enc2.into_bytes(), "snapshot idempotency");

    // Both the paused original and the restored copy finish exactly
    // like the uninterrupted run.
    let stats = gpu.run(&mut hooks).expect("healthy tail");
    assert_eq!(stats.cycles, want.cycles);
    assert_eq!(stats.counters, want.counters);
    assert_eq!(stats.l1_stats, want.l1_stats);
    let mut hooks = shards(&gpu, 256);
    let stats = restored.run(&mut hooks).expect("healthy resumed tail");
    assert_eq!(stats.cycles, want.cycles);
    assert_eq!(stats.counters, want.counters);
    assert_eq!(stats.l1_stats, want.l1_stats);
    assert_eq!(stats.l2_stats, want.l2_stats);
    assert_eq!(stats.dram_stats, want.dram_stats);
}

#[test]
fn restore_rejects_mismatched_sm_count() {
    let mut gpu = GpuSim::new(small_config());
    gpu.launch(
        trace_program(),
        LaunchDims {
            width: 64,
            height: 1,
            depth: 1,
        },
    );
    let mut enc = vksim_snapshot::Enc::new();
    gpu.save(&mut enc);
    let payload = enc.into_bytes();
    let mut other = GpuSim::new(GpuConfig {
        num_sms: 3,
        ..small_config()
    });
    let mut dec = vksim_snapshot::Dec::new(&payload);
    let err = other.restore(&mut dec).expect_err("geometry mismatch");
    assert!(
        matches!(err, vksim_snapshot::SnapError::Malformed(_)),
        "{err:?}"
    );
}

fn accounting_config() -> GpuConfig {
    GpuConfig {
        trace: vksim_trace::TraceConfig {
            accounting: true,
            ..vksim_trace::TraceConfig::default()
        },
        ..small_config()
    }
}

#[test]
fn accounting_attributes_every_cycle_to_one_category() {
    let mut gpu = GpuSim::new(accounting_config());
    gpu.launch(
        trace_program(),
        LaunchDims {
            width: 256,
            height: 1,
            depth: 1,
        },
    );
    let mut hooks = shards(&gpu, 256);
    let stats = gpu.run(&mut hooks).expect("healthy run");
    let report = gpu.prof_report().expect("accounting enabled");
    assert!(report.conservation_holds(), "{report:?}");
    assert_eq!(report.cycles, stats.cycles);
    assert_eq!(report.issued_insts, stats.issued_insts);
    let merged = report.merged();
    assert!(merged.get(vksim_trace::CycleCategory::Issued) > 0);
    assert!(
        merged.get(vksim_trace::CycleCategory::RtStall) > 0,
        "trace kernel must spend cycles waiting on the RT unit: {merged:?}"
    );
    // Occupancy integrals are integer-exact and ordered.
    assert!(merged.eligible_warp_cycles() <= merged.resident_warp_cycles());
    assert!(merged.resident_warp_cycles() > 0);
}

#[test]
fn accounting_disabled_leaves_no_trace_of_itself() {
    let mut gpu = GpuSim::new(small_config());
    gpu.launch(
        trace_program(),
        LaunchDims {
            width: 64,
            height: 1,
            depth: 1,
        },
    );
    let mut hooks = shards(&gpu, 64);
    gpu.run(&mut hooks).expect("healthy run");
    assert!(gpu.prof_report().is_none());
}

#[test]
fn accounting_survives_checkpoint_byte_identically() {
    let config = accounting_config();
    let dims = LaunchDims {
        width: 256,
        height: 1,
        depth: 1,
    };
    let mut reference = GpuSim::new(config.clone());
    reference.launch(trace_program(), dims);
    let mut hooks = shards(&reference, 256);
    reference.run(&mut hooks).expect("healthy run");
    let want = reference.prof_report().expect("accounting on").flat_json();

    let mut gpu = GpuSim::new(config.clone());
    gpu.launch(trace_program(), dims);
    let mut hooks = shards(&gpu, 256);
    let outcome = gpu.run_until(&mut hooks, 40).expect("healthy slice");
    assert!(matches!(outcome, RunOutcome::Paused), "{outcome:?}");
    let mut enc = vksim_snapshot::Enc::new();
    gpu.save(&mut enc);
    let payload = enc.into_bytes();

    let mut restored = GpuSim::new(config);
    restored.launch(trace_program(), dims);
    let mut dec = vksim_snapshot::Dec::new(&payload);
    restored.restore(&mut dec).expect("restore");
    dec.finish().expect("full consumption");
    let mut hooks = shards(&gpu, 256);
    restored.run(&mut hooks).expect("healthy resumed tail");
    let got = restored.prof_report().expect("accounting on").flat_json();
    assert_eq!(want, got, "resumed breakdown must be byte-identical");
}

/// Snapshots `config` mid-run and restores it into a plain machine: the
/// SM's observer seam must refuse it, naming the observer.
fn assert_presence_mismatch(config: GpuConfig, needle: &str) {
    let dims = LaunchDims {
        width: 64,
        height: 1,
        depth: 1,
    };
    let mut gpu = GpuSim::new(config);
    gpu.launch(trace_program(), dims);
    let mut hooks = shards(&gpu, 64);
    let outcome = gpu.run_until(&mut hooks, 20).expect("healthy slice");
    assert!(matches!(outcome, RunOutcome::Paused), "{outcome:?}");
    let mut enc = vksim_snapshot::Enc::new();
    gpu.save(&mut enc);
    let payload = enc.into_bytes();
    let mut other = GpuSim::new(small_config());
    other.launch(trace_program(), dims);
    let mut dec = vksim_snapshot::Dec::new(&payload);
    let err = other.restore(&mut dec).expect_err("presence mismatch");
    assert!(
        matches!(&err, vksim_snapshot::SnapError::Malformed(m) if m.contains(needle)),
        "{err:?}"
    );
}

#[test]
fn restore_rejects_accounting_presence_mismatch() {
    assert_presence_mismatch(accounting_config(), "accounting");
}

#[test]
fn restore_rejects_tracer_presence_mismatch() {
    let mut config = small_config();
    config.trace.enabled = true;
    assert_presence_mismatch(config, "SmTracer");
}

#[test]
fn accounting_counter_tracks_reach_chrome_trace() {
    let mut config = accounting_config();
    config.trace = vksim_trace::TraceConfig {
        enabled: true,
        interval: 16,
        ..config.trace
    };
    let mut gpu = GpuSim::new(config);
    gpu.launch(
        trace_program(),
        LaunchDims {
            width: 256,
            height: 1,
            depth: 1,
        },
    );
    let mut hooks = shards(&gpu, 256);
    gpu.run(&mut hooks).expect("healthy run");
    let report = gpu.take_trace_report().expect("tracing enabled");
    let json = vksim_trace::chrome_trace_json(&report);
    assert!(
        json.contains("\"acct_issued\""),
        "prof counter tracks missing from chrome trace"
    );
}

fn rt_config() -> GpuConfig {
    GpuConfig {
        trace: vksim_trace::TraceConfig {
            rt_analytics: true,
            ..vksim_trace::TraceConfig::default()
        },
        ..small_config()
    }
}

#[test]
fn rt_analytics_attributes_warps_jobs_and_steps() {
    let mut gpu = GpuSim::new(rt_config());
    gpu.launch(
        trace_program(),
        LaunchDims {
            width: 256,
            height: 1,
            depth: 1,
        },
    );
    let mut hooks = shards(&gpu, 256);
    gpu.run(&mut hooks).expect("healthy run");
    let (per_sm, rt_box_ops) = gpu.rt_report_parts().expect("rt analytics enabled");
    assert_eq!(per_sm.len(), 2);
    let trace_warps: u64 = per_sm.iter().map(|s| s.coherence.trace_warps()).sum();
    let lane_steps: u64 = per_sm.iter().map(|s| s.coherence.lane_steps()).sum();
    let rtu_jobs: u64 = per_sm.iter().map(|s| s.rtu_jobs).sum();
    let rtu_steps: u64 = per_sm.iter().map(|s| s.rtu_steps).sum();
    let rtu_latency: u64 = per_sm.iter().map(|s| s.rtu_latency).sum();
    assert_eq!(trace_warps, 8, "256 threads = 8 trace warps");
    // Every lane runs a 1-step script, so lane steps == threads and
    // the RT units consume exactly that many script steps.
    assert_eq!(lane_steps, 256);
    assert_eq!(rtu_steps, 256);
    assert_eq!(rtu_jobs, 8, "every trace warp retires exactly once");
    assert!(rtu_latency > 0, "resident latency accumulates");
    // TestHooks scripts run one Box{tests: 6} op per thread.
    assert_eq!(rt_box_ops, 256 * 6);
}

#[test]
fn rt_analytics_disabled_leaves_no_trace_of_itself() {
    let mut gpu = GpuSim::new(small_config());
    gpu.launch(
        trace_program(),
        LaunchDims {
            width: 64,
            height: 1,
            depth: 1,
        },
    );
    let mut hooks = shards(&gpu, 64);
    gpu.run(&mut hooks).expect("healthy run");
    assert!(gpu.rt_report_parts().is_none());
}

#[test]
fn rt_analytics_survives_checkpoint_byte_identically() {
    let config = rt_config();
    let dims = LaunchDims {
        width: 256,
        height: 1,
        depth: 1,
    };
    let mut reference = GpuSim::new(config.clone());
    reference.launch(trace_program(), dims);
    let mut hooks = shards(&reference, 256);
    reference.run(&mut hooks).expect("healthy run");
    let want = format!("{:?}", reference.rt_report_parts().expect("rt on"));

    let mut gpu = GpuSim::new(config.clone());
    gpu.launch(trace_program(), dims);
    let mut hooks = shards(&gpu, 256);
    let outcome = gpu.run_until(&mut hooks, 40).expect("healthy slice");
    assert!(matches!(outcome, RunOutcome::Paused), "{outcome:?}");
    let mut enc = vksim_snapshot::Enc::new();
    gpu.save(&mut enc);
    let payload = enc.into_bytes();

    let mut restored = GpuSim::new(config);
    restored.launch(trace_program(), dims);
    let mut dec = vksim_snapshot::Dec::new(&payload);
    restored.restore(&mut dec).expect("restore");
    dec.finish().expect("full consumption");
    let mut hooks = shards(&gpu, 256);
    restored.run(&mut hooks).expect("healthy resumed tail");
    let got = format!("{:?}", restored.rt_report_parts().expect("rt on"));
    assert_eq!(want, got, "resumed rt analytics must be identical");
}

#[test]
fn restore_rejects_rt_analytics_presence_mismatch() {
    assert_presence_mismatch(rt_config(), "rt_analytics");
}

#[test]
fn rt_counter_tracks_reach_chrome_trace() {
    let mut config = rt_config();
    config.trace = vksim_trace::TraceConfig {
        enabled: true,
        interval: 16,
        ..config.trace
    };
    let mut gpu = GpuSim::new(config);
    gpu.launch(
        trace_program(),
        LaunchDims {
            width: 256,
            height: 1,
            depth: 1,
        },
    );
    let mut hooks = shards(&gpu, 256);
    gpu.run(&mut hooks).expect("healthy run");
    let report = gpu.take_trace_report().expect("tracing enabled");
    assert!(
        !report.rt_warp_latency.is_empty(),
        "traversal-latency aggregates missing from trace report"
    );
    let json = vksim_trace::chrome_trace_json(&report);
    assert!(
        json.contains("\"rt_trace_warps\""),
        "rt counter tracks missing from chrome trace"
    );
    let summary = vksim_trace::hotspot_summary(&report, 5);
    assert!(
        summary.contains("top traversal-latency warps"),
        "rt hotspot section missing: {summary}"
    );
}

/// Four SMs with both conservation-checked observers on.
fn observed_4sm(fault_plan: vksim_fault::FaultPlan) -> GpuSim {
    GpuSim::new(GpuConfig {
        num_sms: 4,
        fault_plan,
        trace: vksim_trace::TraceConfig {
            accounting: true,
            rt_analytics: true,
            ..vksim_trace::TraceConfig::default()
        },
        ..small_config()
    })
}

const WIDE: LaunchDims = LaunchDims {
    width: 512,
    height: 1,
    depth: 1,
};

/// On four SMs every cycle is attributed once per SM, every SM keeps its
/// own hook shard, and every lane's script is consumed exactly once.
#[test]
fn four_sms_conserve_cycles_and_scripts() {
    let mut gpu = observed_4sm(vksim_fault::FaultPlan::default());
    gpu.launch(trace_program(), WIDE);
    let mut hooks = shards(&gpu, WIDE.width);
    let stats = gpu.run(&mut hooks).expect("healthy run");
    let prof = gpu.prof_report().expect("accounting enabled");
    assert!(prof.conservation_holds(), "{prof:?}");
    assert_eq!(prof.cycles, stats.cycles);
    let (per_sm, rt_box_ops) = gpu.rt_report_parts().expect("rt analytics enabled");
    assert_eq!(per_sm.len(), 4);
    assert_eq!(
        per_sm
            .iter()
            .map(|s| s.coherence.trace_warps())
            .sum::<u64>(),
        16,
        "512 threads = 16 trace warps"
    );
    assert_eq!(rt_box_ops, 512 * 6, "one 6-test box step per lane");
    let taken: Vec<usize> = hooks.iter().map(|h| h.scripts_taken).collect();
    assert!(
        taken.iter().all(|&n| n > 0),
        "every SM ran warps: {taken:?}"
    );
    assert_eq!(taken.iter().sum::<usize>(), 512);
}

/// A fault finishes its cycle — every SM ticks, the request queues
/// drain — and the first fault in SM-id order is reported.
#[test]
fn faults_report_the_first_in_sm_id_order() {
    use vksim_fault::{FaultPlan, WorkerPanicSpec};
    let program = trace_program();
    let truncated = program.truncated(program.len() - 1);
    let panic_plan = FaultPlan {
        worker_panic: Some(WorkerPanicSpec { sm: 2, cycle: 12 }),
        ..FaultPlan::default()
    };
    for (label, program, plan) in [
        ("truncated program", truncated, FaultPlan::default()),
        ("injected panic", program, panic_plan),
    ] {
        let mut gpu = observed_4sm(plan);
        gpu.launch(program, WIDE);
        let mut hooks = shards(&gpu, WIDE.width);
        let fault = gpu.run(&mut hooks).expect_err(label);
        match (label, &fault.error) {
            ("truncated program", SimError::Exec { sm: 0, .. }) => {}
            ("injected panic", SimError::WorkerPanicked { sm: 2, .. }) => {
                assert_eq!(fault.stats.cycles, 12, "fired at its cycle");
            }
            other => panic!("unexpected fault {other:?}"),
        }
    }
}

/// A context that runs off the end of the program is reported at its
/// first active lane, like any other lane fault, not at lane 0.
#[test]
fn pc_fault_names_the_first_active_lane() {
    let mut b = ProgramBuilder::new();
    let [idx, zero, acc] = b.regs::<3>();
    let p = b.pred();
    let rest = b.new_label();
    b.emit(vksim_isa::op::Instr::RtRead {
        dst: idx,
        query: RtQuery::LaunchId(0),
    });
    b.setp_i(p, vksim_isa::op::CmpOp::Ne, idx, zero);
    b.bra_if(rest, p, true);
    b.exit(); // lane 0 leaves here
    b.bind_label(rest);
    b.iadd(acc, acc, idx);
    b.exit();
    let program = b.build();
    let program = program.truncated(program.len() - 1);
    let mut gpu = GpuSim::new(small_config());
    let dims = LaunchDims {
        width: WARP_SIZE as u32,
        height: 1,
        depth: 1,
    };
    gpu.launch(program.clone(), dims);
    let mut hooks = shards(&gpu, dims.width);
    let fault = gpu.run(&mut hooks).expect_err("lanes 1.. run off the end");
    let SimError::Exec { lane, pc, .. } = fault.error else {
        panic!("expected an execution fault, got {:?}", fault.error);
    };
    assert_eq!((lane, pc as usize), (1, program.len()));
}

/// Counts the allocations of the threads that armed it. Tests run on
/// parallel threads, so a process-wide count would see the others.
struct ThreadAllocCounter;

thread_local! {
    static ALLOCATIONS: std::cell::Cell<Option<u64>> = const { std::cell::Cell::new(None) };
}

fn count_allocation() {
    // `try_with`: the allocator also runs while a thread's locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get().map(|n| n + 1)));
}

// SAFETY: defers every call to `System` unchanged; the only addition is a
// counter in a thread-local `Cell`, which allocates nothing.
unsafe impl std::alloc::GlobalAlloc for ThreadAllocCounter {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { std::alloc::System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { std::alloc::System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: ThreadAllocCounter = ThreadAllocCounter;

/// The allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(Some(0)));
    f();
    ALLOCATIONS.with(|n| n.take()).expect("armed above")
}

/// Once warm, the issue path allocates nothing per cycle: a window twice as
/// long allocates exactly as often (the per-call cost of entering the loop).
#[test]
fn a_warm_issue_path_allocates_nothing_per_cycle() {
    // Forever: an L1-hitting load, ALU work and a branch that splits the
    // odd lanes from the even ones, then reconverges.
    let mut b = ProgramBuilder::new();
    let [idx, one, src, v, acc, bit] = b.regs::<6>();
    let odd = b.pred();
    b.emit(vksim_isa::op::Instr::RtRead {
        dst: idx,
        query: RtQuery::LaunchId(0),
    });
    b.mov_imm_u32(one, 1);
    b.mov_imm_u32(src, 0x50_0000);
    let (top, odd_path, join) = (b.new_label(), b.new_label(), b.new_label());
    b.bind_label(top);
    b.ld_global(v, src, 0);
    b.iadd(acc, acc, v);
    b.emit(vksim_isa::op::Instr::IAnd {
        dst: bit,
        a: idx,
        b: one,
    });
    b.setp_i(odd, vksim_isa::op::CmpOp::Eq, bit, one);
    b.ssy(join);
    b.bra_if(odd_path, odd, true);
    b.iadd(acc, acc, one);
    b.bra(join);
    b.bind_label(odd_path);
    b.iadd(acc, acc, idx);
    b.bind_label(join);
    b.sync();
    b.bra(top);
    let mut gpu = GpuSim::new(small_config());
    let dims = LaunchDims {
        width: 64,
        height: 1,
        depth: 1,
    };
    gpu.launch(b.build(), dims);
    let mut hooks = shards(&gpu, 64);
    let mut run_to = |stop: u64| {
        let outcome = gpu.run_until(&mut hooks, stop);
        assert!(
            matches!(outcome, Ok(RunOutcome::Paused)),
            "the loop never ends"
        );
    };
    const M: u64 = 2_000;
    run_to(M);
    let one_window = allocations_in(|| run_to(2 * M));
    let two_windows = allocations_in(|| run_to(4 * M));
    assert_eq!(one_window, two_windows, "allocations grow with cycles");
    let stats = gpu.collect_stats();
    assert!(stats.counters.get("divergent_branches") > 0);
    assert!(gpu.sms[0].l1().stats.get("shader_load.hit") > 0);
}

// -----------------------------------------------------------------
// Property: on random divergent kernels the cycle-accounting
// breakdown conserves (Σ categories == num_sms × cycles).
// -----------------------------------------------------------------

mod accounting_properties {
    use super::*;
    use vksim_testkit::prop::{check, u32_in};
    use vksim_testkit::{prop_assert, prop_assert_eq};

    fn prop_program(threshold: u32, alu_len: u32, with_store: bool) -> vksim_isa::Program {
        let mut b = ProgramBuilder::new();
        let [idx, thr, acc, one] = b.regs::<4>();
        let p = b.pred();
        b.emit(vksim_isa::op::Instr::RtRead {
            dst: idx,
            query: RtQuery::LaunchId(0),
        });
        b.mov_imm_u32(thr, threshold);
        b.mov_imm_u32(acc, 0);
        b.mov_imm_u32(one, 1);
        b.setp_i(p, vksim_isa::op::CmpOp::Lt, idx, thr);
        let join = b.new_label();
        let els = b.new_label();
        b.ssy(join);
        b.bra_if(els, p, false);
        for _ in 0..alu_len {
            b.iadd(acc, acc, one);
        }
        b.bra(join);
        b.bind_label(els);
        b.iadd(acc, acc, one);
        b.bind_label(join);
        b.sync();
        if with_store {
            let [base, addr, four] = b.regs::<3>();
            b.mov_imm_u32(base, 0x60_0000);
            b.mov_imm_u32(four, 4);
            b.imul(addr, idx, four);
            b.iadd(addr, addr, base);
            b.st_global(addr, 0, acc);
        }
        b.exit();
        b.build()
    }

    #[test]
    fn random_kernels_conserve() {
        let strat = (u32_in(0, 33), u32_in(1, 12), u32_in(1, 200), u32_in(0, 2));
        check(&strat, |&(threshold, alu_len, width, store)| {
            let program = prop_program(threshold, alu_len, store == 1);
            let mut gpu = GpuSim::new(accounting_config());
            gpu.launch(
                program,
                LaunchDims {
                    width,
                    height: 1,
                    depth: 1,
                },
            );
            let mut hooks = shards(&gpu, width);
            let stats = gpu.run(&mut hooks).expect("healthy run");
            let report = gpu.prof_report().expect("accounting enabled");
            prop_assert!(
                report.conservation_holds(),
                "conservation violated (threshold {threshold}, alu {alu_len}, \
                 width {width}, store {store}): {report:?}"
            );
            prop_assert_eq!(report.cycles, stats.cycles);
            Ok(())
        });
    }
}
