//! Checkpoint/restore validation: deterministic crash recovery.
//!
//! The contract under test: a run killed at an arbitrary point and resumed
//! from its last checkpoint produces **byte-identical** counters, golden
//! snapshots and functional memory to an uninterrupted run, on the
//! paper-scale partitioned config and the bounded-interconnect config
//! whose backpressure state must survive the snapshot.
//!
//! * Observer purity: enabling checkpointing moves no counter.
//! * Resume equivalence: complete a checkpointed run, re-run from an
//!   intermediate checkpoint, demand byte-equal snapshots.
//! * Idempotency: two resumes from the same checkpoint agree, and the
//!   checkpoint files a resumed run rewrites are byte-identical to the
//!   originals.
//! * Chaos: a fixed-seed campaign (`VKSIM_CHAOS_ITERS` iterations) injects
//!   worker panics at pseudo-random cycles, auto-resumes from the last
//!   checkpoint, and gates the final counters against the uninterrupted
//!   run.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use vksim_core::{RunReport, SimConfig, SimError, Simulator, WorkerPanicSpec};
use vksim_scenes::{build, Scale, Workload, WorkloadKind};

/// The golden-suite counter flattening: every integer-exact quantity the
/// drift gate pins, so "recovered run matches" means matches at golden
/// granularity, not just headline cycles.
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
    m.insert("runtime.triangle_tests".into(), rt.triangle_tests);
    m.insert("runtime.triangle_hits".into(), rt.triangle_hits);
    m.insert("runtime.misses".into(), rt.misses);
    m.insert("runtime.spill_stores".into(), rt.spill_stores);
    m.insert("runtime.spill_loads".into(), rt.spill_loads);
    m
}

/// A fresh private checkpoint directory per test invocation.
fn ckpt_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vksim-snap-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create checkpoint dir");
    dir
}

/// Checkpoint files in `dir`, sorted by checkpoint cycle.
fn checkpoints_in(dir: &Path) -> Vec<(u64, PathBuf)> {
    let mut found: Vec<(u64, PathBuf)> = std::fs::read_dir(dir)
        .expect("checkpoint dir readable")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter_map(|p| {
            let cycle = p
                .file_stem()?
                .to_str()?
                .strip_prefix("ckpt-")?
                .parse::<u64>()
                .ok()?;
            Some((cycle, p))
        })
        .collect();
    found.sort();
    found
}

/// The two configurations the tentpole contract names: paper-scale
/// partitioned memory, and the same machine behind a bounded interconnect
/// (ingress queues + return credits must survive the snapshot).
fn named_config(icnt_bounded: bool) -> SimConfig {
    let base = SimConfig::paper();
    if icnt_bounded {
        base.with_icnt_queue_depth(4).with_icnt_return_credits(2)
    } else {
        base
    }
}

fn run_plain(config: SimConfig, w: &Workload) -> RunReport {
    Simulator::new(config)
        .run(&w.device, &w.cmd)
        .expect("healthy run")
}

/// Enabling checkpointing must be a pure observer: the checkpointed run's
/// golden snapshot is byte-equal to the plain run's, for both named
/// configs.
#[test]
fn checkpointing_does_not_change_counters() {
    let w = build(WorkloadKind::Tri, Scale::Test);
    for icnt in [false, true] {
        let golden = snapshot(&run_plain(named_config(icnt), &w));
        let dir = ckpt_dir(&format!("pure-{icnt}"));
        let cfg = named_config(icnt).with_checkpoint(500, dir.to_string_lossy().to_string());
        let report = run_plain(cfg, &w);
        assert!(
            !checkpoints_in(&dir).is_empty(),
            "icnt={icnt}: checkpoints were written"
        );
        assert_eq!(
            golden,
            snapshot(&report),
            "icnt={icnt}: checkpointing moved a counter"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Resume equivalence at a pseudo-random checkpoint: complete a
/// checkpointed run, pick an intermediate checkpoint with a fixed-seed
/// LCG, resume from it, and demand byte-equal golden snapshots and
/// byte-identical later checkpoint files (idempotency).
#[test]
fn resume_from_random_checkpoint_is_bit_identical() {
    let w = build(WorkloadKind::Tri, Scale::Test);
    let mut lcg: u64 = 0xC0FFEE;
    let mut next = |bound: u64| {
        lcg = lcg.wrapping_mul(1664525).wrapping_add(1013904223);
        lcg % bound.max(1)
    };
    for icnt in [false, true] {
        let dir = ckpt_dir(&format!("resume-{icnt}"));
        let cfg = || named_config(icnt).with_checkpoint(400, dir.to_string_lossy().to_string());
        let reference = run_plain(cfg(), &w);
        let ckpts = checkpoints_in(&dir);
        assert!(
            ckpts.len() >= 2,
            "icnt={icnt}: expected several checkpoints, got {}",
            ckpts.len()
        );
        let originals: Vec<(u64, Vec<u8>)> = ckpts
            .iter()
            .map(|(c, p)| (*c, std::fs::read(p).expect("checkpoint readable")))
            .collect();
        let pick = &ckpts[next(ckpts.len() as u64 - 1) as usize];
        let resume = |label: &str| {
            Simulator::new(cfg())
                .resume(&w.device, &w.cmd, &pick.1)
                .unwrap_or_else(|e| panic!("icnt={icnt}: {label} resume failed: {e}"))
        };
        let resumed = resume("first");
        assert_eq!(
            snapshot(&reference),
            snapshot(&resumed),
            "icnt={icnt}: resume from cycle {} drifted",
            pick.0
        );
        // The resumed run rewrote every checkpoint after the pick;
        // idempotency demands the rewrites are byte-identical.
        for (cycle, original) in originals.iter().filter(|(c, _)| *c > pick.0) {
            let rewritten = std::fs::read(dir.join(format!("ckpt-{cycle}.vksnap")))
                .expect("rewritten checkpoint readable");
            assert_eq!(
                original, &rewritten,
                "icnt={icnt}: checkpoint at cycle {cycle} is not idempotent across resume"
            );
        }
        // A second resume from the same file agrees with the first.
        let again = resume("second");
        assert_eq!(
            snapshot(&resumed),
            snapshot(&again),
            "icnt={icnt}: two resumes from one checkpoint disagree"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Ray-traversal analytics must survive kill-and-resume byte-identically:
/// the resumed run's flat rt JSON (every heatmap cell, histogram bucket
/// and per-SM roll-up) equals the uninterrupted run's.
#[test]
fn rt_analytics_survive_resume() {
    let w = build(WorkloadKind::Tri, Scale::Test);
    let dir = ckpt_dir("rt-resume");
    let cfg = || {
        named_config(false)
            .with_rt_analytics(true)
            .with_checkpoint(400, dir.to_string_lossy().to_string())
    };
    let reference = run_plain(cfg(), &w);
    let rt_flat = |r: &RunReport| r.rt.as_ref().expect("analytics enabled").flat_json();
    // Kill the run two-thirds in, resume from the last surviving
    // checkpoint, and demand the identical characterization.
    let mut doomed = cfg();
    doomed.gpu.fault_plan.worker_panic = Some(WorkerPanicSpec {
        sm: 0,
        cycle: (reference.gpu.cycles * 2 / 3).max(401),
    });
    Simulator::new(doomed)
        .run(&w.device, &w.cmd)
        .expect_err("injected panic kills the run");
    let (cycle, last) = checkpoints_in(&dir)
        .into_iter()
        .next_back()
        .expect("checkpoint written before the kill");
    let resumed = Simulator::new(cfg())
        .resume(&w.device, &w.cmd, &last)
        .expect("resume completes");
    assert_eq!(
        rt_flat(&reference),
        rt_flat(&resumed),
        "rt analytics drifted across resume from cycle {cycle}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fixed-seed chaos campaign: each iteration injects a worker panic at a
/// pseudo-random cycle of a checkpointed run, auto-resumes from the last
/// surviving checkpoint, and gates the recovered counters against the
/// uninterrupted reference. `VKSIM_CHAOS_ITERS` scales the campaign (CI
/// runs more; the default keeps `cargo test` quick).
#[test]
fn chaos_kill_and_resume_recovers_golden_counters() {
    let iters: u64 = std::env::var("VKSIM_CHAOS_ITERS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(2);
    let w = build(WorkloadKind::Tri, Scale::Test);
    let mut lcg: u64 = 0xDEADBEEF;
    let mut next = |bound: u64| {
        lcg = lcg.wrapping_mul(1664525).wrapping_add(1013904223);
        lcg % bound.max(1)
    };
    for iter in 0..iters {
        let icnt = next(2) == 1;
        let reference = run_plain(named_config(icnt), &w);
        let every = (reference.gpu.cycles / 6).max(1);
        // Kill somewhere after the first checkpoint and before the end.
        let kill_cycle = every + 1 + next(reference.gpu.cycles.saturating_sub(every + 2));
        let sm = next(48) as usize;
        let dir = ckpt_dir(&format!("chaos-{iter}"));
        let mut cfg = named_config(icnt).with_checkpoint(every, dir.to_string_lossy().to_string());
        cfg.gpu.fault_plan.worker_panic = Some(WorkerPanicSpec {
            sm,
            cycle: kill_cycle,
        });
        let failure = Simulator::new(cfg.clone())
            .run(&w.device, &w.cmd)
            .expect_err("injected panic must kill the run");
        assert!(
            matches!(failure.error, SimError::WorkerPanicked { .. }),
            "iter {iter}: unexpected failure class: {failure}"
        );
        let ckpts = checkpoints_in(&dir);
        let (last_cycle, last_path) = ckpts.last().expect("a checkpoint survived the kill");
        assert!(
            *last_cycle <= kill_cycle,
            "iter {iter}: checkpoints stop at the kill"
        );
        // Auto-resume: same config (panic still in the plan — resume must
        // clear it, or the recovery dies at the same cycle again).
        let recovered = Simulator::new(cfg)
            .resume(&w.device, &w.cmd, last_path)
            .unwrap_or_else(|e| panic!("iter {iter}: resume from cycle {last_cycle} failed: {e}"));
        assert_eq!(
            snapshot(&reference),
            snapshot(&recovered),
            "iter {iter}: icnt={icnt} kill@{kill_cycle} sm{sm} \
             resume@{last_cycle}: recovered counters drifted"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Kill-and-resume with the checkpoint landing inside an L2 retry storm:
/// the paper machine with its L2 MSHR file cut to one entry per slice
/// refuses accesses throughout the run, so the checkpoint holds requests
/// sitting in their reservation-fail back-off. The probe run (killed one
/// back-off period before the checkpoint) and the doomed run (killed just
/// after it) prove it: refusals were counted in between.
#[test]
fn kill_and_resume_mid_retry_storm_recovers_golden_counters() {
    let w = build(WorkloadKind::Tri, Scale::Test);
    let starved = || {
        let mut config = SimConfig::paper();
        config.gpu.mem.l2.mshr_entries = config.gpu.mem.num_partitions as usize;
        config.gpu.mem.l2.mshr_merge = 2;
        config
    };
    let reference = run_plain(starved(), &w);
    let every = (reference.gpu.cycles / 5).max(8);
    let ckpt_cycle = every * 3;
    let dir = ckpt_dir("storm");
    let killed_at = |cycle: u64, checkpoint: bool| {
        let mut cfg = starved();
        if checkpoint {
            cfg = cfg.with_checkpoint(every, dir.to_string_lossy().to_string());
        }
        cfg.gpu.fault_plan.worker_panic = Some(WorkerPanicSpec { sm: 0, cycle });
        let failure = Simulator::new(cfg)
            .run(&w.device, &w.cmd)
            .expect_err("injected panic must kill the run");
        let l2 = &failure
            .report
            .as_ref()
            .expect("partial report")
            .gpu
            .l2_stats;
        l2.get("mshr.full") + l2.get("mshr.merge_fail")
    };
    let before = killed_at(ckpt_cycle - 3, false);
    let after = killed_at(ckpt_cycle + 1, true);
    assert!(
        after > before,
        "no access was refused in the back-off period before cycle {ckpt_cycle} \
         ({before} -> {after} refusals): the checkpoint is not mid-storm"
    );
    let (last_cycle, last_path) = checkpoints_in(&dir).pop().expect("checkpoint written");
    assert_eq!(last_cycle, ckpt_cycle, "the kill follows the checkpoint");
    let cfg = starved().with_checkpoint(every, dir.to_string_lossy().to_string());
    let recovered = Simulator::new(cfg)
        .resume(&w.device, &w.cmd, &last_path)
        .expect("resume completes");
    assert_eq!(
        snapshot(&reference),
        snapshot(&recovered),
        "resume from the mid-storm checkpoint at cycle {last_cycle} drifted"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupted checkpoint (bit flip in the payload) must be refused with
/// a structured `SnapshotMismatch`, not garbage state.
#[test]
fn corrupt_checkpoint_is_rejected() {
    let w = build(WorkloadKind::Tri, Scale::Test);
    let dir = ckpt_dir("corrupt");
    let cfg = || SimConfig::test_small().with_checkpoint(500, dir.to_string_lossy().to_string());
    run_plain(cfg(), &w);
    let (_, path) = checkpoints_in(&dir).pop().expect("checkpoint written");
    let mut bytes = std::fs::read(&path).expect("checkpoint readable");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();
    let failure = Simulator::new(cfg())
        .resume(&w.device, &w.cmd, &path)
        .expect_err("corrupt checkpoint must be refused");
    assert!(
        matches!(failure.error, SimError::SnapshotMismatch { .. }),
        "{failure}"
    );
    assert!(failure.report.is_none(), "the run never started");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Corruption the checksum cannot see (the file is resealed around the
/// mutated payload, as a buggy or hostile writer would) must still end in
/// a structured `SnapshotMismatch` from the payload decoder: never a
/// panic, and never memory reserved for a length the file only claims.
#[test]
fn resealed_corrupt_payloads_are_refused_by_the_decoder() {
    let w = build(WorkloadKind::Tri, Scale::Test);
    let dir = ckpt_dir("mutant");
    let cfg = || SimConfig::test_small().with_checkpoint(500, dir.to_string_lossy().to_string());
    run_plain(cfg(), &w);
    let (_, path) = checkpoints_in(&dir).pop().expect("checkpoint written");
    let healthy = vksim_snapshot::Snapshot::read(&path).expect("healthy checkpoint");
    type Mutation = fn(&mut Vec<u8>);
    let mutations: [(&str, Mutation); 3] = [
        // Bytes 8..16 count shard 0's frame stacks (0..8 count the shards).
        ("sequence length set to the bytes remaining", |payload| {
            let rest = (payload.len() - 16) as u64;
            payload[8..16].copy_from_slice(&rest.to_le_bytes());
        }),
        // The payload ends with the trace collector's presence byte.
        ("option tag 7", |payload| {
            *payload.last_mut().expect("nonempty payload") = 7
        }),
        ("payload cut in half", |payload| {
            payload.truncate(payload.len() / 2)
        }),
    ];
    for (what, mutate) in mutations {
        let mut payload = healthy.payload.clone();
        mutate(&mut payload);
        let mutant = dir.join("mutant.vksnap");
        vksim_snapshot::Snapshot::new(healthy.fingerprint, payload)
            .write_atomic(&mutant)
            .expect("mutant written");
        let failure = Simulator::new(cfg())
            .resume(&w.device, &w.cmd, &mutant)
            .expect_err(what);
        assert!(
            matches!(failure.error, SimError::SnapshotMismatch { .. }),
            "{what}: {failure}"
        );
        assert!(failure.report.is_none(), "{what}: the run never started");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs a workload (through `run`) once for its length, then again with
/// a checkpoint at cycle `at(length)`, and returns that file's bytes.
fn mid_run_checkpoint(
    tag: &str,
    config: SimConfig,
    at: fn(u64) -> u64,
    run: &dyn Fn(SimConfig) -> RunReport,
) -> Vec<u8> {
    let every = at(run(config.clone()).gpu.cycles);
    let dir = ckpt_dir(tag);
    run(config.with_checkpoint(every, dir.to_string_lossy().to_string()));
    let bytes =
        std::fs::read(dir.join(format!("ckpt-{every}.vksnap"))).expect("mid-run checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

/// The machine payload layout, pinned: one mid-run checkpoint for each of
/// four configurations that between them populate every serialized
/// structure (bounded ingress + return credits + all three observers; the
/// parked retry FIFO and refusal epochs; the multipath SIMT tables; FCC
/// tables and frame stacks), each hashed with FNV-1a-64 over the whole
/// file. A hash moves exactly when the bytes `machine_payload` writes (or
/// the configuration fingerprint) move: re-record the constants from the
/// failure message and bump `vksim_snapshot::FORMAT_VERSION` if old files
/// no longer resume.
#[test]
fn machine_layout_is_pinned() {
    let tri = build(WorkloadKind::Tri, Scale::Test);
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
    let mut starved = SimConfig::paper();
    starved.gpu.mem.l2.mshr_entries = starved.gpu.mem.num_partitions as usize;
    starved.gpu.mem.l2.mshr_merge = 2;
    let reference = build(WorkloadKind::Ref, Scale::Test);
    let mut rtv6 = build(WorkloadKind::Rtv6, Scale::Test);
    let fcc_cmd = rtv6.with_fcc(true);
    let small = SimConfig::test_small;
    let half = |cycles: u64| (cycles / 2).max(1);
    // The cycle `kill_and_resume_mid_retry_storm_recovers_golden_counters`
    // proves lies inside the storm.
    let in_storm = |cycles: u64| (cycles / 5).max(8) * 3;
    let run_fcc = |config| {
        Simulator::new(config)
            .run(&rtv6.device, &fcc_cmd)
            .expect("healthy run")
    };
    let pins: [(&str, Vec<u8>, u64); 4] = [
        (
            "tri_paper_icnt+observers",
            mid_run_checkpoint("pin-icnt", observed, half, &|c| run_plain(c, &tri)),
            0x7c71_5794_8e56_018a,
        ),
        (
            "tri_paper_l2starve",
            mid_run_checkpoint("pin-starve", starved, in_storm, &|c| run_plain(c, &tri)),
            0xc213_ddb9_2896_655c,
        ),
        (
            "ref_its",
            mid_run_checkpoint("pin-its", small().with_its(true), half, &|c| {
                run_plain(c, &reference)
            }),
            0x8993_82ef_0c95_eae8,
        ),
        (
            "rtv6_fcc",
            mid_run_checkpoint("pin-fcc", small(), half, &run_fcc),
            0x7908_aa66_d5a8_d8f0,
        ),
    ];
    let hashed: Vec<(&str, u64, usize, u64)> = pins
        .iter()
        .map(|(name, bytes, want)| {
            let got = vksim_snapshot::fnv1a(vksim_snapshot::fnv1a_init(), bytes);
            (*name, got, bytes.len(), *want)
        })
        .collect();
    let report: Vec<String> = hashed
        .iter()
        .map(|(name, got, len, _)| format!("{name}: {got:#018x} ({len} bytes)"))
        .collect();
    for (name, got, _, want) in hashed {
        assert_eq!(
            got,
            want,
            "{name}: machine layout moved; all four now hash as\n{}",
            report.join("\n")
        );
    }
}
