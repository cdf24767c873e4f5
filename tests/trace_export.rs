//! Observability-layer validation: the Chrome trace export must be
//! schema-valid and deterministic, and tracing must be a pure observer —
//! enabling it may not move a single counter.
//!
//! * Schema: the JSON parses with the in-repo reader, every event carries
//!   `ph`/`pid`, timestamps are nondecreasing per `(pid, tid)` track, and
//!   every `B` has a matching `E` (finalize closes open spans).
//! * Determinism: the serialized trace is byte-identical run-to-run — the
//!   same drain-order contract the golden counters rely on.
//! * Invariance: counter snapshots with tracing on and off are byte-equal.
//! * Flight recorder: an induced hang embeds the last trace events per SM
//!   in the post-mortem dump.

use std::collections::{BTreeMap, BTreeSet};
use vksim_bench::run_workload;
use vksim_core::{RunReport, SimConfig, Simulator, WorkerPanicSpec};
use vksim_scenes::{build, Scale, WorkloadKind};
use vksim_testkit::json::{parse_flat_u64_object, parse_json, JsonValue};
use vksim_trace::{
    chrome_trace_json, hotspot_summary, interval_csv, EventKind, TraceConfig, TraceReport,
    ICNT_STALL_TID,
};

/// `config` with tracing on (no export files — the report is inspected
/// in-process) and a short sampler period so even the tiny test scene
/// produces several intervals.
fn traced(mut config: SimConfig) -> SimConfig {
    config.gpu.trace = TraceConfig {
        enabled: true,
        interval: 256,
        ..Default::default()
    };
    config
}

fn traced_config() -> SimConfig {
    traced(SimConfig::test_small())
}

fn traced_run() -> RunReport {
    let (_, report) = run_workload(WorkloadKind::Tri, Scale::Test, traced_config());
    report
}

fn trace_of(report: &RunReport) -> &TraceReport {
    report.trace.as_ref().expect("tracing was enabled")
}

/// The same integer-exact counter flattening the golden suite gates on,
/// trimmed to the fields tracing hooks come anywhere near.
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
    m
}

/// A traced run behind a *bounded* interconnect must surface the SM
/// stall cycles end to end: the `sm.icnt_stall_cycles` counter is
/// nonzero, and the exported Chrome trace carries balanced
/// `icnt_stall` B/E spans on the dedicated per-SM track.
#[test]
fn bounded_icnt_stalls_reach_the_exported_trace() {
    let mut config = traced(SimConfig::paper());
    config.gpu.mem.icnt_queue_depth = 4;
    config.gpu.mem.icnt_return_credits = 2;
    let (_, report) = run_workload(WorkloadKind::Tri, Scale::Test, config);
    assert!(
        report.gpu.counters.get("sm.icnt_stall_cycles") > 0,
        "the bounded paper config stalls SMs"
    );

    let json = chrome_trace_json(trace_of(&report));
    let doc = parse_json(&json).expect("trace JSON parses");
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("top-level traceEvents array");
    let (mut begins, mut ends) = (0u64, 0u64);
    for ev in events {
        if ev.get("tid").and_then(JsonValue::as_u64) != Some(ICNT_STALL_TID) {
            continue;
        }
        let name = ev.get("name").and_then(JsonValue::as_str);
        assert_eq!(name, Some("icnt_stall"), "only stall spans on the track");
        match ev.get("ph").and_then(JsonValue::as_str) {
            Some("B") => begins += 1,
            Some("E") => ends += 1,
            other => panic!("unexpected ph {other:?} on the icnt_stall track"),
        }
    }
    assert!(begins > 0, "stalls produced spans");
    assert_eq!(begins, ends, "finalize closes every stall span");
}

#[test]
fn chrome_trace_schema_is_valid() {
    let report = traced_run();
    let trace = trace_of(&report);
    assert!(!trace.events.is_empty(), "a real run produces events");
    assert!(!trace.intervals.is_empty(), "sampler produced intervals");

    let json = chrome_trace_json(trace);
    let doc = parse_json(&json).expect("trace JSON parses");
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("top-level traceEvents array");
    assert!(!events.is_empty());

    let mut meta_names: Vec<String> = Vec::new();
    let mut last_ts: BTreeMap<(u64, u64), f64> = BTreeMap::new();
    let mut open_spans: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    let mut counter_events = 0usize;
    for ev in events {
        let ph = ev
            .get("ph")
            .and_then(JsonValue::as_str)
            .expect("every event has ph");
        let pid = ev
            .get("pid")
            .and_then(JsonValue::as_u64)
            .expect("every event has pid");
        assert!(
            pid <= trace.num_sms as u64,
            "pid {pid} beyond the memory pseudo-process"
        );
        if ph == "M" {
            let name = ev
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(JsonValue::as_str)
                .expect("metadata names its process");
            meta_names.push(name.to_string());
            continue;
        }
        let tid = ev.get("tid").and_then(JsonValue::as_u64).expect("tid");
        let ts = ev.get("ts").and_then(JsonValue::as_f64).expect("ts");
        let track = (pid, tid);
        if let Some(&prev) = last_ts.get(&track) {
            assert!(
                ts >= prev,
                "track ({pid},{tid}): ts went backwards {prev} -> {ts}"
            );
        }
        last_ts.insert(track, ts);
        match ph {
            "B" => *open_spans.entry(track).or_default() += 1,
            "E" => {
                let open = open_spans
                    .get_mut(&track)
                    .expect("E only on a track that opened a span");
                assert!(*open > 0, "track ({pid},{tid}): unmatched E");
                *open -= 1;
            }
            "X" => {
                assert!(
                    ev.get("dur").and_then(JsonValue::as_u64).is_some(),
                    "complete events carry a duration"
                );
            }
            "C" => {
                counter_events += 1;
                assert_eq!(pid, trace.num_sms as u64, "counters live in Memory");
                assert!(ev
                    .get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(JsonValue::as_f64)
                    .is_some());
            }
            "i" => {}
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert!(
        open_spans.values().all(|&n| n == 0),
        "finalize must close every span: {open_spans:?}"
    );
    assert_eq!(
        meta_names.len(),
        trace.num_sms as usize + 1,
        "one process_name per SM plus Memory"
    );
    assert!(meta_names.iter().any(|n| n == "Memory"));
    assert_eq!(
        counter_events,
        trace.intervals.len() * 5,
        "five counter series per sampled interval"
    );
}

#[test]
fn trace_is_deterministic() {
    let a = traced_run();
    let b = traced_run();
    assert_eq!(
        chrome_trace_json(trace_of(&a)),
        chrome_trace_json(trace_of(&b)),
        "trace JSON must be byte-identical run-to-run"
    );
    assert_eq!(interval_csv(trace_of(&a)), interval_csv(trace_of(&b)));
}

/// The partitioned memory path (8 partitions, FR-FCFS) must serialize a
/// byte-identical trace run-to-run — partition IDs on MSHR and
/// row-activate events included.
#[test]
fn partitioned_trace_is_byte_deterministic() {
    let run = || run_workload(WorkloadKind::Tri, Scale::Test, traced(SimConfig::paper())).1;
    let a = run();
    let b = run();
    let json_a = chrome_trace_json(trace_of(&a));
    assert!(
        json_a.contains("\"partition\""),
        "partitioned trace must carry partition IDs"
    );
    assert_eq!(
        json_a,
        chrome_trace_json(trace_of(&b)),
        "partitioned trace JSON must be byte-identical run-to-run"
    );
    assert_eq!(interval_csv(trace_of(&a)), interval_csv(trace_of(&b)));
}

#[test]
fn tracing_does_not_change_counters() {
    let (_, base) = run_workload(WorkloadKind::Tri, Scale::Test, SimConfig::test_small());
    assert!(base.trace.is_none(), "tracing is off by default");
    assert_eq!(
        snapshot(&base),
        snapshot(&traced_run()),
        "tracing must be a pure observer"
    );
}

#[test]
fn csv_and_summary_are_well_formed() {
    let report = traced_run();
    let trace = trace_of(&report);
    let csv = interval_csv(trace);
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(
        lines.len(),
        trace.intervals.len() + 1,
        "header + one row each"
    );
    let cols = lines[0].split(',').count();
    for line in &lines[1..] {
        assert_eq!(line.split(',').count(), cols, "ragged CSV row: {line}");
    }
    let summary = hotspot_summary(trace, 5);
    assert!(summary.contains("hottest PCs"));
    assert!(summary.contains("longest-stalled warps"));
    assert!(summary.contains("RT-occupancy"));
}

#[test]
fn exporter_writes_requested_files() {
    let dir = std::env::temp_dir();
    let out = dir.join(format!("vksim_trace_export_{}.json", std::process::id()));
    let csv = dir.join(format!("vksim_trace_export_{}.csv", std::process::id()));
    let mut cfg = traced_config();
    cfg.gpu.trace.out = Some(out.to_string_lossy().into_owned());
    cfg.gpu.trace.csv = Some(csv.to_string_lossy().into_owned());
    let w = build(WorkloadKind::Tri, Scale::Test);
    Simulator::new(cfg)
        .run(&w.device, &w.cmd)
        .expect("healthy run");
    let text = std::fs::read_to_string(&out).expect("Chrome trace file written");
    parse_json(&text).expect("written trace parses");
    let csv_text = std::fs::read_to_string(&csv).expect("CSV written");
    assert!(csv_text.starts_with("start,len,"));
    let _ = std::fs::remove_file(&out);
    let _ = std::fs::remove_file(&csv);
}

/// Streaming export: with an out file configured, event chunks are
/// flushed at interval boundaries instead of accumulating in RAM, and
/// the finished file must be byte-identical to the one-shot
/// serialization of an identical in-memory run.
#[test]
fn streamed_export_is_byte_identical_to_one_shot() {
    let out = std::env::temp_dir().join(format!(
        "vksim_stream_vs_oneshot_{}.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&out);
    let w = build(WorkloadKind::Tri, Scale::Test);
    let mut cfg = traced_config();
    cfg.gpu.trace.out = Some(out.to_string_lossy().into_owned());
    let streamed = Simulator::new(cfg)
        .run(&w.device, &w.cmd)
        .expect("healthy run");
    let trace = trace_of(&streamed);
    assert!(
        trace.streamed,
        "out file puts the collector in streaming mode"
    );
    assert!(
        trace.flushed > 0,
        "interval boundaries flushed event chunks"
    );
    assert!(
        trace.events.is_empty(),
        "flushed events left RAM ({} remained)",
        trace.events.len()
    );
    let in_memory = Simulator::new(traced_config())
        .run(&w.device, &w.cmd)
        .expect("healthy run");
    assert_eq!(
        std::fs::read_to_string(&out).expect("streamed file written"),
        chrome_trace_json(trace_of(&in_memory)),
        "streamed file must be byte-identical to the one-shot export"
    );
    let _ = std::fs::remove_file(&out);
}

/// Interval-sampler continuity across checkpoint/resume: a traced run
/// killed mid-flight and resumed from its last checkpoint must serialize
/// the identical interval CSV and Chrome trace as an uninterrupted run.
/// The checkpoint period (300) is deliberately *not* a multiple of the
/// sampler interval (256), so every resume lands mid-interval — a resume
/// that reset the sampler cursor would emit a duplicate or short row, and
/// one that reset the saturating-delta baselines would inflate the first
/// post-resume deltas.
#[test]
fn sampler_survives_resume_without_duplicate_intervals() {
    let w = build(WorkloadKind::Tri, Scale::Test);
    let reference = Simulator::new(traced_config())
        .run(&w.device, &w.cmd)
        .expect("healthy run");
    let dir = std::env::temp_dir().join(format!("vksim-trace-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = || {
        let mut c = traced_config().with_checkpoint(300, dir.to_string_lossy().to_string());
        c.gpu.fault_plan.worker_panic = Some(WorkerPanicSpec {
            sm: 0,
            cycle: (reference.gpu.cycles * 2 / 3).max(301),
        });
        c
    };
    Simulator::new(cfg())
        .run(&w.device, &w.cmd)
        .expect_err("injected panic kills the run");
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
        .expect("checkpoint written before the kill");
    let resumed = Simulator::new(cfg())
        .resume(&w.device, &w.cmd, &last_ckpt)
        .expect("resume completes");
    let csv = interval_csv(trace_of(&resumed));
    assert_eq!(
        interval_csv(trace_of(&reference)),
        csv,
        "resumed interval series must be byte-identical to uninterrupted"
    );
    let starts: Vec<&str> = csv
        .lines()
        .skip(1)
        .map(|l| l.split(',').next().unwrap())
        .collect();
    let unique: BTreeSet<&&str> = starts.iter().collect();
    assert_eq!(starts.len(), unique.len(), "no duplicated interval rows");
    assert_eq!(
        chrome_trace_json(trace_of(&reference)),
        chrome_trace_json(trace_of(&resumed)),
        "resumed Chrome trace must be byte-identical to uninterrupted"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Streamed-file continuity across checkpoint/resume: the doomed run
/// keeps flushing chunks past the checkpoint (and even finalizes its
/// file on the fault path), so the resume must reopen the file,
/// truncate back to the checkpointed byte cursor, and continue — ending
/// with a file byte-identical to an uninterrupted streamed run's.
#[test]
fn streamed_file_survives_resume_byte_identically() {
    let tmp = std::env::temp_dir();
    let ref_out = tmp.join(format!("vksim_stream_ref_{}.json", std::process::id()));
    let out = tmp.join(format!("vksim_stream_resume_{}.json", std::process::id()));
    let dir = tmp.join(format!("vksim-stream-resume-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_file(&ref_out);
    let _ = std::fs::remove_file(&out);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let w = build(WorkloadKind::Tri, Scale::Test);
    let mut ref_cfg = traced_config();
    ref_cfg.gpu.trace.out = Some(ref_out.to_string_lossy().into_owned());
    let reference = Simulator::new(ref_cfg)
        .run(&w.device, &w.cmd)
        .expect("healthy run");
    assert!(trace_of(&reference).streamed);
    let want = std::fs::read_to_string(&ref_out).expect("reference streamed file");
    let cfg = || {
        let mut c = traced_config().with_checkpoint(300, dir.to_string_lossy().to_string());
        c.gpu.trace.out = Some(out.to_string_lossy().into_owned());
        c.gpu.fault_plan.worker_panic = Some(WorkerPanicSpec {
            sm: 0,
            cycle: (reference.gpu.cycles * 2 / 3).max(301),
        });
        c
    };
    Simulator::new(cfg())
        .run(&w.device, &w.cmd)
        .expect_err("injected panic kills the run");
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
        .expect("checkpoint written before the kill");
    let resumed = Simulator::new(cfg())
        .resume(&w.device, &w.cmd, &last_ckpt)
        .expect("resume completes");
    assert!(trace_of(&resumed).streamed);
    assert_eq!(
        std::fs::read_to_string(&out).expect("resumed streamed file"),
        want,
        "resumed streamed file must be byte-identical to uninterrupted"
    );
    let _ = std::fs::remove_file(&ref_out);
    let _ = std::fs::remove_file(&out);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fault_dump_embeds_flight_recorder() {
    let w = build(WorkloadKind::Tri, Scale::Test);
    let mut cfg = traced_config();
    cfg.gpu.watchdog_cycles = 2_000;
    cfg.gpu.fault_plan.stall_warp = Some(0);
    let failure = Simulator::new(cfg)
        .run(&w.device, &w.cmd)
        .expect_err("stalled warp must livelock");
    let path = failure
        .dump
        .as_ref()
        .expect("classified fault writes a dump");
    let text = std::fs::read_to_string(path).expect("dump readable");
    let dump = parse_flat_u64_object(&text).expect("dump stays flat JSON with tracing on");
    assert!(
        dump.contains_key("sm0.trace.ev0.cycle"),
        "flight recorder events embedded in the dump"
    );
    assert!(dump.contains_key("sm0.trace.ev0.kind"));
    // The last declared event tag.
    let max_code = EventKind::IcntStallEnd { cycles: 0 }.code();
    for (k, v) in &dump {
        if k.contains(".trace.ev") && k.ends_with(".kind") {
            assert!(*v <= max_code, "{k}: kind code {v} out of range");
        }
    }
}
