//! Exporters: Chrome trace-event JSON, interval CSV, hotspot summary.
//!
//! # Track model
//!
//! Each SM is one Chrome *process* (`pid` = SM id); the shared memory
//! system is one extra process (`pid` = `num_sms`). Within an SM process:
//!
//! * `tid 0` — the RT unit's busy span (`B`/`E` pairs);
//! * `tid warp+1` — per-warp instants (issue, retire, diverge,
//!   reconverge, RT enqueue, warp-attributed MSHR traffic) and the
//!   memory-stall span (`B`/`E` pairs);
//! * `tid 1_000_000 + warp` — RT traversal spans as complete (`X`)
//!   events, emitted at finish time with `ts = finish - latency`;
//! * `tid 2_000_000` — MSHR traffic not attributable to a warp (the RT
//!   unit's memory port);
//! * `tid 3_000_000` — the SM-wide interconnect-backpressure span
//!   (`B`/`E` pairs while the bounded icnt refuses the SM's requests).
//!
//! In the memory process, `tid` = DRAM channel for row-activate instants,
//! the interval series is appended as counter (`C`) events on
//! `tid 1_000_000`, and — when cycle accounting rides along — the
//! per-category accounting series (`acct_<category>`) as counter events
//! on `tid 4_000_000`. Timestamps are core cycles (Perfetto displays
//! them as microseconds; only relative scale matters).

use crate::accounting::{CycleCategory, NUM_CATEGORIES};
use crate::config::TraceConfig;
use crate::event::{Event, EventKind, NO_WARP};
use crate::rt_analytics::NUM_RT_SERIES;
use crate::sampler::IntervalRecord;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Thread-id offset for per-warp traversal tracks.
pub const TRAVERSAL_TID_BASE: u64 = 1_000_000;
/// Thread id for warp-less MSHR traffic.
pub const MSHR_TID: u64 = 2_000_000;
/// Thread id for the SM-wide interconnect-backpressure span.
pub const ICNT_STALL_TID: u64 = 3_000_000;
/// Thread id for interval counter events in the memory process.
pub const COUNTER_TID: u64 = 1_000_000;
/// Thread id for per-category cycle-accounting counter events in the
/// memory process.
pub const PROF_TID: u64 = 4_000_000;
/// Thread id for RT-analytics counter events in the memory process.
pub const RT_TID: u64 = 5_000_000;

/// Chrome counter-track names for the RT-analytics series, in the same
/// order as the `[u64; NUM_RT_SERIES]` samples.
const RT_SERIES_NAMES: [&str; NUM_RT_SERIES] = [
    "rt_trace_warps",
    "rt_lane_steps",
    "rt_warp_steps",
    "rt_unit_steps",
];

/// Everything collected over a run, ready for export.
#[derive(Clone, Debug)]
pub struct TraceReport {
    /// Number of SM processes; the memory pseudo-process is `num_sms`.
    pub num_sms: u32,
    /// Last simulated cycle.
    pub final_cycle: u64,
    /// Interval-sampler period used.
    pub interval: u64,
    /// Merged `(sm, event)` stream in deterministic drain order.
    pub events: Vec<(u32, Event)>,
    /// The interval time series.
    pub intervals: Vec<IntervalRecord>,
    /// Events discarded after the `max_events` cap was hit.
    pub dropped: u64,
    /// Issues per PC, merged across SMs.
    pub pc_issues: BTreeMap<u32, u64>,
    /// Stall cycles per `(sm, warp)`.
    pub warp_stalls: BTreeMap<(u32, u32), u64>,
    /// Cumulative merged cycle-accounting totals sampled at interval
    /// boundaries (empty unless accounting was enabled alongside
    /// tracing).
    pub prof_series: Vec<(u64, [u64; NUM_CATEGORIES])>,
    /// Cumulative merged RT-analytics series sampled at interval
    /// boundaries (empty unless RT analytics was enabled alongside
    /// tracing).
    pub rt_series: Vec<(u64, [u64; NUM_RT_SERIES])>,
    /// Traversal jobs and Σ resident latency per `(sm, warp)`.
    pub rt_warp_latency: BTreeMap<(u32, u32), (u64, u64)>,
    /// Events already flushed to the `out` file by the streaming exporter
    /// (and therefore absent from [`TraceReport::events`]); 0 on
    /// in-memory runs.
    pub flushed: u64,
    /// Whether the streaming exporter wrote (and finalized) the `out`
    /// file itself — when set, the one-shot export must not overwrite it.
    pub streamed: bool,
    /// The configuration the trace was collected under.
    pub config: TraceConfig,
}

/// Serializes the report as Chrome trace-event JSON (Perfetto-loadable).
/// Output is byte-deterministic for a fixed report.
///
/// Built from the same three pieces the streaming exporter writes
/// incrementally — `chrome_header`, `chrome_event_chunk`,
/// `chrome_counter_tail` — so a streamed file and a one-shot export of
/// the same event stream are byte-identical.
pub fn chrome_trace_json(report: &TraceReport) -> String {
    let mut out = chrome_header(report.num_sms);
    chrome_event_chunk(&mut out, &report.events);
    out.push_str(&chrome_counter_tail(report));
    out
}

/// The opening of the Chrome trace: the `traceEvents` array start plus
/// one process-name metadata record per SM and one for the memory
/// pseudo-process. At least one metadata record is always emitted, so
/// every subsequent record is `",\n"`-prefixed.
pub(crate) fn chrome_header(num_sms: u32) -> String {
    let mut out = String::with_capacity(64 * 1024);
    out.push_str("{\"traceEvents\":[\n");
    let mut first = true;
    for sm in 0..num_sms {
        meta(&mut out, &mut first, sm as u64, &format!("SM {sm}"));
    }
    meta(&mut out, &mut first, num_sms as u64, "Memory");
    out
}

/// Appends a chunk of timeline events (in deterministic drain order) to
/// a trace opened by [`chrome_header`].
pub(crate) fn chrome_event_chunk(out: &mut String, events: &[(u32, Event)]) {
    let mut first = false;
    for &(sm, ev) in events {
        emit_event(out, &mut first, sm as u64, ev);
    }
}

/// The closing of the Chrome trace: interval counter series, the
/// cycle-accounting and RT-analytics counter tracks, and the array
/// footer.
pub(crate) fn chrome_counter_tail(report: &TraceReport) -> String {
    let mut out = String::new();
    let mut first = false;
    // Interval counter series in the memory process.
    for rec in &report.intervals {
        for (name, value) in [
            ("ipc", rec.ipc()),
            ("l1_hit_rate", rec.l1_hit_rate()),
            ("l2_hit_rate", rec.l2_hit_rate()),
            ("dram_bw", rec.dram_bw()),
            ("rt_occupancy", rec.rt_occupancy()),
        ] {
            sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"name\":\"{name}\",\"ph\":\"C\",\"ts\":{},\"pid\":{},\"tid\":{COUNTER_TID},\"args\":{{\"value\":{value:.6}}}}}",
                rec.start, report.num_sms
            );
        }
    }
    // Per-category cycle-accounting counter tracks: each sample emits the
    // SM-cycles spent per category since the previous sample, stamped at
    // the start of its window.
    let mut prev_cycle = 0u64;
    let mut prev = [0u64; NUM_CATEGORIES];
    for &(cycle, totals) in &report.prof_series {
        for (i, cat) in CycleCategory::ALL.iter().enumerate() {
            let delta = totals[i].saturating_sub(prev[i]);
            sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"name\":\"acct_{}\",\"ph\":\"C\",\"ts\":{prev_cycle},\"pid\":{},\"tid\":{PROF_TID},\"args\":{{\"value\":{delta}}}}}",
                cat.name(),
                report.num_sms
            );
        }
        prev_cycle = cycle;
        prev = totals;
    }
    // RT-analytics counter tracks: per-window deltas of the traversal
    // coherence / RT-unit step series, stamped at the window start.
    let mut prev_cycle = 0u64;
    let mut prev = [0u64; NUM_RT_SERIES];
    for &(cycle, totals) in &report.rt_series {
        for (i, name) in RT_SERIES_NAMES.iter().enumerate() {
            let delta = totals[i].saturating_sub(prev[i]);
            sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"name\":\"{name}\",\"ph\":\"C\",\"ts\":{prev_cycle},\"pid\":{},\"tid\":{RT_TID},\"args\":{{\"value\":{delta}}}}}",
                report.num_sms
            );
        }
        prev_cycle = cycle;
        prev = totals;
    }
    out.push_str("\n]}\n");
    out
}

fn meta(out: &mut String, first: &mut bool, pid: u64, name: &str) {
    sep(out, first);
    let _ = write!(
        out,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":\"{name}\"}}}}"
    );
}

fn sep(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push_str(",\n");
    }
}

fn emit_event(out: &mut String, first: &mut bool, sm: u64, ev: Event) {
    let name = ev.kind.name();
    let warp_tid = |w: u32| w as u64 + 1;
    sep(out, first);
    match ev.kind {
        EventKind::Issue { pc, lanes } => {
            let _ = write!(
                out,
                "{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":{sm},\"tid\":{},\"args\":{{\"pc\":{pc},\"lanes\":{lanes}}}}}",
                ev.cycle,
                warp_tid(ev.warp)
            );
        }
        EventKind::StallBegin => {
            let _ = write!(
                out,
                "{{\"name\":\"{name}\",\"ph\":\"B\",\"ts\":{},\"pid\":{sm},\"tid\":{}}}",
                ev.cycle,
                warp_tid(ev.warp)
            );
        }
        EventKind::StallEnd { cycles } => {
            let _ = write!(
                out,
                "{{\"name\":\"{name}\",\"ph\":\"E\",\"ts\":{},\"pid\":{sm},\"tid\":{},\"args\":{{\"cycles\":{cycles}}}}}",
                ev.cycle,
                warp_tid(ev.warp)
            );
        }
        EventKind::Retire => {
            let _ = write!(
                out,
                "{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":{sm},\"tid\":{}}}",
                ev.cycle,
                warp_tid(ev.warp)
            );
        }
        EventKind::Diverge { pc } | EventKind::Reconverge { pc } => {
            let _ = write!(
                out,
                "{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":{sm},\"tid\":{},\"args\":{{\"pc\":{pc}}}}}",
                ev.cycle,
                warp_tid(ev.warp)
            );
        }
        EventKind::RtBusyBegin => {
            let _ = write!(
                out,
                "{{\"name\":\"{name}\",\"ph\":\"B\",\"ts\":{},\"pid\":{sm},\"tid\":0}}",
                ev.cycle
            );
        }
        EventKind::RtBusyEnd => {
            let _ = write!(
                out,
                "{{\"name\":\"{name}\",\"ph\":\"E\",\"ts\":{},\"pid\":{sm},\"tid\":0}}",
                ev.cycle
            );
        }
        EventKind::RtStart => {
            let _ = write!(
                out,
                "{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":{sm},\"tid\":{}}}",
                ev.cycle,
                warp_tid(ev.warp)
            );
        }
        EventKind::RtFinish { latency } => {
            // A complete span on the warp's traversal track, ending now.
            let start = ev.cycle.saturating_sub(latency);
            let _ = write!(
                out,
                "{{\"name\":\"{name}\",\"ph\":\"X\",\"ts\":{start},\"dur\":{latency},\"pid\":{sm},\"tid\":{}}}",
                TRAVERSAL_TID_BASE + ev.warp as u64
            );
        }
        EventKind::MshrAlloc { line, partition } | EventKind::MshrFill { line, partition } => {
            let tid = if ev.warp == NO_WARP {
                MSHR_TID
            } else {
                warp_tid(ev.warp)
            };
            let _ = write!(
                out,
                "{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":{sm},\"tid\":{tid},\"args\":{{\"line\":{line},\"partition\":{partition}}}}}",
                ev.cycle
            );
        }
        EventKind::DramRowActivate {
            partition,
            channel,
            bank,
        } => {
            let _ = write!(
                out,
                "{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":{sm},\"tid\":{channel},\"args\":{{\"partition\":{partition},\"bank\":{bank}}}}}",
                ev.cycle
            );
        }
        EventKind::IcntStallBegin => {
            let _ = write!(
                out,
                "{{\"name\":\"{name}\",\"ph\":\"B\",\"ts\":{},\"pid\":{sm},\"tid\":{ICNT_STALL_TID}}}",
                ev.cycle
            );
        }
        EventKind::IcntStallEnd { cycles } => {
            let _ = write!(
                out,
                "{{\"name\":\"{name}\",\"ph\":\"E\",\"ts\":{},\"pid\":{sm},\"tid\":{ICNT_STALL_TID},\"args\":{{\"cycles\":{cycles}}}}}",
                ev.cycle
            );
        }
    }
}

/// Serializes the interval series as flat CSV (header + one row per
/// interval). Derived-metric columns use fixed 6-decimal formatting so
/// the file is byte-deterministic.
pub fn interval_csv(report: &TraceReport) -> String {
    let mut out = String::new();
    out.push_str(
        "start,len,issued_insts,ipc,l1_hits,l1_misses,l1_hit_rate,l2_hits,l2_misses,\
         l2_hit_rate,dram_reqs,dram_bw,rt_occupancy,rt_busy_cycles\n",
    );
    for r in &report.intervals {
        let d = &r.delta;
        let _ = writeln!(
            out,
            "{},{},{},{:.6},{},{},{:.6},{},{},{:.6},{},{:.6},{:.6},{}",
            r.start,
            r.len,
            d.issued_insts,
            r.ipc(),
            d.l1_hits,
            d.l1_misses,
            r.l1_hit_rate(),
            d.l2_hits,
            d.l2_misses,
            r.l2_hit_rate(),
            d.dram_reqs,
            r.dram_bw(),
            r.rt_occupancy(),
            d.rt_busy_cycles
        );
    }
    out
}

/// Renders a human-readable top-`n` hotspot summary: hottest PCs,
/// longest-stalled warps, and the worst RT-occupancy intervals among
/// intervals where the RT units were active at all.
pub fn hotspot_summary(report: &TraceReport, n: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== trace summary: {} cycles, {} SMs, {} events ({} dropped), {} intervals ===",
        report.final_cycle,
        report.num_sms,
        report.events.len() as u64 + report.flushed,
        report.dropped,
        report.intervals.len()
    );

    let _ = writeln!(out, "\nhottest PCs (by issued instructions):");
    let mut pcs: Vec<(u32, u64)> = report.pc_issues.iter().map(|(&pc, &c)| (pc, c)).collect();
    pcs.sort_by_key(|&(pc, c)| (std::cmp::Reverse(c), pc));
    for (pc, count) in pcs.iter().take(n) {
        let _ = writeln!(out, "  pc {pc:>6}  {count:>10} issues");
    }

    let _ = writeln!(out, "\nlongest-stalled warps (memory stall cycles):");
    let mut stalls: Vec<((u32, u32), u64)> =
        report.warp_stalls.iter().map(|(&k, &v)| (k, v)).collect();
    stalls.sort_by_key(|&(k, v)| (std::cmp::Reverse(v), k));
    for ((sm, warp), cycles) in stalls.iter().take(n) {
        let _ = writeln!(out, "  sm {sm:>2} warp {warp:>3}  {cycles:>10} cycles");
    }

    if !report.rt_warp_latency.is_empty() {
        let _ = writeln!(out, "\ntop traversal-latency warps (RT resident cycles):");
        let mut lat: Vec<((u32, u32), (u64, u64))> = report
            .rt_warp_latency
            .iter()
            .map(|(&k, &v)| (k, v))
            .collect();
        lat.sort_by_key(|&(k, (_, cycles))| (std::cmp::Reverse(cycles), k));
        for ((sm, warp), (jobs, cycles)) in lat.iter().take(n) {
            let _ = writeln!(
                out,
                "  sm {sm:>2} warp {warp:>3}  {cycles:>10} cycles over {jobs:>5} jobs"
            );
        }

        let _ = writeln!(out, "\nbusiest RT units (traversal jobs per SM):");
        let mut per_sm: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        for (&(sm, _), &(jobs, cycles)) in &report.rt_warp_latency {
            let agg = per_sm.entry(sm).or_insert((0, 0));
            agg.0 += jobs;
            agg.1 += cycles;
        }
        let mut units: Vec<(u32, (u64, u64))> = per_sm.into_iter().collect();
        units.sort_by_key(|&(sm, (jobs, _))| (std::cmp::Reverse(jobs), sm));
        for (sm, (jobs, cycles)) in units.iter().take(n) {
            let _ = writeln!(
                out,
                "  sm {sm:>2}  {jobs:>8} jobs  {cycles:>12} resident cycles"
            );
        }
    }

    let _ = writeln!(out, "\nworst RT-occupancy intervals (RT active only):");
    let mut active: Vec<&IntervalRecord> = report
        .intervals
        .iter()
        .filter(|r| r.delta.rt_busy_cycles > 0)
        .collect();
    active.sort_by(|a, b| {
        a.rt_occupancy()
            .partial_cmp(&b.rt_occupancy())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.start.cmp(&b.start))
    });
    for r in active.iter().take(n) {
        let _ = writeln!(
            out,
            "  [{:>8}, {:>8})  occupancy {:>8.3}  ipc {:>7.3}",
            r.start,
            r.start + r.len,
            r.rt_occupancy(),
            r.ipc()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::IntervalSnapshot;

    fn tiny_report() -> TraceReport {
        let events = vec![
            (
                0,
                Event {
                    cycle: 1,
                    warp: 0,
                    kind: EventKind::Issue { pc: 4, lanes: 32 },
                },
            ),
            (
                0,
                Event {
                    cycle: 2,
                    warp: 0,
                    kind: EventKind::StallBegin,
                },
            ),
            (
                0,
                Event {
                    cycle: 9,
                    warp: 0,
                    kind: EventKind::StallEnd { cycles: 7 },
                },
            ),
            (
                1,
                Event {
                    cycle: 3,
                    warp: NO_WARP,
                    kind: EventKind::RtBusyBegin,
                },
            ),
            (
                1,
                Event {
                    cycle: 8,
                    warp: NO_WARP,
                    kind: EventKind::RtBusyEnd,
                },
            ),
            (
                1,
                Event {
                    cycle: 8,
                    warp: 2,
                    kind: EventKind::RtFinish { latency: 5 },
                },
            ),
            (
                0,
                Event {
                    cycle: 4,
                    warp: NO_WARP,
                    kind: EventKind::IcntStallBegin,
                },
            ),
            (
                0,
                Event {
                    cycle: 7,
                    warp: NO_WARP,
                    kind: EventKind::IcntStallEnd { cycles: 3 },
                },
            ),
            (
                2,
                Event {
                    cycle: 6,
                    warp: NO_WARP,
                    kind: EventKind::DramRowActivate {
                        partition: 0,
                        channel: 1,
                        bank: 3,
                    },
                },
            ),
        ];
        let mut pc_issues = BTreeMap::new();
        pc_issues.insert(4, 1);
        let mut warp_stalls = BTreeMap::new();
        warp_stalls.insert((0, 0), 7);
        TraceReport {
            num_sms: 2,
            final_cycle: 10,
            interval: 4,
            events,
            intervals: vec![IntervalRecord {
                start: 0,
                len: 4,
                delta: IntervalSnapshot {
                    issued_insts: 8,
                    rt_busy_cycles: 2,
                    rt_resident_warp_cycles: 4,
                    ..Default::default()
                },
            }],
            dropped: 0,
            pc_issues,
            warp_stalls,
            prof_series: Vec::new(),
            rt_series: Vec::new(),
            rt_warp_latency: BTreeMap::new(),
            flushed: 0,
            streamed: false,
            config: TraceConfig::default(),
        }
    }

    #[test]
    fn one_shot_export_equals_streamed_pieces() {
        let r = tiny_report();
        let mut streamed = chrome_header(r.num_sms);
        // Flush the events in three uneven chunks, as the streaming
        // exporter would at interval boundaries.
        chrome_event_chunk(&mut streamed, &r.events[..2]);
        chrome_event_chunk(&mut streamed, &r.events[2..2]);
        chrome_event_chunk(&mut streamed, &r.events[2..]);
        streamed.push_str(&chrome_counter_tail(&r));
        assert_eq!(streamed, chrome_trace_json(&r), "chunking is invisible");
    }

    #[test]
    fn chrome_json_has_metadata_and_balanced_spans() {
        let json = chrome_trace_json(&tiny_report());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"SM 0\""));
        assert!(json.contains("\"name\":\"SM 1\""));
        assert!(json.contains("\"name\":\"Memory\""));
        assert_eq!(
            json.matches("\"ph\":\"B\"").count(),
            json.matches("\"ph\":\"E\"").count()
        );
        // The icnt-backpressure span lands on its dedicated SM track.
        assert!(json.contains(&format!(
            "\"name\":\"icnt_stall\",\"ph\":\"B\",\"ts\":4,\"pid\":0,\"tid\":{ICNT_STALL_TID}"
        )));
        // The traversal span lands on the offset track with ts = finish-latency.
        assert!(json.contains(&format!(
            "\"ts\":3,\"dur\":5,\"pid\":1,\"tid\":{}",
            TRAVERSAL_TID_BASE + 2
        )));
        // Counters present for the sampled interval.
        assert!(json.contains("\"name\":\"ipc\""));
        assert!(json.contains("\"value\":2.000000"));
    }

    #[test]
    fn accounting_counter_tracks_emit_deltas() {
        let mut r = tiny_report();
        let mut a = [0u64; NUM_CATEGORIES];
        a[CycleCategory::Issued as usize] = 5;
        a[CycleCategory::MemStall as usize] = 3;
        let mut b = a;
        b[CycleCategory::Issued as usize] = 9;
        b[CycleCategory::Drained as usize] = 4;
        r.prof_series = vec![(4, a), (8, b)];
        let json = chrome_trace_json(&r);
        // First window [0,4): cumulative == delta, stamped at ts 0.
        assert!(json.contains(&format!(
            "\"name\":\"acct_issued\",\"ph\":\"C\",\"ts\":0,\"pid\":2,\"tid\":{PROF_TID},\"args\":{{\"value\":5}}"
        )));
        // Second window [4,8): deltas, stamped at ts 4.
        assert!(json.contains(&format!(
            "\"name\":\"acct_issued\",\"ph\":\"C\",\"ts\":4,\"pid\":2,\"tid\":{PROF_TID},\"args\":{{\"value\":4}}"
        )));
        assert!(json.contains(&format!(
            "\"name\":\"acct_drained\",\"ph\":\"C\",\"ts\":4,\"pid\":2,\"tid\":{PROF_TID},\"args\":{{\"value\":4}}"
        )));
        // A report without a prof series emits no accounting tracks.
        assert!(!chrome_trace_json(&tiny_report()).contains("acct_"));
    }

    #[test]
    fn rt_counter_tracks_emit_deltas() {
        let mut r = tiny_report();
        r.rt_series = vec![(4, [2, 60, 5, 30]), (8, [3, 100, 9, 64])];
        let json = chrome_trace_json(&r);
        // First window [0,4): cumulative == delta, stamped at ts 0.
        assert!(json.contains(&format!(
            "\"name\":\"rt_trace_warps\",\"ph\":\"C\",\"ts\":0,\"pid\":2,\"tid\":{RT_TID},\"args\":{{\"value\":2}}"
        )));
        // Second window [4,8): deltas, stamped at ts 4.
        assert!(json.contains(&format!(
            "\"name\":\"rt_lane_steps\",\"ph\":\"C\",\"ts\":4,\"pid\":2,\"tid\":{RT_TID},\"args\":{{\"value\":40}}"
        )));
        assert!(json.contains(&format!(
            "\"name\":\"rt_unit_steps\",\"ph\":\"C\",\"ts\":4,\"pid\":2,\"tid\":{RT_TID},\"args\":{{\"value\":34}}"
        )));
        // A report without an RT series emits no RT counter tracks.
        assert!(!chrome_trace_json(&tiny_report()).contains("rt_trace_warps"));
    }

    #[test]
    fn summary_lists_rt_hotspots_only_when_present() {
        let plain = hotspot_summary(&tiny_report(), 5);
        assert!(!plain.contains("top traversal-latency warps"));
        let mut r = tiny_report();
        r.rt_warp_latency.insert((0, 3), (2, 900));
        r.rt_warp_latency.insert((1, 7), (5, 1400));
        let s = hotspot_summary(&r, 5);
        assert!(s.contains("top traversal-latency warps"));
        assert!(s.contains("sm  1 warp   7        1400 cycles over     5 jobs"));
        assert!(s.contains("busiest RT units"));
        assert!(s.contains("sm  1         5 jobs          1400 resident cycles"));
    }

    #[test]
    fn chrome_json_is_deterministic() {
        let r = tiny_report();
        assert_eq!(chrome_trace_json(&r), chrome_trace_json(&r));
    }

    #[test]
    fn csv_has_header_and_one_row_per_interval() {
        let csv = interval_csv(&tiny_report());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("start,len,issued_insts,ipc"));
        assert!(lines[1].starts_with("0,4,8,2.000000"));
    }

    #[test]
    fn summary_lists_hotspots() {
        let s = hotspot_summary(&tiny_report(), 5);
        assert!(s.contains("hottest PCs"));
        assert!(s.contains("pc      4"));
        assert!(s.contains("sm  0 warp   0"));
        assert!(s.contains("worst RT-occupancy"));
        assert!(s.contains("occupancy"));
    }
}
