//! Per-SM event recorder and the serial collector that merges them.

use crate::accounting::NUM_CATEGORIES;
use crate::config::TraceConfig;
use crate::event::{Event, EventKind, NO_WARP};
use crate::export::{chrome_counter_tail, chrome_event_chunk, chrome_header, TraceReport};
use crate::rt_analytics::NUM_RT_SERIES;
use crate::sampler::{IntervalRecord, IntervalSnapshot};
use std::collections::{BTreeMap, VecDeque};
use std::io::{Seek as _, SeekFrom, Write as _};
use vksim_snapshot::Snap;

/// The per-SM recorder, one of the [`crate::SmObservers`]. All state is
/// SM-local; the cycle loop merges it after every SM has ticked.
#[derive(Clone, Debug)]
pub struct SmTracer {
    // Events staged since the last drain.
    staged: Vec<Event>,
    // Bounded ring of the most recent events (the flight recorder).
    flight: VecDeque<Event>,
    flight_depth: usize,
    // Open memory-stall spans: warp -> stall-begin cycle.
    stall_since: BTreeMap<u32, u64>,
    // Aggregates for the hotspot summary.
    pc_issues: BTreeMap<u32, u64>,
    warp_stall_cycles: BTreeMap<u32, u64>,
    // Per-warp RT traversal-latency aggregate: warp -> (jobs, Σ latency).
    // Fed from `RtFinish` events so the hotspot summary survives event
    // caps and streaming flushes.
    rt_warp_latency: BTreeMap<u32, (u64, u64)>,
    // Edge detector for the RT-busy span.
    rt_busy: bool,
    // Open SM-wide interconnect-backpressure span: stall-begin cycle.
    icnt_stall_since: Option<u64>,
}

impl SmTracer {
    /// Creates an empty recorder with the given flight-ring depth.
    pub fn new(config: &TraceConfig) -> Self {
        SmTracer {
            staged: Vec::new(),
            flight: VecDeque::new(),
            flight_depth: config.effective_flight_depth(),
            stall_since: BTreeMap::new(),
            pc_issues: BTreeMap::new(),
            warp_stall_cycles: BTreeMap::new(),
            rt_warp_latency: BTreeMap::new(),
            rt_busy: false,
            icnt_stall_since: None,
        }
    }

    /// Records an event. `Issue` also feeds the hottest-PC aggregate and
    /// `RtFinish` the per-warp latency one. `StallBegin` opens `warp`'s
    /// memory-stall span and `StallEnd` closes it, measuring its `cycles`
    /// here (callers pass 0); either records nothing when the span is
    /// already open or closed.
    pub fn record(&mut self, cycle: u64, warp: u32, mut kind: EventKind) {
        match kind {
            EventKind::Issue { pc, .. } => *self.pc_issues.entry(pc).or_insert(0) += 1,
            EventKind::StallBegin if self.stall_since.contains_key(&warp) => return,
            EventKind::StallBegin => {
                self.stall_since.insert(warp, cycle);
            }
            EventKind::StallEnd { .. } => {
                let Some(since) = self.stall_since.remove(&warp) else {
                    return;
                };
                let cycles = cycle.saturating_sub(since);
                *self.warp_stall_cycles.entry(warp).or_insert(0) += cycles;
                kind = EventKind::StallEnd { cycles };
            }
            EventKind::RtFinish { latency } => {
                let agg = self.rt_warp_latency.entry(warp).or_insert((0, 0));
                agg.0 += 1;
                agg.1 += latency;
            }
            _ => {}
        }
        let ev = Event { cycle, warp, kind };
        self.staged.push(ev);
        if self.flight.len() >= self.flight_depth {
            self.flight.pop_front();
        }
        self.flight.push_back(ev);
    }

    /// Edge-detects the RT unit's busy state into a begin/end span.
    pub fn rt_busy_edge(&mut self, cycle: u64, busy: bool) {
        if busy != self.rt_busy {
            self.rt_busy = busy;
            let kind = if busy {
                EventKind::RtBusyBegin
            } else {
                EventKind::RtBusyEnd
            };
            self.record(cycle, NO_WARP, kind);
        }
    }

    /// Edge-detects the SM's interconnect-backpressure state into an
    /// SM-wide begin/end span (the issue stage is stalled while the
    /// bounded interconnect refuses the SM's backlog).
    pub fn icnt_stall_edge(&mut self, cycle: u64, blocked: bool) {
        match (self.icnt_stall_since, blocked) {
            (None, true) => {
                self.icnt_stall_since = Some(cycle);
                self.record(cycle, NO_WARP, EventKind::IcntStallBegin);
            }
            (Some(since), false) => {
                self.icnt_stall_since = None;
                let cycles = cycle.saturating_sub(since);
                self.record(cycle, NO_WARP, EventKind::IcntStallEnd { cycles });
            }
            _ => {}
        }
    }

    /// Closes every open span at end of run so exported B/E pairs match.
    pub fn finalize(&mut self, cycle: u64) {
        let open: Vec<u32> = self.stall_since.keys().copied().collect();
        for warp in open {
            self.record(cycle, warp, EventKind::StallEnd { cycles: 0 });
        }
        self.rt_busy_edge(cycle, false);
        self.icnt_stall_edge(cycle, false);
    }

    /// The flight-recorder ring, oldest first.
    pub fn flight(&self) -> impl Iterator<Item = &Event> {
        self.flight.iter()
    }

    /// Events staged since the last drain (for tests).
    pub fn staged_len(&self) -> usize {
        self.staged.len()
    }
}

// Checkpoints are taken at cycle boundaries, after the cycle loop drained
// `staged`, but the staged buffer is encoded anyway so the codec has no
// implicit precondition.
vksim_snapshot::snap_struct!(SmTracer {
    staged,
    flight,
    flight_depth,
    stall_since,
    pc_issues,
    warp_stall_cycles,
    rt_busy,
    icnt_stall_since,
    rt_warp_latency
});

/// The streaming Chrome-trace writer: when the config names an `out`
/// file, completed event chunks are appended to it at interval
/// boundaries instead of accumulating in RAM for the whole run. The file
/// is built from the same pieces as the one-shot
/// [`crate::chrome_trace_json`] export, so the streamed bytes are
/// identical. Any IO failure is a warning: the collector falls back to
/// accumulating and retries once at end of run.
#[derive(Debug)]
struct EventStream {
    /// Lazily created at the first flush (a fresh stream truncates the
    /// file; a checkpoint-restored one reopens and truncates to the
    /// saved offset instead).
    file: Option<std::fs::File>,
    path: String,
    /// Whether the array header + process metadata have been written.
    header_written: bool,
    /// Events already flushed to the file.
    flushed: u64,
    /// Current file length in bytes — saved into checkpoints so a resume
    /// can truncate away everything the killed run wrote afterwards.
    bytes: u64,
    /// A write failed; stop flushing (end-of-run finalize retries once).
    failed: bool,
}

impl EventStream {
    /// Appends `chunk` to the file, creating (and truncating) it on the
    /// first write; the file is kept only once a write into it succeeded.
    fn write(&mut self, chunk: &str) -> std::io::Result<()> {
        match &mut self.file {
            Some(f) => f.write_all(chunk.as_bytes()),
            none => std::fs::File::create(&self.path).and_then(|mut f| {
                f.write_all(chunk.as_bytes())?;
                *none = Some(f);
                Ok(())
            }),
        }
    }
}

/// The stream a fresh collector starts with: present exactly when
/// tracing is enabled with an `out` file.
fn fresh_stream(config: &TraceConfig) -> Option<EventStream> {
    let path = config.out.clone()?;
    config.enabled.then(|| EventStream {
        file: None,
        path,
        header_written: false,
        flushed: 0,
        bytes: 0,
        failed: false,
    })
}

/// Rebuilds a checkpointed stream on resume: reopens the `out` file and
/// truncates it to the saved byte offset (discarding everything the
/// killed run streamed after the checkpoint). A reopen failure is a
/// warning; the stream is marked failed so the stale file is neither
/// appended to nor clobbered.
fn reopen_stream(
    config: &TraceConfig,
    header_written: bool,
    flushed: u64,
    bytes: u64,
) -> Option<EventStream> {
    let path = config.out.clone()?;
    if !config.enabled {
        return None;
    }
    let mut stream = EventStream {
        file: None,
        path,
        header_written,
        flushed,
        bytes,
        failed: false,
    };
    if !header_written {
        // Nothing reached the file before the checkpoint: behave like a
        // fresh stream (first flush creates and truncates).
        return Some(stream);
    }
    let reopened = std::fs::OpenOptions::new()
        .write(true)
        .open(&stream.path)
        .and_then(|mut f| {
            f.set_len(bytes)?;
            f.seek(SeekFrom::Start(bytes))?;
            Ok(f)
        });
    match reopened {
        Ok(f) => stream.file = Some(f),
        Err(e) => {
            stream.failed = true;
            eprintln!(
                "vksim: cannot reopen streamed trace {} on resume ({e}); \
                 the trace file will not be continued",
                stream.path
            );
        }
    }
    Some(stream)
}

/// The merge point: each cycle, after every SM has ticked, the cycle loop
/// drains every SM's staged events — in SM-id order — into one collector,
/// samples the interval series, and at end of run folds everything into a
/// [`TraceReport`].
#[derive(Debug)]
pub struct TraceCollector {
    config: TraceConfig,
    num_sms: u32,
    stream: Option<EventStream>,
    events: Vec<(u32, Event)>,
    dropped: u64,
    intervals: Vec<IntervalRecord>,
    last_snapshot: IntervalSnapshot,
    interval_start: u64,
    sampler_underflows: u64,
    pc_issues: BTreeMap<u32, u64>,
    warp_stalls: BTreeMap<(u32, u32), u64>,
    // Cumulative merged cycle-accounting totals, sampled at the interval
    // boundaries; empty unless accounting rides along with tracing.
    prof_series: Vec<(u64, [u64; NUM_CATEGORIES])>,
    // Cumulative merged RT-analytics series, sampled at the interval
    // boundaries; empty unless RT analytics rides along with tracing.
    rt_series: Vec<(u64, [u64; NUM_RT_SERIES])>,
    // (sm, warp) -> (traversal jobs, Σ resident latency).
    rt_warp_latency: BTreeMap<(u32, u32), (u64, u64)>,
}

impl TraceCollector {
    /// Creates an empty collector for a machine with `num_sms` SMs. When
    /// the config names an `out` file, the collector streams event
    /// chunks to it at interval boundaries instead of holding the whole
    /// run in RAM.
    pub fn new(config: TraceConfig, num_sms: u32) -> Self {
        let stream = fresh_stream(&config);
        TraceCollector {
            config,
            num_sms,
            stream,
            events: Vec::new(),
            dropped: 0,
            intervals: Vec::new(),
            last_snapshot: IntervalSnapshot::default(),
            interval_start: 0,
            sampler_underflows: 0,
            pc_issues: BTreeMap::new(),
            warp_stalls: BTreeMap::new(),
            prof_series: Vec::new(),
            rt_series: Vec::new(),
            rt_warp_latency: BTreeMap::new(),
        }
    }

    /// The interval-sampler period.
    pub fn interval(&self) -> u64 {
        self.config.effective_interval()
    }

    fn push(&mut self, sm: u32, ev: Event) {
        // The cap bounds the *total* event stream — flushed chunks
        // included — so a streamed trace records exactly the events a
        // one-shot export would.
        let flushed = self.stream.as_ref().map_or(0, |s| s.flushed);
        if flushed + self.events.len() as u64 >= self.config.max_events as u64 {
            self.dropped += 1;
        } else {
            self.events.push((sm, ev));
        }
    }

    /// Drains one SM's staged events. Must be called in SM-id order each
    /// cycle, after every SM has ticked, to keep the merged stream in a
    /// fixed order.
    pub fn drain_sm(&mut self, sm: u32, tracer: &mut SmTracer) {
        for ev in std::mem::take(&mut tracer.staged) {
            self.push(sm, ev);
        }
    }

    /// Appends shared-backend events under the pseudo-process `sm` id
    /// (callers pass `num_sms`), after the SM drains of the cycle.
    pub fn push_mem_events(&mut self, sm: u32, events: impl IntoIterator<Item = Event>) {
        for ev in events {
            self.push(sm, ev);
        }
    }

    /// Records one interval sample: `snapshot` holds *cumulative* raw
    /// counters as of `cycle`; the collector stores the delta. A counter
    /// that went backwards is an engine bug: debug builds assert, release
    /// builds tally it under [`TraceCollector::sampler_underflows`] (the
    /// engine surfaces the tally as `trace.sampler_underflow`).
    pub fn sample(&mut self, cycle: u64, snapshot: IntervalSnapshot) {
        let len = cycle.saturating_sub(self.interval_start);
        if len == 0 {
            return;
        }
        let (delta, underflows) = snapshot.delta_from(&self.last_snapshot);
        debug_assert_eq!(
            underflows, 0,
            "non-monotonic interval counter at cycle {cycle}: {:?} -> {snapshot:?}",
            self.last_snapshot
        );
        self.sampler_underflows += underflows;
        self.intervals.push(IntervalRecord {
            start: self.interval_start,
            len,
            delta,
        });
        self.last_snapshot = snapshot;
        self.interval_start = cycle;
        // The interval boundary is the streaming flush point: every event
        // recorded so far is complete (the SMs were already drained this
        // cycle), so the chunk can leave RAM.
        self.flush_stream();
    }

    /// Appends the accumulated event chunk to the stream file, creating
    /// it (with the array header) on the first flush. On success the
    /// chunk leaves RAM; on failure the collector warns once and keeps
    /// accumulating (end-of-run finalize retries).
    fn flush_stream(&mut self) {
        let Some(s) = self.stream.as_mut() else {
            return;
        };
        if s.failed || (self.events.is_empty() && s.header_written) {
            return;
        }
        let mut chunk = String::new();
        if !s.header_written {
            chunk.push_str(&chrome_header(self.num_sms));
        }
        chrome_event_chunk(&mut chunk, &self.events);
        match s.write(&chunk) {
            Ok(()) => {
                s.header_written = true;
                s.flushed += self.events.len() as u64;
                s.bytes += chunk.len() as u64;
                self.events.clear();
            }
            Err(e) => {
                s.failed = true;
                eprintln!(
                    "vksim: streaming trace write to {} failed ({e}); \
                     accumulating in memory and retrying at end of run",
                    s.path
                );
            }
        }
    }

    /// Fields observed going backwards across all samples so far (0 on a
    /// healthy run).
    pub fn sampler_underflows(&self) -> u64 {
        self.sampler_underflows
    }

    /// Records one cycle-accounting sample: `totals` holds *cumulative*
    /// per-category cycles merged across all SMs as of `cycle`. Sampled
    /// at the same interval boundaries as [`TraceCollector::sample`];
    /// a stale or duplicate cycle is ignored so the end-of-run tail
    /// sample cannot double-record an interval boundary.
    pub fn sample_prof(&mut self, cycle: u64, totals: [u64; NUM_CATEGORIES]) {
        if self.prof_series.last().is_some_and(|&(c, _)| c >= cycle) {
            return;
        }
        self.prof_series.push((cycle, totals));
    }

    /// Records one RT-analytics sample: `totals` holds *cumulative*
    /// trace-warp / lane-step / warp-step / RT-unit-step counts merged
    /// across all SMs as of `cycle`. Same interval boundaries and stale-
    /// cycle dedup as [`TraceCollector::sample_prof`].
    pub fn sample_rt(&mut self, cycle: u64, totals: [u64; NUM_RT_SERIES]) {
        if self.rt_series.last().is_some_and(|&(c, _)| c >= cycle) {
            return;
        }
        self.rt_series.push((cycle, totals));
    }

    /// Folds one SM's summary aggregates in (call once, at end of run).
    pub fn absorb_aggregates(&mut self, sm: u32, tracer: &SmTracer) {
        for (&pc, &n) in &tracer.pc_issues {
            *self.pc_issues.entry(pc).or_insert(0) += n;
        }
        for (&warp, &n) in &tracer.warp_stall_cycles {
            *self.warp_stalls.entry((sm, warp)).or_insert(0) += n;
        }
        for (&warp, &(jobs, cycles)) in &tracer.rt_warp_latency {
            let agg = self.rt_warp_latency.entry((sm, warp)).or_insert((0, 0));
            agg.0 += jobs;
            agg.1 += cycles;
        }
    }

    /// Finishes collection into an exportable report. When a stream is
    /// active, the remaining event chunk, the counter series and the
    /// array footer are appended to the `out` file here — completing a
    /// file byte-identical to a one-shot [`crate::chrome_trace_json`]
    /// export — and the report is marked `streamed` so the one-shot
    /// exporter leaves the file alone.
    pub fn finish(mut self, final_cycle: u64, num_sms: u32) -> TraceReport {
        let stream = self.stream.take();
        let mut report = TraceReport {
            num_sms,
            final_cycle,
            interval: self.config.effective_interval(),
            events: self.events,
            intervals: self.intervals,
            dropped: self.dropped,
            pc_issues: self.pc_issues,
            warp_stalls: self.warp_stalls,
            prof_series: self.prof_series,
            rt_series: self.rt_series,
            rt_warp_latency: self.rt_warp_latency,
            flushed: stream.as_ref().map_or(0, |s| s.flushed),
            streamed: false,
            config: self.config,
        };
        if let Some(mut s) = stream {
            if s.file.is_none() && s.header_written {
                // A resume could not reopen the file (already warned);
                // leave it untouched rather than clobber it with a
                // partial one-shot export.
                report.streamed = true;
                return report;
            }
            if s.failed {
                // A mid-run flush failed partway; rewind to the last
                // known-good offset before the retry below.
                if let Some(f) = &mut s.file {
                    let _ = f.set_len(s.bytes);
                    let _ = f.seek(SeekFrom::Start(s.bytes));
                }
            }
            let mut chunk = String::new();
            if !s.header_written {
                chunk.push_str(&chrome_header(report.num_sms));
            }
            chrome_event_chunk(&mut chunk, &report.events);
            chunk.push_str(&chrome_counter_tail(&report));
            match s.write(&chunk) {
                Ok(()) => report.streamed = true,
                Err(e) => {
                    // With a flushed prefix the file cannot be rebuilt
                    // from RAM; claim it so the one-shot exporter does
                    // not overwrite it with a tail-only trace. With
                    // nothing flushed, fall through to the one-shot
                    // path, which still has every event.
                    report.streamed = s.flushed > 0;
                    eprintln!("vksim: failed to finalize streamed trace {} ({e})", s.path);
                }
            }
        }
        report
    }
}

// Everything except the [`TraceConfig`], which the resuming run supplies.
// The interval-sampler cursor — `last_snapshot` + `interval_start` — rides
// along, which is what keeps a resumed run from re-emitting the last
// interval row or differencing against a zeroed baseline.
vksim_snapshot::snap_state!(TraceCollector {
    events,
    dropped,
    intervals,
    last_snapshot,
    interval_start,
    sampler_underflows,
    pc_issues,
    warp_stalls,
    prof_series,
    rt_series,
    rt_warp_latency,
    // Streaming cursor: whether the header is out, the flushed-event count
    // and the file byte offset as of this checkpoint. When the snapshot
    // carries one and the resuming config still names an `out` file, that
    // file is reopened and truncated to the offset, discarding whatever
    // the killed run streamed afterwards, so the resumed stream continues
    // byte-identically; a run that did not stream starts a fresh stream
    // if the resuming config asks for one.
    stream: with(
        |stream, e| {
            let cursor = stream
                .as_ref()
                .map(|s| (s.header_written, s.flushed, s.bytes));
            cursor.save(e)
        },
        |stream, d| {
            *stream = match Option::<(bool, u64, u64)>::load(d)? {
                Some((header_written, flushed, bytes)) => {
                    reopen_stream(config, header_written, flushed, bytes)
                }
                None => fresh_stream(config),
            };
            Ok(())
        }
    ),
} skip { config, num_sms });

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TraceConfig {
        TraceConfig {
            enabled: true,
            ..Default::default()
        }
    }

    #[test]
    fn stall_spans_pair_and_accumulate() {
        let mut t = SmTracer::new(&cfg());
        t.record(10, 3, EventKind::StallBegin);
        t.record(12, 3, EventKind::StallBegin); // idempotent while open
        t.record(25, 3, EventKind::StallEnd { cycles: 0 });
        t.record(26, 3, EventKind::StallEnd { cycles: 0 }); // no open span: no event
        t.record(30, 3, EventKind::StallBegin);
        t.finalize(40);
        let kinds: Vec<EventKind> = t.flight().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::StallBegin,
                EventKind::StallEnd { cycles: 15 },
                EventKind::StallBegin,
                EventKind::StallEnd { cycles: 10 },
            ]
        );
        assert_eq!(t.warp_stall_cycles.get(&3), Some(&25));
    }

    #[test]
    fn icnt_stall_spans_pair_and_close_at_finalize() {
        let mut t = SmTracer::new(&cfg());
        t.icnt_stall_edge(5, true);
        t.icnt_stall_edge(6, true); // idempotent while open
        t.icnt_stall_edge(9, false);
        t.icnt_stall_edge(10, false); // no open span: no event
        t.icnt_stall_edge(12, true);
        t.finalize(20);
        let kinds: Vec<EventKind> = t.flight().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::IcntStallBegin,
                EventKind::IcntStallEnd { cycles: 4 },
                EventKind::IcntStallBegin,
                EventKind::IcntStallEnd { cycles: 8 },
            ]
        );
        assert!(t.flight().all(|e| e.warp == NO_WARP), "SM-wide span");
    }

    #[test]
    fn healthy_sampler_reports_zero_underflows() {
        let mut c = TraceCollector::new(cfg(), 1);
        c.sample(
            100,
            IntervalSnapshot {
                issued_insts: 10,
                ..Default::default()
            },
        );
        c.sample(
            200,
            IntervalSnapshot {
                issued_insts: 30,
                ..Default::default()
            },
        );
        assert_eq!(c.sampler_underflows(), 0);
    }

    #[test]
    fn rt_busy_edges_only_on_transitions() {
        let mut t = SmTracer::new(&cfg());
        t.rt_busy_edge(1, false);
        t.rt_busy_edge(2, true);
        t.rt_busy_edge(3, true);
        t.rt_busy_edge(7, false);
        assert_eq!(t.staged_len(), 2);
    }

    #[test]
    fn flight_ring_is_bounded() {
        let mut t = SmTracer::new(&TraceConfig {
            enabled: true,
            flight_depth: 4,
            ..Default::default()
        });
        for i in 0..10 {
            t.record(i, 0, EventKind::Retire);
        }
        let cycles: Vec<u64> = t.flight().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![6, 7, 8, 9]);
    }

    #[test]
    fn collector_caps_events_and_counts_drops() {
        let mut c = TraceCollector::new(
            TraceConfig {
                enabled: true,
                max_events: 3,
                ..Default::default()
            },
            1,
        );
        let mut t = SmTracer::new(&cfg());
        for i in 0..5 {
            t.record(i, 0, EventKind::Retire);
        }
        c.drain_sm(0, &mut t);
        assert_eq!(t.staged_len(), 0);
        let r = c.finish(100, 1);
        assert_eq!(r.events.len(), 3);
        assert_eq!(r.dropped, 2);
    }

    #[test]
    fn sampler_stores_deltas_not_cumulatives() {
        let mut c = TraceCollector::new(cfg(), 1);
        c.sample(
            1000,
            IntervalSnapshot {
                issued_insts: 500,
                ..Default::default()
            },
        );
        c.sample(
            2000,
            IntervalSnapshot {
                issued_insts: 800,
                ..Default::default()
            },
        );
        c.sample(2000, IntervalSnapshot::default()); // zero-length: ignored
        let r = c.finish(2000, 1);
        assert_eq!(r.intervals.len(), 2);
        assert_eq!(r.intervals[0].delta.issued_insts, 500);
        assert_eq!(r.intervals[1].delta.issued_insts, 300);
        assert_eq!(r.intervals[1].start, 1000);
        assert_eq!(r.intervals[1].len, 1000);
    }

    #[test]
    fn tracer_and_collector_snapshot_round_trip() {
        let mut t = SmTracer::new(&cfg());
        t.record(
            5,
            2,
            EventKind::Issue {
                pc: 0x80,
                lanes: 32,
            },
        );
        t.record(6, 1, EventKind::StallBegin);
        t.rt_busy_edge(7, true);
        t.icnt_stall_edge(8, true);
        let mut c = TraceCollector::new(cfg(), 1);
        c.sample(
            100,
            IntervalSnapshot {
                issued_insts: 12,
                ..Default::default()
            },
        );
        c.drain_sm(0, &mut t);
        // Round-trip the tracer, open spans and all.
        let mut e = vksim_snapshot::Enc::new();
        t.save(&mut e);
        let bytes = e.into_bytes();
        let mut back = SmTracer::load(&mut vksim_snapshot::Dec::new(&bytes)).unwrap();
        assert_eq!(back.stall_since, t.stall_since);
        assert_eq!(back.rt_busy, t.rt_busy);
        assert_eq!(back.icnt_stall_since, t.icnt_stall_since);
        let mut e2 = vksim_snapshot::Enc::new();
        back.save(&mut e2);
        assert_eq!(e2.into_bytes(), bytes, "re-encoding is byte-idempotent");
        // The restored tracer closes its open spans exactly like the
        // original would.
        back.finalize(20);
        t.finalize(20);
        assert_eq!(back.warp_stall_cycles, t.warp_stall_cycles);
        // Round-trip the collector; the sampler cursor must survive so the
        // next sample differences against the right baseline.
        let mut e = vksim_snapshot::Enc::new();
        c.save(&mut e);
        let bytes = e.into_bytes();
        let mut back = TraceCollector::new(cfg(), 1);
        back.restore(&mut vksim_snapshot::Dec::new(&bytes)).unwrap();
        assert_eq!(back.interval_start, 100);
        assert_eq!(back.last_snapshot.issued_insts, 12);
        back.sample(
            200,
            IntervalSnapshot {
                issued_insts: 30,
                ..Default::default()
            },
        );
        let r = back.finish(200, 1);
        assert_eq!(r.intervals.len(), 2, "no duplicate rows after restore");
        assert_eq!(r.intervals[1].delta.issued_insts, 18);
        assert_eq!(r.events.len(), 4);
    }

    #[test]
    fn prof_series_dedups_and_round_trips() {
        let mut c = TraceCollector::new(cfg(), 1);
        let mut a = [0u64; NUM_CATEGORIES];
        a[0] = 3;
        c.sample_prof(100, a);
        c.sample_prof(100, a); // duplicate cycle: ignored
        c.sample_prof(50, a); // stale cycle: ignored
        let mut b = a;
        b[0] = 7;
        c.sample_prof(200, b);
        let mut e = vksim_snapshot::Enc::new();
        c.save(&mut e);
        let bytes = e.into_bytes();
        let mut d = vksim_snapshot::Dec::new(&bytes);
        let mut back = TraceCollector::new(cfg(), 1);
        back.restore(&mut d).unwrap();
        d.finish().unwrap();
        let r = back.finish(200, 1);
        assert_eq!(r.prof_series, vec![(100, a), (200, b)]);
    }

    #[test]
    fn streamed_file_matches_one_shot_export() {
        let path = std::env::temp_dir().join(format!("vksim-stream-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let stream_cfg = TraceConfig {
            enabled: true,
            out: Some(path.to_string_lossy().into_owned()),
            ..Default::default()
        };
        let mut streamed = TraceCollector::new(stream_cfg, 2);
        let mut plain = TraceCollector::new(cfg(), 2);
        let snap = |n: u64| IntervalSnapshot {
            issued_insts: n * 10,
            ..Default::default()
        };
        // Identical event/sample sequences; only the streamed collector
        // flushes chunks to disk at each boundary.
        for round in 0..3u64 {
            let events: Vec<Event> = (0..4)
                .map(|i| Event {
                    cycle: round * 100 + i,
                    warp: 0,
                    kind: EventKind::Retire,
                })
                .collect();
            streamed.push_mem_events(round as u32 % 2, events.clone());
            plain.push_mem_events(round as u32 % 2, events);
            streamed.sample((round + 1) * 100, snap(round + 1));
            plain.sample((round + 1) * 100, snap(round + 1));
        }
        let sr = streamed.finish(300, 2);
        let pr = plain.finish(300, 2);
        assert!(sr.streamed, "stream claimed the file");
        assert!(!pr.streamed, "no out file, no stream");
        assert_eq!(sr.flushed, 12, "all three chunks left RAM");
        assert!(sr.events.is_empty());
        let file = std::fs::read_to_string(&path).expect("streamed file written");
        assert_eq!(
            file,
            crate::export::chrome_trace_json(&pr),
            "streamed bytes identical to the one-shot export"
        );
        assert_eq!(
            crate::export::hotspot_summary(&sr, 5),
            crate::export::hotspot_summary(&pr, 5),
            "summary counts flushed events"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stream_cursor_resumes_after_truncation() {
        let path =
            std::env::temp_dir().join(format!("vksim-stream-resume-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let stream_cfg = || TraceConfig {
            enabled: true,
            out: Some(path.to_string_lossy().into_owned()),
            ..Default::default()
        };
        let ev = |cycle| Event {
            cycle,
            warp: 0,
            kind: EventKind::Retire,
        };
        // Reference: one uninterrupted streamed run.
        let mut reference = TraceCollector::new(stream_cfg(), 1);
        reference.push_mem_events(0, (0..4).map(ev));
        reference.sample(
            100,
            IntervalSnapshot {
                issued_insts: 10,
                ..Default::default()
            },
        );
        reference.push_mem_events(0, (100..103).map(ev));
        let _ = reference.finish(200, 1);
        let want = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        // Interrupted: checkpoint after the first flush, keep streaming
        // (the doomed run writes more), then resume from the checkpoint
        // — the reopen must truncate the extra bytes away.
        let mut doomed = TraceCollector::new(stream_cfg(), 1);
        doomed.push_mem_events(0, (0..4).map(ev));
        doomed.sample(
            100,
            IntervalSnapshot {
                issued_insts: 10,
                ..Default::default()
            },
        );
        let mut e = vksim_snapshot::Enc::new();
        doomed.save(&mut e);
        let bytes = e.into_bytes();
        doomed.push_mem_events(0, (500..520).map(ev));
        let _ = doomed.finish(999, 1); // the killed run even finalized
        let mut d = vksim_snapshot::Dec::new(&bytes);
        let mut resumed = TraceCollector::new(stream_cfg(), 1);
        resumed.restore(&mut d).unwrap();
        d.finish().unwrap();
        resumed.push_mem_events(0, (100..103).map(ev));
        let report = resumed.finish(200, 1);
        assert!(report.streamed);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            want,
            "resumed stream continues the file byte-identically"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn aggregates_merge_across_sms() {
        let mut c = TraceCollector::new(cfg(), 1);
        let mut a = SmTracer::new(&cfg());
        a.record(
            1,
            0,
            EventKind::Issue {
                pc: 0x40,
                lanes: 32,
            },
        );
        a.record(
            2,
            0,
            EventKind::Issue {
                pc: 0x40,
                lanes: 32,
            },
        );
        let mut b = SmTracer::new(&cfg());
        b.record(
            1,
            0,
            EventKind::Issue {
                pc: 0x40,
                lanes: 16,
            },
        );
        b.record(0, 1, EventKind::StallBegin);
        b.record(9, 1, EventKind::StallEnd { cycles: 0 });
        c.absorb_aggregates(0, &a);
        c.absorb_aggregates(1, &b);
        let r = c.finish(10, 2);
        assert_eq!(r.pc_issues.get(&0x40), Some(&3));
        assert_eq!(r.warp_stalls.get(&(1, 1)), Some(&9));
    }
}
