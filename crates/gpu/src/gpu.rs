//! Whole-GPU simulation: SM array + shared memory backend + kernel launch.
//!
//! There is one cycle loop on one thread (see DESIGN.md). Each cycle it
//! routes the backend's completions to their SMs, ticks every SM in SM-id
//! order against the functional memory image, then drains the per-SM
//! [`RequestQueue`]s into the shared backend, again in SM-id order. The
//! fixed orders make the request interleaving — and every counter — a
//! function of the configuration and the work alone.

use crate::config::GpuConfig;
use crate::sm::{GpuHooks, Sm, TickReport};
use crate::{Mask, WARP_SIZE};
use std::collections::{BTreeMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use vksim_fault::{panic_detail, FaultPlan, HangClass, SimError};
use vksim_isa::{Program, SimMemory};
use vksim_mem::{MemSink, RequestQueue, SharedMemSystem};
use vksim_snapshot::{load_fixed, restore_each, restore_opt, save_each, save_opt, Snap};
use vksim_stats::{Counters, Histogram};
use vksim_trace::{
    Event, EventKind, IntervalSnapshot, ProfReport, RtSmAnalytics, TraceCollector, TraceReport,
    NO_WARP, NUM_CATEGORIES, NUM_RT_SERIES,
};

/// Ray-tracing launch dimensions (`vkCmdTraceRaysKHR` width/height/depth).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaunchDims {
    /// Launch width (image width).
    pub width: u32,
    /// Launch height (image height).
    pub height: u32,
    /// Launch depth.
    pub depth: u32,
}

impl LaunchDims {
    /// Total threads (one per ray-generation invocation).
    pub fn total_threads(&self) -> usize {
        self.width as usize * self.height as usize * self.depth as usize
    }
}

struct WarpSeed {
    id: u32,
    base_tid: usize,
    active: Mask,
}

vksim_snapshot::snap_struct!(WarpSeed {
    id,
    base_tid,
    active
});

/// How a bounded run slice ended: the kernel completed (with its stats) or
/// the engine paused at the requested cycle boundary, ready to continue or
/// be checkpointed.
#[derive(Debug)]
pub enum RunOutcome {
    /// The kernel ran to completion.
    Done(Box<GpuStats>),
    /// The stop cycle was reached with work still resident; machine state
    /// is at a clean cycle boundary (request queues drained).
    Paused,
}

/// Aggregated results of a kernel run.
#[derive(Clone, Debug)]
pub struct GpuStats {
    /// Total simulated core cycles.
    pub cycles: u64,
    /// Instructions issued (warp-instructions).
    pub issued_insts: u64,
    /// SIMT efficiency: mean active lanes per issued instruction / 32.
    pub simt_efficiency: f64,
    /// RT-unit SIMT efficiency (active rays per resident-warp lane-cycle).
    pub rt_simt_efficiency: f64,
    /// Merged per-SM counters (instruction mix, coalescing, RT unit ...).
    pub counters: Counters,
    /// Merged L1 statistics.
    pub l1_stats: Counters,
    /// Merged dedicated RT cache statistics (empty when not configured).
    pub rtc_stats: Counters,
    /// L2 statistics.
    pub l2_stats: Counters,
    /// DRAM statistics.
    pub dram_stats: Counters,
    /// DRAM efficiency (Fig. 16).
    pub dram_efficiency: f64,
    /// DRAM utilization (Fig. 16).
    pub dram_utilization: f64,
    /// RT-unit warp latency distribution (Fig. 13).
    pub rt_warp_latency: Histogram,
    /// Cycles with at least one RT-unit-resident warp, summed over SMs.
    pub rt_busy_cycles: u64,
    /// Resident-warp-cycles in RT units (occupancy integral, Fig. 18).
    pub rt_resident_warp_cycles: u64,
    /// Per-SM RT-unit occupancy traces (cycle, warps, rays) (Fig. 18).
    pub rt_occupancy: Vec<Vec<(u64, u32, u32)>>,
    /// Total box/triangle/transform operations (roofline numerator).
    pub rt_ops: u64,
    /// 32 B chunks fetched by RT units (roofline denominator).
    pub rt_chunks_fetched: u64,
}

/// A failed GPU run: the classified error, the statistics accumulated up
/// to the faulting cycle, and the post-mortem dump path (when the dump
/// could be written).
#[derive(Debug)]
pub struct GpuFault {
    /// What went wrong.
    pub error: SimError,
    /// Partial statistics, valid up to the faulting cycle.
    pub stats: GpuStats,
    /// Flat post-mortem snapshot written via [`vksim_fault::write_dump`].
    pub dump: Option<PathBuf>,
}

impl std::fmt::Display for GpuFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.error)?;
        if let Some(d) = &self.dump {
            write!(f, " (post-mortem dump: {})", d.display())?;
        }
        Ok(())
    }
}

impl std::error::Error for GpuFault {}

/// Watchdog hang classification: schedulable-but-idle beats
/// blocked-on-busy-memory beats blocked-on-idle-memory.
fn classify_hang(any_issuable: bool, mem_idle: bool) -> HangClass {
    if any_issuable {
        HangClass::SimtLivelock
    } else if !mem_idle {
        HangClass::AllWarpsBlockedOnMemory
    } else {
        HangClass::ScoreboardWedge
    }
}

/// The execution-driven GPU simulator.
///
/// Owns the SM array, the shared L2/DRAM backend and the functional memory
/// image. Drive it with [`GpuSim::launch`] followed by [`GpuSim::run`].
pub struct GpuSim {
    config: GpuConfig,
    sms: Vec<Sm>,
    shared: SharedMemSystem,
    /// The functional memory image (descriptor sets, AS, framebuffers).
    pub mem: SimMemory,
    program: Option<Program>,
    pending: VecDeque<WarpSeed>,
    cycle: u64,
    dropped_completions: u64,
    faults: u64,
    /// Per-SM outbound request queues, drained into the backend in SM-id
    /// order after every SM has ticked. The bounded interconnect can refuse
    /// requests at the drain, leaving them queued across cycle — and
    /// therefore pause — boundaries.
    queues: Vec<RequestQueue>,
    /// Watchdog baseline: the last cycle that made forward progress.
    /// Persisted so a checkpointed run resumes with the same hang window.
    last_progress: u64,
    /// Serial merge point for the tracing layer; `None` when tracing is
    /// off (the default), so the cycle loop pays one null check per cycle.
    collector: Option<TraceCollector>,
}

// The complete machine state: every SM, the per-SM request queues (which
// carry interconnect backpressure across cycle boundaries), the shared
// L2/DRAM backend, the functional memory image, pending warps (the
// launch-seeded queue is replaced wholesale), cycle/watchdog cursors and
// the trace collector. `save` must be called at a clean cycle boundary
// (between [`GpuSim::run_until`] slices). `restore` wants a freshly built and launched
// [`GpuSim`] under the saving run's configuration (the snapshot
// fingerprint check upstream guarantees that); SM, queue and partition
// counts and observer presence are checked against it.
vksim_snapshot::snap_state!(GpuSim {
    sms: with(
        |sms, e| save_each(sms, e, Sm::save),
        |sms, d| restore_each(sms, d, Sm::restore)
    ),
    queues: with(Snap::save, |queues, d| load_fixed(queues, d)),
    shared: state,
    mem,
    pending,
    cycle,
    dropped_completions,
    faults,
    last_progress,
    collector: with(
        |collector, e| save_opt(collector, e, TraceCollector::save),
        |collector, d| restore_opt(collector, d, TraceCollector::restore)
    ),
} skip { config, program });

/// The hook shards as the cycle loop takes them. The loop is deliberately
/// not generic over the hook type: a generic loop is instantiated in the
/// caller's crate, out of inlining reach of this crate's SM methods, which
/// cost ≈ 4 % of `wall_s` on the issue-bound benchmark workload.
fn erase<H: GpuHooks>(shards: &mut [H]) -> Vec<&mut dyn GpuHooks> {
    shards.iter_mut().map(|h| h as &mut dyn GpuHooks).collect()
}

/// Ticks one SM against the memory image, submitting into its request
/// queue. The tick is panic-contained: a dying tick becomes a classified
/// fault instead of tearing down the process. An asleep SM is passed over
/// first, unless the fault plan's worker panic must fire in its sleep.
fn tick_sm(
    sm: &mut Sm,
    now: u64,
    program: &Program,
    mem: &mut SimMemory,
    queue: &mut RequestQueue,
    hooks: &mut dyn GpuHooks,
    plan: FaultPlan,
) -> Result<TickReport, SimError> {
    let id = sm.id;
    let panics_here = plan.worker_panic.is_some_and(|spec| spec.sm == id);
    if !panics_here && sm.sleeps_through(now, queue.backlogged()) {
        return Ok(TickReport::default());
    }
    let ticked = std::panic::catch_unwind(AssertUnwindSafe(|| {
        if let Some(spec) = plan.worker_panic {
            if spec.sm == id && now >= spec.cycle {
                panic!("injected worker panic (fault plan)");
            }
        }
        sm.tick(now, program, mem, queue, hooks)
    }));
    match ticked {
        Ok(report) => report.map_err(|e| *e),
        Err(p) => Err(SimError::WorkerPanicked {
            sm: id,
            detail: panic_detail(&*p),
        }),
    }
}

/// Hands pending warps to the least-loaded SM below the occupancy limit,
/// lowest SM id winning ties (`Iterator::min_by_key` keeps the first
/// minimum); each SM that gets one is woken for its tick at `next`.
fn refill(
    sms: &mut [Sm],
    pending: &mut VecDeque<WarpSeed>,
    limit: usize,
    program: &Program,
    next: u64,
) {
    while !pending.is_empty() {
        let Some(sm) = sms
            .iter_mut()
            .filter(|sm| sm.resident_warps() < limit)
            .min_by_key(|sm| sm.resident_warps())
        else {
            break;
        };
        let seed = pending.pop_front().expect("nonempty");
        sm.wake(next);
        sm.add_warp(seed.id, seed.base_tid, seed.active, program);
    }
}

/// Converts a DRAM row-activate sample into a trace event.
fn row_activate_event((cycle, partition, channel, bank): (u64, u32, u32, u32)) -> Event {
    Event {
        cycle,
        warp: NO_WARP,
        kind: EventKind::DramRowActivate {
            partition,
            channel,
            bank,
        },
    }
}

/// Accumulates one SM's cumulative raw counters into an interval snapshot.
fn absorb_sm_snapshot(snap: &mut IntervalSnapshot, sm: &Sm) {
    snap.issued_insts += sm.issued_insts;
    snap.l1_hits += sm.l1().total_hits();
    snap.l1_misses += sm.l1().total_misses();
    if let Some(rtc) = sm.rtc() {
        snap.l1_hits += rtc.total_hits();
        snap.l1_misses += rtc.total_misses();
    }
    let rts = sm.rt_unit.stats();
    snap.rt_resident_warp_cycles += rts.resident_warp_cycles;
    snap.rt_busy_cycles += rts.busy_cycles;
}

/// Merges per-SM cumulative cycle-accounting category counts; `None`
/// when accounting is disabled on any SM (presence is uniform).
fn accounting_totals<'a>(sms: impl Iterator<Item = &'a Sm>) -> Option<[u64; NUM_CATEGORIES]> {
    let mut totals = [0u64; NUM_CATEGORIES];
    for sm in sms {
        let acc = sm.observers.accounting()?;
        for (t, v) in totals.iter_mut().zip(acc.categories()) {
            *t += v;
        }
    }
    Some(totals)
}

/// Merges per-SM cumulative RT-analytics series (trace warps, lane steps,
/// warp steps, RT-unit script steps); `None` when RT analytics is disabled
/// on any SM (presence is uniform).
fn rt_totals<'a>(sms: impl Iterator<Item = &'a Sm>) -> Option<[u64; NUM_RT_SERIES]> {
    let mut totals = [0u64; NUM_RT_SERIES];
    for sm in sms {
        let coh = sm.observers.rt_analytics()?;
        totals[0] += coh.trace_warps();
        totals[1] += coh.lane_steps();
        totals[2] += coh.warp_steps();
        totals[3] += sm.rt_unit.analytics().map_or(0, |a| a.steps);
    }
    Some(totals)
}

/// Samples every interval series at `cycle`: the raw SM and backend
/// counters, plus the accounting and RT-analytics totals when enabled.
fn sample_interval<'a>(
    col: &mut TraceCollector,
    cycle: u64,
    sms: impl Iterator<Item = &'a Sm> + Clone,
    shared: &SharedMemSystem,
) {
    let mut snap = IntervalSnapshot::default();
    for sm in sms.clone() {
        absorb_sm_snapshot(&mut snap, sm);
    }
    let (l2_hits, l2_misses, dram_reqs, dram_transfer) = shared.traffic_totals();
    snap.l2_hits = l2_hits;
    snap.l2_misses = l2_misses;
    snap.dram_reqs = dram_reqs;
    snap.dram_transfer_cycles = dram_transfer;
    col.sample(cycle, snap);
    if let Some(totals) = accounting_totals(sms.clone()) {
        col.sample_prof(cycle, totals);
    }
    if let Some(totals) = rt_totals(sms) {
        col.sample_rt(cycle, totals);
    }
}

impl GpuSim {
    /// Builds an idle GPU.
    pub fn new(config: GpuConfig) -> Self {
        let trace = config.trace.clone();
        let sms = (0..config.num_sms).map(|i| Sm::new(i, &config)).collect();
        let mut shared = SharedMemSystem::new(config.mem.clone());
        if let Some(n) = config.fault_plan.drop_nth_completion {
            shared.inject_drop_nth_completion(n);
        }
        if trace.enabled {
            shared.set_trace(true);
        }
        let num_sms = config.num_sms;
        GpuSim {
            config,
            sms,
            shared,
            mem: SimMemory::new(),
            program: None,
            pending: VecDeque::new(),
            cycle: 0,
            dropped_completions: 0,
            faults: 0,
            queues: (0..num_sms).map(|_| RequestQueue::new()).collect(),
            last_progress: 0,
            collector: trace
                .enabled
                .then(|| TraceCollector::new(trace, num_sms as u32)),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// Prepares a kernel launch: one thread per raygen invocation, warps of
    /// 32 consecutive x-coordinates (paper §III-B5: block size (32,1,1)).
    pub fn launch(&mut self, program: Program, dims: LaunchDims) {
        let total = dims.total_threads();
        let mut id = 0;
        let mut base = 0usize;
        self.pending.clear();
        while base < total {
            let lanes = (total - base).min(WARP_SIZE);
            let active: Mask = if lanes == WARP_SIZE {
                u32::MAX
            } else {
                (1u32 << lanes) - 1
            };
            self.pending.push_back(WarpSeed {
                id,
                base_tid: base,
                active,
            });
            id += 1;
            base += WARP_SIZE;
        }
        self.program = Some(program);
    }

    /// Runs the launched kernel to completion with one hook shard per SM.
    ///
    /// # Errors
    ///
    /// Returns a [`GpuFault`] — classified [`SimError`], partial
    /// statistics and the post-mortem dump path — when a tick faults or
    /// panics, the cycle cap is exceeded, or the forward-progress watchdog
    /// declares a hang. A faulting cycle is finished first — every SM
    /// ticks and the request queues drain — and the fault reported is the
    /// first in SM-id order.
    ///
    /// # Panics
    ///
    /// Panics if `shards.len() != num_sms` or no kernel was launched.
    pub fn run<H: GpuHooks>(&mut self, shards: &mut [H]) -> Result<GpuStats, Box<GpuFault>> {
        match self.cycle_loop(erase(shards), None)? {
            RunOutcome::Done(stats) => Ok(*stats),
            RunOutcome::Paused => unreachable!("unbounded run cannot pause"),
        }
    }

    /// Runs until the kernel completes or the cycle counter reaches
    /// `stop_at`, whichever comes first. A [`RunOutcome::Paused`] return
    /// leaves the machine at a clean cycle boundary (request queues
    /// drained up to what the interconnect refused), so [`GpuSim::save`]
    /// captures a state from which a resumed run is bit-identical to an
    /// uninterrupted one.
    ///
    /// # Errors
    ///
    /// As [`GpuSim::run`].
    ///
    /// # Panics
    ///
    /// As [`GpuSim::run`].
    pub fn run_until<H: GpuHooks>(
        &mut self,
        shards: &mut [H],
        stop_at: u64,
    ) -> Result<RunOutcome, Box<GpuFault>> {
        self.cycle_loop(erase(shards), Some(stop_at))
    }

    /// The cycle loop: route completions, tick every SM in id order, drain
    /// the request queues in id order, then the trace, refill and watchdog
    /// steps.
    fn cycle_loop(
        &mut self,
        mut shards: Vec<&mut dyn GpuHooks>,
        stop_at: Option<u64>,
    ) -> Result<RunOutcome, Box<GpuFault>> {
        let num = self.sms.len();
        assert_eq!(shards.len(), num, "run needs one hook shard per SM");
        debug_assert_eq!(self.queues.len(), num, "one request queue per SM");
        let program = self.program.clone().expect("launch() before run()");
        let limit = self.config.occupancy_limit(program.num_regs() as u32);
        let max_cycles = self.config.max_cycles;
        let watchdog = self.config.watchdog_cycles;
        let plan = self.config.fault_plan;
        let mut fault: Option<SimError> = None;
        let mut paused = false;

        let mut ticked = self.cycle;
        refill(
            &mut self.sms,
            &mut self.pending,
            limit,
            &program,
            ticked + 1,
        );
        while !self.pending.is_empty() || self.sms.iter().any(|sm| !sm.is_empty()) {
            self.cycle += 1;
            let cycle = self.cycle;
            if cycle >= max_cycles {
                fault = Some(SimError::MaxCycles { limit: max_cycles });
                break;
            }
            // Backend completions routed to their SM.
            let completions = self.shared.advance_to(cycle);
            let mut progress = !completions.is_empty();
            for (id, at) in completions {
                let sm = (id >> 48) as usize;
                debug_assert!(
                    sm < num,
                    "completion id {id:#x} routes to nonexistent SM {sm}"
                );
                match self.sms.get_mut(sm) {
                    Some(sm) => {
                        sm.wake(cycle);
                        sm.on_mem_complete(id, at.max(cycle));
                    }
                    None => self.dropped_completions += 1,
                }
            }
            // Tick every SM in id order; an SM sees the functional writes
            // of the lower-id SMs that ticked before it this cycle. The
            // first fault in that order wins.
            let mut retired = false;
            let lanes = self.sms.iter_mut().zip(&mut self.queues).zip(&mut shards);
            for ((sm, queue), hooks) in lanes {
                match tick_sm(
                    sm,
                    cycle,
                    &program,
                    &mut self.mem,
                    queue,
                    &mut **hooks,
                    plan,
                ) {
                    Ok(t) => {
                        retired |= t.retired;
                        progress |= t.progress;
                    }
                    Err(e) => {
                        fault.get_or_insert(e);
                    }
                }
            }
            ticked = cycle;
            // Drain the request queues into the backend in SM-id order.
            for queue in &mut self.queues {
                if !queue.is_empty() {
                    queue.drain_into(&mut self.shared);
                }
            }
            // Trace maintenance: per-SM staged events in SM-id order,
            // shared-backend events under the memory pseudo-process, then
            // the interval series.
            if let Some(col) = self.collector.as_mut() {
                for sm in &mut self.sms {
                    sm.observers.drain_into(col, sm.id as u32);
                }
                let rows = self.shared.take_row_activates();
                col.push_mem_events(num as u32, rows.into_iter().map(row_activate_event));
                let interval = col.interval();
                if interval > 0 && cycle.is_multiple_of(interval) {
                    for sm in &mut self.sms {
                        sm.wake(cycle + 1);
                    }
                    sample_interval(col, cycle, self.sms.iter(), &self.shared);
                }
            }
            if fault.is_some() {
                break;
            }
            if retired {
                refill(&mut self.sms, &mut self.pending, limit, &program, cycle + 1);
            }
            if progress {
                self.last_progress = cycle;
            } else if watchdog > 0 && cycle - self.last_progress >= watchdog {
                let issuable = self.sms.iter().any(|sm| sm.has_issuable_ctx(cycle));
                fault = Some(SimError::Hang {
                    class: classify_hang(issuable, self.shared.is_idle()),
                    window: watchdog,
                    cycle,
                });
                break;
            }
            if stop_at.is_some_and(|s| cycle >= s) {
                paused = true;
                break;
            }
        }
        // Whatever reads the SMs next sees them ticked through `ticked`.
        for sm in &mut self.sms {
            sm.wake(ticked + 1);
        }
        debug_assert!(!self.sms.iter().any(Sm::is_asleep));
        if let Some(e) = fault {
            return Err(self.fail(e));
        }
        self.debug_assert_conservation();
        Ok(if paused {
            RunOutcome::Paused
        } else {
            RunOutcome::Done(Box::new(self.collect_stats()))
        })
    }

    /// Current cycle count.
    pub fn cycles(&self) -> u64 {
        self.cycle
    }

    /// The SMs, in id order.
    pub fn sms(&self) -> &[Sm] {
        &self.sms
    }

    /// Finishes the tracing layer: closes open spans, drains the residue,
    /// samples the tail interval and folds everything into an exportable
    /// [`TraceReport`]. Returns `None` when tracing is disabled; call once
    /// after a run (healthy or faulted).
    pub fn take_trace_report(&mut self) -> Option<TraceReport> {
        let mut col = self.collector.take()?;
        for sm in &mut self.sms {
            sm.observers.finish_into(&mut col, sm.id as u32, self.cycle);
        }
        let rows = self.shared.take_row_activates();
        col.push_mem_events(
            self.sms.len() as u32,
            rows.into_iter().map(row_activate_event),
        );
        sample_interval(&mut col, self.cycle, self.sms.iter(), &self.shared);
        Some(col.finish(self.cycle, self.sms.len() as u32))
    }

    /// Gathers the cycle-accounting breakdown: elapsed cycles, per-SM
    /// category tallies and issue totals. `None` when accounting is
    /// disabled. Valid at any clean cycle boundary (after a healthy run,
    /// a pause, or a restore); the conservation invariant
    /// `Σ categories == num_sms × cycles` holds exactly there.
    pub fn prof_report(&self) -> Option<ProfReport> {
        let per_sm = self.sms.iter().map(|sm| sm.observers.accounting().cloned());
        Some(ProfReport {
            cycles: self.cycle,
            per_sm: per_sm.collect::<Option<_>>()?,
            issued_insts: self.sms.iter().map(|s| s.issued_insts).sum(),
            issued_lanes: self.sms.iter().map(|s| s.issued_lanes).sum(),
        })
    }

    /// Gathers the timing-side half of the ray-traversal analytics report:
    /// one [`RtSmAnalytics`] per SM (warp traversal coherence plus RT-unit
    /// job/step/latency attribution) and the total RT-unit box-test
    /// operation count (the conservation anchor against the functional
    /// model's per-ray box-test tallies). `None` when RT analytics is
    /// disabled.
    pub fn rt_report_parts(&self) -> Option<(Vec<RtSmAnalytics>, u64)> {
        let mut per_sm = Vec::with_capacity(self.sms.len());
        for sm in &self.sms {
            let coherence = sm.observers.rt_analytics()?.clone();
            let rtu = sm.rt_unit.analytics()?;
            per_sm.push(RtSmAnalytics {
                coherence,
                rtu_jobs: rtu.jobs,
                rtu_steps: rtu.steps,
                rtu_latency: rtu.latency_total,
            });
        }
        let rt_box_ops = self
            .sms
            .iter()
            .map(|sm| sm.rt_unit.stats().counters.get("ops.box_tests"))
            .sum();
        Some((per_sm, rt_box_ops))
    }

    /// Debug-only conservation check, run at healthy loop exits: every SM
    /// must have attributed exactly `cycle` cycles. A faulting tick can die
    /// before it attributes its cycle and legitimately violate this.
    fn debug_assert_conservation(&self) {
        if cfg!(debug_assertions) {
            if let Some(report) = self.prof_report() {
                debug_assert!(
                    report.conservation_holds(),
                    "cycle accounting leaked: {} cycles attributed over {} SMs at cycle {}",
                    report.merged().total(),
                    report.num_sms(),
                    report.cycles,
                );
            }
        }
    }

    /// Wraps a classified error with partial statistics and a post-mortem
    /// dump into the [`GpuFault`] returned by the run paths.
    fn fail(&mut self, error: SimError) -> Box<GpuFault> {
        self.faults += 1;
        let stats = self.collect_stats();
        let dump = self.write_post_mortem(&error);
        Box::new(GpuFault { error, stats, dump })
    }

    /// Serializes the engine state at the fault: cycle, pending warps,
    /// per-SM scheduler/queue state and the fault class, as a flat
    /// `name -> u64` JSON dump.
    fn write_post_mortem(&self, error: &SimError) -> Option<PathBuf> {
        let mut snap: BTreeMap<String, u64> = BTreeMap::new();
        snap.insert("fault.kind".into(), error.kind_code());
        snap.insert("cycle".into(), self.cycle);
        snap.insert("pending_warps".into(), self.pending.len() as u64);
        snap.insert("mem.idle".into(), u64::from(self.shared.is_idle()));
        for sm in &self.sms {
            sm.post_mortem(&mut snap);
        }
        vksim_fault::write_dump(&snap).ok()
    }

    fn collect_stats(&self) -> GpuStats {
        let mut counters = Counters::new();
        let mut l1_stats = Counters::new();
        let mut rtc_stats = Counters::new();
        let mut issued_insts = 0;
        let mut issued_lanes = 0;
        let mut rt_warp_latency = Histogram::new(1000.0);
        let mut rt_busy = 0;
        let mut rt_resident = 0;
        let mut rt_active_rays = 0;
        let mut rt_chunks_fetched = 0;
        let mut rt_occupancy = Vec::new();
        for sm in &self.sms {
            counters.merge(&sm.stats);
            l1_stats.merge(&sm.l1().stats);
            if let Some(rtc) = sm.rtc() {
                rtc_stats.merge(&rtc.stats);
            }
            issued_insts += sm.issued_insts;
            issued_lanes += sm.issued_lanes;
            let rts = sm.rt_unit.stats();
            counters.merge(&rts.counters);
            rt_warp_latency.merge(&rts.warp_latency);
            rt_busy += rts.busy_cycles;
            rt_resident += rts.resident_warp_cycles;
            rt_active_rays += rts.active_ray_cycles;
            rt_chunks_fetched += rts.counters.get("mem.issued");
            rt_occupancy.push(sm.rt_unit.occupancy_trace().to_vec());
        }
        let rt_ops = counters.get("ops.box_tests")
            + counters.get("ops.triangle_tests")
            + counters.get("ops.transforms");
        if self.dropped_completions > 0 {
            // Only inserted when nonzero so golden key sets are unchanged
            // on healthy runs.
            counters.add("gpu.dropped_completions", self.dropped_completions);
        }
        if let Some(col) = &self.collector {
            // Same convention: a healthy sampler leaves no key behind.
            let underflows = col.sampler_underflows();
            if underflows > 0 {
                counters.add("trace.sampler_underflow", underflows);
            }
        }
        // Backpressure observability: only-when-nonzero, so unbounded
        // (depth 0) runs keep their historical golden key sets.
        for key in ["icnt.refused", "dram.bank_full_retries"] {
            let v = self.shared.stats.get(key);
            if v > 0 {
                counters.add(key, v);
            }
        }
        // Same convention: healthy, watchdog-off runs carry neither key.
        counters.add("gpu.watchdog_armed", self.config.watchdog_cycles);
        counters.add("gpu.faults", self.faults);
        GpuStats {
            cycles: self.cycle,
            issued_insts,
            simt_efficiency: if issued_insts == 0 {
                0.0
            } else {
                issued_lanes as f64 / (issued_insts * WARP_SIZE as u64) as f64
            },
            rt_simt_efficiency: if rt_resident == 0 {
                0.0
            } else {
                rt_active_rays as f64 / (rt_resident * WARP_SIZE as u64) as f64
            },
            counters,
            l1_stats,
            rtc_stats,
            l2_stats: self.shared.l2_stats(),
            dram_stats: self.shared.dram_stats(),
            dram_efficiency: self.shared.dram_efficiency(),
            dram_utilization: self.shared.dram_utilization(self.cycle.max(1)),
            rt_warp_latency,
            rt_busy_cycles: rt_busy,
            rt_resident_warp_cycles: rt_resident,
            rt_occupancy,
            rt_ops,
            rt_chunks_fetched,
        }
    }
}

#[cfg(test)]
mod tests;
