//! Streaming multiprocessor model.
//!
//! Each SM holds resident warps, schedules one instruction per cycle with a
//! greedy-then-oldest warp scheduler, executes lanes functionally through
//! the ISA interpreter, and charges timing per instruction class: ALU
//! (pipelined, 1-cycle issue), SFU (blocking latency), memory (coalesced
//! 32 B chunks through the L1 and the shared backend), and `traverseAS`
//! (warp handed to the RT unit).

use crate::config::{DivergenceMode, GpuConfig};
use crate::simt::{CtxOutcome, Mask, SimtEngine};
use crate::{ScriptSource, WARP_SIZE};
use std::collections::{BTreeMap, HashMap};
use vksim_fault::SimError;
use vksim_isa::interp::{exec_at, Effect, RtHooks, ThreadState};
use vksim_isa::op::MemSpace;
use vksim_isa::{MemIo, Program};
use vksim_mem::{
    chunk_addresses, partition_of, AccessKind, Cache, CacheOutcome, MemRequest, MemSink,
};
use vksim_rtunit::{RtMem, RtMemResult, RtUnit, RtUnitEventKind, WarpJob};
use vksim_snapshot::{restore_opt, save_opt, Dec, Enc, Snap, SnapError};
use vksim_stats::Counters;
use vksim_trace::{
    CycleAccounting, CycleCategory, EventKind, SmTracer, TraceConfig, WarpCoherence, NO_WARP,
};

/// Hooks the GPU needs from the simulator core: the RT functional runtime
/// plus the recorded traversal scripts.
pub trait GpuHooks: RtHooks + ScriptSource {}
impl<T: RtHooks + ScriptSource> GpuHooks for T {}

#[derive(Clone, Debug, Default)]
struct CtxState {
    status: CtxStatus,
    retry_chunks: Vec<u64>,
    pending_rt_job: Option<WarpJob>,
}

vksim_snapshot::snap_struct!(CtxState {
    status,
    retry_chunks,
    pending_rt_job
});

#[derive(Clone, Debug, Default, PartialEq)]
enum CtxStatus {
    #[default]
    Ready,
    /// Busy in an execution unit until the given cycle.
    OpUntil(u64),
    /// Waiting on outstanding memory chunks.
    WaitMem { outstanding: u32 },
    /// Waiting for space in the RT unit's warp buffer.
    RtPending,
    /// Resident in the RT unit.
    InRt,
}

// Status codes match the post-mortem encoding in `Sm::post_mortem`.
impl Snap for CtxStatus {
    fn save(&self, e: &mut Enc) {
        match *self {
            CtxStatus::Ready => e.u8(0),
            CtxStatus::OpUntil(t) => {
                e.u8(1);
                e.u64(t);
            }
            CtxStatus::WaitMem { outstanding } => {
                e.u8(2);
                e.u32(outstanding);
            }
            CtxStatus::RtPending => e.u8(3),
            CtxStatus::InRt => e.u8(4),
        }
    }

    fn load(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(match d.u8()? {
            0 => CtxStatus::Ready,
            1 => CtxStatus::OpUntil(d.u64()?),
            2 => CtxStatus::WaitMem {
                outstanding: d.u32()?,
            },
            3 => CtxStatus::RtPending,
            4 => CtxStatus::InRt,
            t => return Err(SnapError::bad_tag::<Self>(t)),
        })
    }
}

/// One resident warp.
#[derive(Debug)]
pub struct Warp {
    /// Global warp index.
    pub id: u32,
    /// Global thread id of lane 0.
    pub base_tid: usize,
    threads: Vec<ThreadState>,
    engine: SimtEngine,
    ctx_state: HashMap<u32, CtxState>,
}

impl Warp {
    fn new(
        id: u32,
        base_tid: usize,
        active: Mask,
        program: &Program,
        mode: DivergenceMode,
    ) -> Self {
        let threads = (0..WARP_SIZE)
            .map(|lane| {
                ThreadState::with_tid(
                    program.num_regs(),
                    program.num_preds().max(1),
                    base_tid + lane,
                )
            })
            .collect();
        let engine = match mode {
            DivergenceMode::Stack => SimtEngine::stack(active),
            DivergenceMode::Multipath => SimtEngine::multipath(active),
        };
        Warp {
            id,
            base_tid,
            threads,
            engine,
            ctx_state: HashMap::new(),
        }
    }

    fn done(&self) -> bool {
        self.engine.done()
            && self
                .ctx_state
                .values()
                .all(|c| c.status == CtxStatus::Ready || matches!(c.status, CtxStatus::OpUntil(_)))
    }
}

vksim_snapshot::snap_struct!(Warp {
    id,
    base_tid,
    threads,
    engine,
    ctx_state
});

// Who is waiting on an L1 line fill.
#[derive(Clone, Copy, Debug)]
enum Waiter {
    WarpCtx { warp: u32, ctx: u32 },
    RtToken(u64),
}

impl Snap for Waiter {
    fn save(&self, e: &mut Enc) {
        match *self {
            Waiter::WarpCtx { warp, ctx } => {
                e.u8(0);
                e.u32(warp);
                e.u32(ctx);
            }
            Waiter::RtToken(token) => {
                e.u8(1);
                e.u64(token);
            }
        }
    }

    fn load(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(match d.u8()? {
            0 => Waiter::WarpCtx {
                warp: d.u32()?,
                ctx: d.u32()?,
            },
            1 => Waiter::RtToken(d.u64()?),
            t => return Err(SnapError::bad_tag::<Self>(t)),
        })
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum CacheSel {
    L1,
    Rtc,
}

impl Snap for CacheSel {
    fn save(&self, e: &mut Enc) {
        e.u8(match self {
            CacheSel::L1 => 0,
            CacheSel::Rtc => 1,
        });
    }

    fn load(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        match d.u8()? {
            0 => Ok(CacheSel::L1),
            1 => Ok(CacheSel::Rtc),
            t => Err(SnapError::bad_tag::<Self>(t)),
        }
    }
}

/// What one [`Sm::tick`] accomplished; consumed by the warp-refill logic
/// and the forward-progress watchdog.
#[derive(Clone, Copy, Debug, Default)]
pub struct TickReport {
    /// A warp retired this cycle.
    pub retired: bool,
    /// The SM made forward progress: an instruction issued, a warp
    /// retired, or the RT unit finished a warp.
    pub progress: bool,
}

/// The per-SM state.
pub struct Sm {
    /// SM index within the GPU.
    pub id: usize,
    warps: Vec<Warp>,
    l1: Cache,
    rtc: Option<Cache>,
    /// The SM's ray-tracing accelerator.
    pub rt_unit: RtUnit,
    waiting_lines: HashMap<(CacheSel, u64), Vec<Waiter>>,
    inflight: HashMap<u64, (CacheSel, u64)>, // req id -> (cache, line)
    next_rt_job: u32,
    rt_job_map: HashMap<u32, (u32, u32)>, // job id -> (warp id, ctx id)
    last_warp: Option<u32>,
    /// Fault injection: never schedule this warp id (crafts a livelock).
    stall_warp: Option<u32>,
    perfect_bvh: bool,
    sfu_latency: u32,
    divergence: DivergenceMode,
    /// Memory partitions in the shared backend (tags MSHR trace events).
    num_partitions: u32,
    next_req: u64,
    /// Per-SM counters (instruction mix, issue stats).
    pub stats: Counters,
    /// Sum of active lanes over issued instructions (SIMT efficiency).
    pub issued_lanes: u64,
    /// Number of issued instructions.
    pub issued_insts: u64,
    /// Cycles where the RT unit had at least one resident warp.
    pub trace_cycles: u64,
    // Cycle-level event recorder; `None` (the default) keeps every hook to
    // a single branch-on-null.
    tracer: Option<Box<SmTracer>>,
    // Cycle-accounting recorder; same branch-on-null discipline as the
    // tracer, so a disabled run pays one null check per tick.
    accounting: Option<Box<CycleAccounting>>,
    // Warp traversal-coherence recorder (rt analytics); same
    // branch-on-null discipline.
    rt_analytics: Option<Box<WarpCoherence>>,
}

impl Sm {
    /// Creates an SM from the GPU configuration.
    pub fn new(id: usize, config: &GpuConfig) -> Self {
        Sm {
            id,
            warps: Vec::new(),
            l1: Cache::new(config.l1.clone()),
            rtc: config.rt_cache.clone().map(Cache::new),
            rt_unit: RtUnit::new(config.rt_unit.clone()),
            waiting_lines: HashMap::new(),
            inflight: HashMap::new(),
            next_rt_job: 0,
            rt_job_map: HashMap::new(),
            last_warp: None,
            stall_warp: config.fault_plan.stall_warp,
            perfect_bvh: config.perfect_bvh,
            sfu_latency: config.sfu_latency,
            divergence: config.divergence,
            num_partitions: config.mem.num_partitions.max(1),
            next_req: 0,
            stats: Counters::new(),
            issued_lanes: 0,
            issued_insts: 0,
            trace_cycles: 0,
            tracer: None,
            accounting: None,
            rt_analytics: None,
        }
    }

    /// Switches on cycle-level tracing for this SM and its RT unit.
    pub fn enable_trace(&mut self, config: &TraceConfig) {
        self.tracer = Some(Box::new(SmTracer::new(config)));
        self.rt_unit.set_event_trace(true);
    }

    /// Switches on cycle accounting for this SM: from here on, every tick
    /// attributes its cycle to exactly one [`CycleCategory`].
    pub fn enable_accounting(&mut self) {
        self.accounting = Some(Box::new(CycleAccounting::new()));
    }

    /// The cycle-accounting recorder, when enabled.
    pub fn accounting(&self) -> Option<&CycleAccounting> {
        self.accounting.as_deref()
    }

    /// Switches on ray-traversal analytics for this SM: warp coherence is
    /// tallied at every `traceRay` issue and the RT unit attributes steps
    /// and latency per job.
    pub fn enable_rt_analytics(&mut self) {
        self.rt_analytics = Some(Box::new(WarpCoherence::new()));
        self.rt_unit.set_analytics(true);
    }

    /// The warp-coherence recorder, when rt analytics is enabled.
    pub fn rt_analytics(&self) -> Option<&WarpCoherence> {
        self.rt_analytics.as_deref()
    }

    /// The per-SM event recorder, when tracing is enabled. Phase B drains
    /// it through [`vksim_trace::TraceCollector::drain_sm`].
    pub fn tracer_mut(&mut self) -> Option<&mut SmTracer> {
        self.tracer.as_deref_mut()
    }

    /// The per-SM event recorder (read-only view).
    pub fn tracer(&self) -> Option<&SmTracer> {
        self.tracer.as_deref()
    }

    /// Closes every open trace span (stalls, RT-busy) at end of run.
    pub fn finalize_trace(&mut self, cycle: u64) {
        if let Some(tr) = self.tracer.as_mut() {
            tr.finalize(cycle);
        }
    }

    /// Number of resident warps.
    pub fn resident_warps(&self) -> usize {
        self.warps.len()
    }

    /// `true` when no warps are resident.
    pub fn is_empty(&self) -> bool {
        self.warps.is_empty()
    }

    /// The L1 data cache (statistics).
    pub fn l1(&self) -> &Cache {
        &self.l1
    }

    /// The dedicated RT cache, when configured.
    pub fn rtc(&self) -> Option<&Cache> {
        self.rtc.as_ref()
    }

    /// Admits a warp covering global threads `[base_tid, base_tid+32)` with
    /// `active` lanes.
    pub fn add_warp(&mut self, id: u32, base_tid: usize, active: Mask, program: &Program) {
        self.warps
            .push(Warp::new(id, base_tid, active, program, self.divergence));
    }

    fn alloc_req_id(&mut self) -> u64 {
        self.next_req += 1;
        ((self.id as u64) << 48) | self.next_req
    }

    /// Routes a completed backend request (id was allocated by this SM).
    pub fn on_mem_complete(&mut self, id: u64, at: u64) {
        let Some((sel, line)) = self.inflight.remove(&id) else {
            return;
        };
        if let Some(tr) = self.tracer.as_mut() {
            let partition = partition_of(line, self.num_partitions);
            tr.record(at, NO_WARP, EventKind::MshrFill { line, partition });
        }
        match sel {
            CacheSel::L1 => {
                self.l1.fill(line, at);
            }
            CacheSel::Rtc => {
                if let Some(rtc) = &mut self.rtc {
                    rtc.fill(line, at);
                }
            }
        }
        if let Some(waiters) = self.waiting_lines.remove(&(sel, line)) {
            for w in waiters {
                match w {
                    Waiter::WarpCtx { warp, ctx } => {
                        if let Some(wp) = self.warps.iter_mut().find(|w| w.id == warp) {
                            let st = wp.ctx_state.entry(ctx).or_default();
                            if let CtxStatus::WaitMem { outstanding } = &mut st.status {
                                *outstanding = outstanding.saturating_sub(1);
                                if *outstanding == 0 && st.retry_chunks.is_empty() {
                                    st.status = CtxStatus::OpUntil(at);
                                    if let Some(tr) = self.tracer.as_mut() {
                                        tr.stall_end(at, warp);
                                    }
                                }
                            }
                        }
                    }
                    Waiter::RtToken(token) => {
                        self.rt_unit.on_mem_complete(token, at);
                    }
                }
            }
        }
    }

    /// One core cycle.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Exec`] when a lane faults during issue (pc out
    /// of program range, RT instruction without a runtime, corrupt
    /// acceleration structure). The SM is left as of the faulting cycle so
    /// a post-mortem snapshot reflects the failure state.
    pub fn tick(
        &mut self,
        now: u64,
        program: &Program,
        mem: &mut dyn MemIo,
        sink: &mut dyn MemSink,
        hooks: &mut dyn GpuHooks,
    ) -> Result<TickReport, Box<SimError>> {
        // Interconnect backpressure: leftovers in the SM's request queue
        // after the previous phase-B drain mean the bounded interconnect
        // refused them. Sampled once at tick start — before this cycle's
        // own submissions land — so the reading is identical at any thread
        // count.
        let icnt_blocked = sink.backlogged();
        if icnt_blocked {
            self.stats.inc("sm.icnt_stall_cycles");
        }
        if let Some(tr) = self.tracer.as_mut() {
            tr.icnt_stall_edge(now, icnt_blocked);
        }

        // Cycle accounting: classify the would-be stall reason from
        // SM-local state sampled at tick start — before the RT unit and
        // retry passes below mutate context statuses — so the attribution
        // is identical at any thread count (the `icnt_stall_cycles`
        // discipline). `Issued` overrides the
        // precomputed class after the issue stage.
        let stall_class = self
            .accounting
            .is_some()
            .then(|| self.classify_stall(now, icnt_blocked));

        // 1. RT unit cycle.
        let rt_finished = self.tick_rt_unit(now, sink);

        // 2. Retry stalled RT enqueues and memory-chunk retries.
        self.retry_stalled(now, sink);

        // 3. Issue one instruction from one warp context (GTO) — held
        // while the interconnect is backpressuring this SM, so the warp
        // that would issue stalls instead of growing the backlog.
        let mut issued = false;
        if !icnt_blocked {
            if let Some((warp_idx, ctx_id)) = self.pick(now) {
                self.issue(warp_idx, ctx_id, now, program, mem, sink, hooks)?;
                issued = true;
            }
        }

        if self.rt_unit.resident_warps() > 0 {
            self.trace_cycles += 1;
        }
        if let Some(tr) = self.tracer.as_mut() {
            tr.rt_busy_edge(now, self.rt_unit.resident_warps() > 0);
        }

        // Attribute this cycle to exactly one category.
        if let Some((cat, resident, eligible)) = stall_class {
            let acc = self.accounting.as_mut().expect("classified => enabled");
            acc.record(if issued { CycleCategory::Issued } else { cat });
            acc.record_occupancy(resident, eligible);
        }

        // 4. Retire finished warps.
        if let Some(tr) = self.tracer.as_mut() {
            for w in self.warps.iter().filter(|w| w.done()) {
                tr.record(now, w.id, EventKind::Retire);
            }
        }
        let before = self.warps.len();
        self.warps.retain(|w| !w.done());
        let retired = before != self.warps.len();
        Ok(TickReport {
            retired,
            progress: issued || retired || rt_finished,
        })
    }

    fn tick_rt_unit(&mut self, now: u64, sink: &mut dyn MemSink) -> bool {
        let mut port = SmRtPort {
            l1: &mut self.l1,
            rtc: self.rtc.as_mut(),
            sink,
            waiting_lines: &mut self.waiting_lines,
            inflight: &mut self.inflight,
            next_req: &mut self.next_req,
            sm_id: self.id,
            perfect_bvh: self.perfect_bvh,
            num_partitions: self.num_partitions,
            tracer: self.tracer.as_deref_mut(),
        };
        let done = self.rt_unit.tick(now, &mut port);
        let finished = !done.is_empty();
        // Translate the RT unit's job-keyed events into warp-keyed trace
        // events *before* done jobs drop out of the map below.
        if self.tracer.is_some() {
            for ev in self.rt_unit.take_events() {
                if let Some(&(warp, _)) = self.rt_job_map.get(&ev.warp_id) {
                    let kind = match ev.kind {
                        RtUnitEventKind::Enqueue => EventKind::RtStart,
                        RtUnitEventKind::Finish { latency } => EventKind::RtFinish { latency },
                    };
                    if let Some(tr) = self.tracer.as_mut() {
                        tr.record(ev.cycle, warp, kind);
                    }
                }
            }
        }
        for d in done {
            if let Some((warp, ctx)) = self.rt_job_map.remove(&d.warp_id) {
                if let Some(w) = self.warps.iter_mut().find(|w| w.id == warp) {
                    w.ctx_state.entry(ctx).or_default().status = CtxStatus::Ready;
                }
            }
        }
        finished
    }

    fn retry_stalled(&mut self, now: u64, sink: &mut dyn MemSink) {
        // RT warp-buffer retries: admit stalled jobs while capacity lasts.
        let mut slots = self
            .rt_unit
            .config()
            .max_warps
            .saturating_sub(self.rt_unit.resident_warps());
        let mut enqueues: Vec<(u32, u32, WarpJob)> = Vec::new();
        'outer: for w in &mut self.warps {
            for (&ctx, st) in w.ctx_state.iter_mut() {
                if slots == 0 {
                    break 'outer;
                }
                if st.status == CtxStatus::RtPending && st.pending_rt_job.is_some() {
                    let job = st.pending_rt_job.take().expect("checked");
                    st.status = CtxStatus::InRt;
                    slots -= 1;
                    enqueues.push((w.id, ctx, job));
                }
            }
        }
        for (warp, ctx, job) in enqueues {
            let job_id = job.warp_id;
            if self.rt_unit.try_enqueue(job, now) {
                self.rt_job_map.insert(job_id, (warp, ctx));
            } else {
                // Capacity raced away (shouldn't in a single-threaded
                // model); count it and leave the ctx stuck for diagnosis.
                self.stats.inc("rt.enqueue_race");
            }
        }

        // Memory chunk retries (L1 MSHR was full).
        let mut retries: Vec<(u32, u32, u64)> = Vec::new();
        for w in &self.warps {
            for (&ctx, st) in &w.ctx_state {
                for &chunk in &st.retry_chunks {
                    retries.push((w.id, ctx, chunk));
                }
            }
        }
        for (warp, ctx, chunk) in retries {
            let outcome = self.l1.access(chunk, AccessKind::ShaderLoad, now);
            let line = self.l1.line_of(chunk);
            let resolved = match outcome {
                CacheOutcome::Hit => Some(None),
                CacheOutcome::MissToMemory => {
                    let id = self.alloc_req_id();
                    self.inflight.insert(id, (CacheSel::L1, line));
                    sink.submit(
                        MemRequest {
                            id,
                            addr: chunk,
                            kind: AccessKind::ShaderLoad,
                            is_store: false,
                        },
                        now,
                    );
                    if let Some(tr) = self.tracer.as_mut() {
                        let partition = partition_of(line, self.num_partitions);
                        tr.record(now, warp, EventKind::MshrAlloc { line, partition });
                    }
                    Some(Some(Waiter::WarpCtx { warp, ctx }))
                }
                CacheOutcome::MissMerged => Some(Some(Waiter::WarpCtx { warp, ctx })),
                CacheOutcome::ReservationFail => None,
            };
            let Some(waiter) = resolved else { continue };
            if let Some(wtr) = waiter {
                self.waiting_lines
                    .entry((CacheSel::L1, line))
                    .or_default()
                    .push(wtr);
            }
            if let Some(w) = self.warps.iter_mut().find(|w| w.id == warp) {
                let st = w.ctx_state.entry(ctx).or_default();
                st.retry_chunks.retain(|&c| c != chunk);
                match (&mut st.status, waiter.is_some()) {
                    (CtxStatus::WaitMem { outstanding }, true) => {
                        // Already counted in outstanding.
                        let _ = outstanding;
                    }
                    (CtxStatus::WaitMem { outstanding }, false) => {
                        *outstanding = outstanding.saturating_sub(1);
                        if *outstanding == 0 && st.retry_chunks.is_empty() {
                            st.status = CtxStatus::OpUntil(now + self.l1.hit_latency() as u64);
                            if let Some(tr) = self.tracer.as_mut() {
                                tr.stall_end(now, warp);
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    /// Classifies the cycle's stall reason from tick-start state and
    /// samples the occupancy tallies. Returns
    /// `(category, resident warps, eligible warps)`; the caller swaps the
    /// category for `Issued` if the issue stage fires this cycle.
    ///
    /// Precedence among simultaneous stall sources: interconnect
    /// backpressure freezes the whole issue stage, so it wins; an empty
    /// SM is `Drained`; then scoreboard memory waits, RT-unit parking,
    /// divergence wait, and finally the pure occupancy gap.
    fn classify_stall(&self, now: u64, icnt_blocked: bool) -> (CycleCategory, u64, u64) {
        let resident = self.warps.len() as u64;
        let mut eligible = 0u64;
        let mut any_mem = false;
        let mut any_rt = false;
        let mut any_simt = false;
        for w in &self.warps {
            let issuable = w.engine.contexts().iter().any(|c| {
                match w.ctx_state.get(&c.id).map(|s| &s.status) {
                    None | Some(CtxStatus::Ready) => true,
                    Some(CtxStatus::OpUntil(t)) => *t <= now,
                    _ => false,
                }
            });
            if issuable {
                eligible += 1;
            }
            for st in w.ctx_state.values() {
                match st.status {
                    CtxStatus::WaitMem { .. } => any_mem = true,
                    CtxStatus::RtPending | CtxStatus::InRt => any_rt = true,
                    _ => {}
                }
            }
            if w.engine.mid_divergence() {
                any_simt = true;
            }
        }
        let cat = if icnt_blocked {
            CycleCategory::IcntStall
        } else if resident == 0 {
            CycleCategory::Drained
        } else if any_mem {
            CycleCategory::MemStall
        } else if any_rt {
            CycleCategory::RtStall
        } else if any_simt {
            CycleCategory::SimtSync
        } else {
            CycleCategory::NoEligibleWarp
        };
        (cat, resident, eligible)
    }

    /// GTO pick: (warp index, ctx id).
    fn pick(&mut self, now: u64) -> Option<(usize, u32)> {
        let issuable_ctx = |w: &Warp| -> Option<u32> {
            w.engine
                .contexts()
                .iter()
                .filter(|c| {
                    let st = w.ctx_state.get(&c.id);
                    match st.map(|s| &s.status) {
                        None | Some(CtxStatus::Ready) => true,
                        Some(CtxStatus::OpUntil(t)) => *t <= now,
                        _ => false,
                    }
                })
                .map(|c| c.id)
                .min()
        };
        // Greedy: stick to the last-issued warp.
        if let Some(last) = self.last_warp {
            if Some(last) != self.stall_warp {
                if let Some(idx) = self.warps.iter().position(|w| w.id == last) {
                    if let Some(ctx) = issuable_ctx(&self.warps[idx]) {
                        return Some((idx, ctx));
                    }
                }
            }
        }
        // Then oldest (resident order is launch order).
        for (idx, w) in self.warps.iter().enumerate() {
            if Some(w.id) == self.stall_warp {
                continue;
            }
            if let Some(ctx) = issuable_ctx(w) {
                self.last_warp = Some(w.id);
                return Some((idx, ctx));
            }
        }
        None
    }

    /// `true` when some SIMT context could issue at `now`. Used by the
    /// watchdog to tell a scheduler livelock (schedulable work exists but
    /// nothing issues) from blocked-on-memory states.
    pub fn has_issuable_ctx(&self, now: u64) -> bool {
        self.warps.iter().any(|w| {
            w.engine.contexts().iter().any(|c| {
                let st = w.ctx_state.get(&c.id);
                match st.map(|s| &s.status) {
                    None | Some(CtxStatus::Ready) => true,
                    Some(CtxStatus::OpUntil(t)) => *t <= now,
                    _ => false,
                }
            })
        })
    }

    /// Records this SM's scheduler and memory state into a flat post-mortem
    /// snapshot: per-context pc/mask/status, MSHR and in-flight queue
    /// depths, and RT-unit occupancy.
    pub fn post_mortem(&self, snap: &mut BTreeMap<String, u64>) {
        let p = format!("sm{}", self.id);
        snap.insert(format!("{p}.resident_warps"), self.warps.len() as u64);
        snap.insert(format!("{p}.inflight_mem"), self.inflight.len() as u64);
        snap.insert(
            format!("{p}.waiting_lines"),
            self.waiting_lines.len() as u64,
        );
        snap.insert(
            format!("{p}.rt.resident_warps"),
            self.rt_unit.resident_warps() as u64,
        );
        snap.insert(
            format!("{p}.rt.active_rays"),
            self.rt_unit.active_rays() as u64,
        );
        snap.insert(
            format!("{p}.rt.queued_mem"),
            self.rt_unit.queued_mem_requests() as u64,
        );
        snap.insert(
            format!("{p}.rt.inflight_mem"),
            self.rt_unit.inflight_mem_requests() as u64,
        );
        for w in &self.warps {
            for c in w.engine.contexts() {
                let cp = format!("{p}.warp{}.ctx{}", w.id, c.id);
                snap.insert(format!("{cp}.pc"), c.pc as u64);
                snap.insert(format!("{cp}.mask"), c.mask as u64);
                let code = match w.ctx_state.get(&c.id).map(|s| &s.status) {
                    None | Some(CtxStatus::Ready) => 0,
                    Some(CtxStatus::OpUntil(_)) => 1,
                    Some(CtxStatus::WaitMem { .. }) => 2,
                    Some(CtxStatus::RtPending) => 3,
                    Some(CtxStatus::InRt) => 4,
                };
                snap.insert(format!("{cp}.status"), code);
            }
        }
        // Flight recorder: the last trace events before the failure, flat
        // so they survive the fault dump's counter-style encoding.
        if let Some(tr) = &self.tracer {
            for (i, ev) in tr.flight().enumerate() {
                let ep = format!("{p}.trace.ev{i}");
                snap.insert(format!("{ep}.cycle"), ev.cycle);
                snap.insert(format!("{ep}.warp"), ev.warp as u64);
                snap.insert(format!("{ep}.kind"), ev.kind.code());
                let (a, b) = ev.kind.args();
                snap.insert(format!("{ep}.a"), a);
                snap.insert(format!("{ep}.b"), b);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn issue(
        &mut self,
        warp_idx: usize,
        ctx_id: u32,
        now: u64,
        program: &Program,
        mem: &mut dyn MemIo,
        sink: &mut dyn MemSink,
        hooks: &mut dyn GpuHooks,
    ) -> Result<(), Box<SimError>> {
        let warp = &mut self.warps[warp_idx];
        let Some(ctx) = warp.engine.contexts().into_iter().find(|c| c.id == ctx_id) else {
            return Ok(());
        };
        let pc = ctx.pc;
        let mask = ctx.mask;
        if pc as usize >= program.len() {
            return Err(Box::new(SimError::Exec {
                sm: self.id,
                warp: warp.id,
                lane: 0,
                pc,
                detail: format!("pc {pc} outside program of {} instructions", program.len()),
            }));
        }
        let instr = *program.fetch(pc);
        self.stats.inc(&format!("inst.{:?}", instr.class()));
        self.issued_insts += 1;
        self.issued_lanes += mask.count_ones() as u64;
        if let Some(tr) = self.tracer.as_mut() {
            tr.issue(now, warp.id, pc, mask.count_ones());
        }

        // Execute every active lane functionally.
        let mut lane_effects: Vec<(usize, Effect)> = Vec::new();
        for lane in 0..WARP_SIZE {
            if mask & (1 << lane) == 0 {
                continue;
            }
            let t = &mut warp.threads[lane];
            let eff = exec_at(program, pc, t, mem, hooks).map_err(|e| {
                Box::new(SimError::Exec {
                    sm: self.id,
                    warp: warp.id,
                    lane,
                    pc,
                    detail: e.to_string(),
                })
            })?;
            lane_effects.push((lane, eff));
        }
        let Some(&(_, first)) = lane_effects.first() else {
            return Ok(());
        };

        let warp_id = warp.id;
        match first {
            Effect::Alu | Effect::RtOther => {
                warp.engine.apply(ctx_id, CtxOutcome::Fallthrough);
                warp.ctx_state.entry(ctx_id).or_default().status = CtxStatus::Ready;
            }
            Effect::Sfu => {
                warp.engine.apply(ctx_id, CtxOutcome::Fallthrough);
                warp.ctx_state.entry(ctx_id).or_default().status =
                    CtxStatus::OpUntil(now + self.sfu_latency as u64);
            }
            Effect::Ssy { reconv } => {
                warp.engine.apply(ctx_id, CtxOutcome::Ssy { reconv });
                warp.ctx_state.entry(ctx_id).or_default().status = CtxStatus::Ready;
            }
            Effect::Sync => {
                let info = warp.engine.apply(ctx_id, CtxOutcome::Sync);
                if info.reconverged {
                    if let Some(tr) = self.tracer.as_mut() {
                        tr.record(now, warp_id, EventKind::Reconverge { pc });
                    }
                }
                warp.ctx_state.entry(ctx_id).or_default().status = CtxStatus::Ready;
            }
            Effect::Exited => {
                warp.engine.apply(ctx_id, CtxOutcome::Exit);
            }
            Effect::Branch { target, .. } => {
                let mut taken: Mask = 0;
                for &(lane, eff) in &lane_effects {
                    if let Effect::Branch { taken: t, .. } = eff {
                        if t {
                            taken |= 1 << lane;
                        }
                    }
                }
                if taken != 0 && taken != mask {
                    self.stats.inc("divergent_branches");
                }
                let info = warp
                    .engine
                    .apply(ctx_id, CtxOutcome::Branch { target, taken });
                if let Some(tr) = self.tracer.as_mut() {
                    if info.diverged {
                        tr.record(now, warp_id, EventKind::Diverge { pc });
                    }
                    if info.reconverged {
                        tr.record(now, warp_id, EventKind::Reconverge { pc });
                    }
                }
                warp.ctx_state.entry(ctx_id).or_default().status = CtxStatus::Ready;
            }
            Effect::Mem {
                space: MemSpace::Const,
                ..
            } => {
                // Constant cache: single-cycle, no traffic modelled.
                warp.engine.apply(ctx_id, CtxOutcome::Fallthrough);
                warp.ctx_state.entry(ctx_id).or_default().status = CtxStatus::Ready;
            }
            Effect::Mem { is_store, .. } => {
                // Coalesce lane addresses into unique 32 B chunks.
                let mut chunks: Vec<u64> = Vec::new();
                for &(_, eff) in &lane_effects {
                    if let Effect::Mem { addr, size, .. } = eff {
                        for c in chunk_addresses(addr, size) {
                            if !chunks.contains(&c) {
                                chunks.push(c);
                            }
                        }
                    }
                }
                self.stats.add("mem.coalesced_chunks", chunks.len() as u64);
                warp.engine.apply(ctx_id, CtxOutcome::Fallthrough);
                if is_store {
                    // Write-through, no stall.
                    for c in chunks {
                        self.l1.access(c, AccessKind::ShaderStore, now);
                        let id = self.alloc_req_id();
                        sink.submit(
                            MemRequest {
                                id,
                                addr: c,
                                kind: AccessKind::ShaderStore,
                                is_store: true,
                            },
                            now,
                        );
                    }
                    self.warps[warp_idx]
                        .ctx_state
                        .entry(ctx_id)
                        .or_default()
                        .status = CtxStatus::Ready;
                    return Ok(());
                }
                let mut outstanding = 0u32;
                let mut retries: Vec<u64> = Vec::new();
                for c in chunks {
                    match self.l1.access(c, AccessKind::ShaderLoad, now) {
                        CacheOutcome::Hit => {}
                        CacheOutcome::MissToMemory => {
                            outstanding += 1;
                            let line = self.l1.line_of(c);
                            let id = self.alloc_req_id();
                            self.inflight.insert(id, (CacheSel::L1, line));
                            self.waiting_lines
                                .entry((CacheSel::L1, line))
                                .or_default()
                                .push(Waiter::WarpCtx {
                                    warp: warp_id,
                                    ctx: ctx_id,
                                });
                            sink.submit(
                                MemRequest {
                                    id,
                                    addr: c,
                                    kind: AccessKind::ShaderLoad,
                                    is_store: false,
                                },
                                now,
                            );
                            if let Some(tr) = self.tracer.as_mut() {
                                let partition = partition_of(line, self.num_partitions);
                                tr.record(now, warp_id, EventKind::MshrAlloc { line, partition });
                            }
                        }
                        CacheOutcome::MissMerged => {
                            outstanding += 1;
                            let line = self.l1.line_of(c);
                            self.waiting_lines
                                .entry((CacheSel::L1, line))
                                .or_default()
                                .push(Waiter::WarpCtx {
                                    warp: warp_id,
                                    ctx: ctx_id,
                                });
                        }
                        CacheOutcome::ReservationFail => {
                            outstanding += 1;
                            retries.push(c);
                        }
                    }
                }
                let st = self.warps[warp_idx].ctx_state.entry(ctx_id).or_default();
                if outstanding == 0 {
                    st.status = CtxStatus::OpUntil(now + self.l1.hit_latency() as u64);
                } else {
                    st.status = CtxStatus::WaitMem { outstanding };
                    st.retry_chunks = retries;
                    if let Some(tr) = self.tracer.as_mut() {
                        tr.stall_begin(now, warp_id);
                    }
                }
            }
            Effect::TraceRay => {
                // Collect the recorded traversal scripts for active lanes.
                let mut scripts = vec![Vec::new(); WARP_SIZE];
                for &(lane, _) in &lane_effects {
                    let tid = self.warps[warp_idx].base_tid + lane;
                    scripts[lane] = hooks.take_script(tid);
                }
                if let Some(rec) = self.rt_analytics.as_mut() {
                    // Lane `l` is active at step `s` while its script still
                    // has a step to run; tallying lane counts per step gives
                    // the integer-exact warp·step integral.
                    let max_len = scripts.iter().map(Vec::len).max().unwrap_or(0);
                    rec.record_job(
                        (0..max_len).map(|s| {
                            scripts.iter().filter(|script| script.len() > s).count() as u32
                        }),
                    );
                }
                self.next_rt_job += 1;
                let job_id = self.next_rt_job;
                let job = WarpJob {
                    warp_id: job_id,
                    scripts,
                };
                self.stats.inc("rt.trace_warps");
                let warp = &mut self.warps[warp_idx];
                warp.engine.apply(ctx_id, CtxOutcome::Fallthrough);
                if self.rt_unit.has_capacity() {
                    let admitted = self.rt_unit.try_enqueue(job, now);
                    debug_assert!(admitted, "capacity checked");
                    self.rt_job_map.insert(job_id, (warp_id, ctx_id));
                    warp.ctx_state.entry(ctx_id).or_default().status = CtxStatus::InRt;
                } else {
                    // Warp buffer full: hold the job; retried each cycle.
                    self.stats.inc("rt.enqueue_stall");
                    let st = warp.ctx_state.entry(ctx_id).or_default();
                    st.status = CtxStatus::RtPending;
                    st.pending_rt_job = Some(job);
                }
            }
        }
        Ok(())
    }
}

// Config-derived fields (latencies, divergence mode, fault plan) are not
// written; the resuming configuration, which the snapshot fingerprint
// guarantees matches, already built them. The RT cache restores only into
// a configuration that has one. Each waiter list keeps its arrival order
// (wake-up order is load-bearing).
vksim_snapshot::snap_state!(Sm {
    warps,
    l1: state,
    rtc: with(
        |rtc, e| save_opt(rtc, e, Cache::save),
        |rtc, d| restore_opt(rtc, d, Cache::restore)
    ),
    rt_unit: state,
    waiting_lines,
    inflight,
    next_rt_job,
    rt_job_map,
    last_warp,
    next_req,
    stats,
    issued_lanes,
    issued_insts,
    trace_cycles,
    tracer,
    accounting,
    rt_analytics,
} skip {
    id,
    stall_warp,
    perfect_bvh,
    sfu_latency,
    divergence,
    num_partitions
});

/// RT unit memory port backed by the SM's caches and the shared backend.
struct SmRtPort<'a> {
    l1: &'a mut Cache,
    rtc: Option<&'a mut Cache>,
    sink: &'a mut dyn MemSink,
    waiting_lines: &'a mut HashMap<(CacheSel, u64), Vec<Waiter>>,
    inflight: &'a mut HashMap<u64, (CacheSel, u64)>,
    next_req: &'a mut u64,
    sm_id: usize,
    perfect_bvh: bool,
    num_partitions: u32,
    tracer: Option<&'a mut SmTracer>,
}

impl SmRtPort<'_> {
    fn alloc_req_id(&mut self) -> u64 {
        *self.next_req += 1;
        ((self.sm_id as u64) << 48) | *self.next_req
    }
}

impl RtMem for SmRtPort<'_> {
    fn load_chunk(&mut self, addr: u64, now: u64) -> RtMemResult {
        if self.perfect_bvh {
            return RtMemResult::Ready { at: now + 1 };
        }
        let (sel, cache) = match self.rtc.as_deref_mut() {
            Some(rtc) => (CacheSel::Rtc, rtc),
            None => (CacheSel::L1, &mut *self.l1),
        };
        let line = cache.line_of(addr);
        match cache.access(addr, AccessKind::RtUnit, now) {
            CacheOutcome::Hit => RtMemResult::Ready {
                at: now + cache.hit_latency() as u64,
            },
            CacheOutcome::MissToMemory => {
                let id = self.alloc_req_id();
                self.inflight.insert(id, (sel, line));
                let token = id;
                self.waiting_lines
                    .entry((sel, line))
                    .or_default()
                    .push(Waiter::RtToken(token));
                if let Some(tr) = self.tracer.as_deref_mut() {
                    let partition = partition_of(line, self.num_partitions);
                    tr.record(now, NO_WARP, EventKind::MshrAlloc { line, partition });
                }
                self.sink.submit(
                    MemRequest {
                        id,
                        addr,
                        kind: AccessKind::RtUnit,
                        is_store: false,
                    },
                    now,
                );
                RtMemResult::Pending { token }
            }
            CacheOutcome::MissMerged => {
                let token = {
                    *self.next_req += 1;
                    ((self.sm_id as u64) << 48) | *self.next_req
                };
                self.waiting_lines
                    .entry((sel, line))
                    .or_default()
                    .push(Waiter::RtToken(token));
                RtMemResult::Pending { token }
            }
            CacheOutcome::ReservationFail => RtMemResult::Retry,
        }
    }

    fn store_chunk(&mut self, addr: u64, now: u64) {
        // Write-through traffic; no completion tracked.
        let id = self.alloc_req_id();
        self.sink.submit(
            MemRequest {
                id,
                addr,
                kind: AccessKind::ShaderStore,
                is_store: true,
            },
            now,
        );
    }
}
