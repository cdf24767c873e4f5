//! Streaming multiprocessor model.
//!
//! Each SM holds resident warps, schedules one instruction per cycle with a
//! greedy-then-oldest warp scheduler, executes lanes functionally through
//! the ISA interpreter, and charges timing per instruction class: ALU
//! (pipelined, 1-cycle issue), SFU (blocking latency), memory (coalesced
//! 32 B chunks through the L1 and the shared backend), and `traverseAS`
//! (warp handed to the RT unit).

use crate::config::{DivergenceMode, GpuConfig};
use crate::simt::{Ctx, CtxOutcome, Mask, SimtEngine};
use crate::{ScriptSource, WARP_SIZE};
use std::collections::BTreeMap;
use vksim_fault::SimError;
use vksim_isa::interp::{self, exec_warp, Effect, ExecError, LaneOut, RtHooks, ThreadState};
use vksim_isa::op::MemSpace;
use vksim_isa::{Program, SimMemory};
use vksim_mem::{
    AccessKind, AddrMap, Cache, CacheOutcome, FixedMap, MemRequest, MemSink, CHUNK_BYTES,
};
use vksim_rtunit::{RtMem, RtMemResult, RtUnit, RtUnitEventKind, WarpJob};
use vksim_snapshot::{restore_opt, save_opt};
use vksim_stats::Counters;
use vksim_trace::{CycleCategory, CycleState, EventKind, SmObservers, NO_WARP};

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

impl CtxState {
    /// Resolves `n` outstanding chunks; `true` when they were the last, and
    /// the context resumes at `ready_at`.
    fn chunks_done(&mut self, n: u32, ready_at: u64) -> bool {
        let CtxStatus::WaitMem { outstanding } = &mut self.status else {
            return false;
        };
        *outstanding = outstanding.saturating_sub(n);
        if *outstanding > 0 || !self.retry_chunks.is_empty() {
            return false;
        }
        self.status = CtxStatus::OpUntil(ready_at);
        true
    }
}

#[derive(Clone, Copy, Debug, Default, PartialEq)]
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

// The tags are also the post-mortem status codes.
vksim_snapshot::snap_enum!(CtxStatus {
    0 => Ready,
    1 => OpUntil(at),
    2 => WaitMem { outstanding },
    3 => RtPending,
    4 => InRt,
});

/// One resident warp.
#[derive(Debug)]
pub struct Warp {
    /// Global warp index.
    pub id: u32,
    /// Global thread id of lane 0.
    pub base_tid: usize,
    threads: Vec<ThreadState>,
    engine: SimtEngine,
    // Scheduling state per context, sorted by context id so that every walk
    // is in id order; a context without an entry is `Ready`. Entries
    // outlive their context (ids are never reused).
    ctx_state: Vec<(u32, CtxState)>,
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
            ctx_state: Vec::new(),
        }
    }

    fn done(&self) -> bool {
        self.engine.done()
            && self
                .ctx_state
                .iter()
                .all(|(_, c)| matches!(c.status, CtxStatus::Ready | CtxStatus::OpUntil(_)))
    }

    // Where `ctx`'s entry is, or where it would be inserted.
    fn slot(&self, ctx: u32) -> Result<usize, usize> {
        self.ctx_state.binary_search_by_key(&ctx, |(id, _)| *id)
    }

    fn status(&self, ctx: u32) -> CtxStatus {
        self.slot(ctx)
            .map_or(CtxStatus::Ready, |i| self.ctx_state[i].1.status)
    }

    fn state_mut(&mut self, ctx: u32) -> &mut CtxState {
        let i = self.slot(ctx).unwrap_or_else(|i| {
            self.ctx_state.insert(i, (ctx, CtxState::default()));
            i
        });
        &mut self.ctx_state[i].1
    }

    /// The cycle `ctx` may issue from (0: `Ready`); `None` while it waits.
    fn ready_at(&self, ctx: &Ctx) -> Option<u64> {
        match self.status(ctx.id) {
            CtxStatus::Ready => Some(0),
            CtxStatus::OpUntil(t) => Some(t),
            _ => None,
        }
    }

    /// The lowest-id context that can issue at `now`: the one copy of the
    /// rule the scheduler, the stall classifier and the watchdog share.
    fn issuable_ctx(&self, now: u64) -> Option<u32> {
        let ready = |c: &Ctx| self.ready_at(c).is_some_and(|t| t <= now);
        self.engine.contexts().filter(ready).map(|c| c.id).min()
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

vksim_snapshot::snap_enum!(Waiter {
    0 => WarpCtx { warp, ctx },
    1 => RtToken(token),
});

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum CacheSel {
    L1,
    Rtc,
}

vksim_snapshot::snap_enum!(CacheSel {
    0 => L1,
    1 => Rtc,
});

/// The SM's memory port: its caches, miss bookkeeping and request-id
/// counter, borrowed together with the cycle's sink. Shader loads and
/// stores and the RT unit ([`RtMem`]) all go through it.
struct SmPort<'a> {
    l1: &'a mut Cache,
    rtc: Option<&'a mut Cache>,
    sink: &'a mut dyn MemSink,
    waiting_lines: &'a mut FixedMap<(CacheSel, u64), Vec<Waiter>>,
    inflight: &'a mut FixedMap<u64, (CacheSel, u64)>,
    next_req: &'a mut u64,
    sm_id: usize,
    perfect_bvh: bool,
    map: AddrMap,
    obs: &'a mut SmObservers,
}

// Borrows the port's fields out of an `Sm`, leaving `warps`, `rt_unit` and
// the counters free for the caller.
macro_rules! port {
    ($sm:ident, $sink:expr) => {
        SmPort {
            l1: &mut $sm.l1,
            rtc: $sm.rtc.as_mut(),
            sink: $sink,
            waiting_lines: &mut $sm.waiting_lines,
            inflight: &mut $sm.inflight,
            next_req: &mut $sm.next_req,
            sm_id: $sm.id,
            perfect_bvh: $sm.perfect_bvh,
            map: $sm.map,
            obs: &mut $sm.observers,
        }
    };
}

impl SmPort<'_> {
    fn alloc_req_id(&mut self) -> u64 {
        *self.next_req += 1;
        ((self.sm_id as u64) << 48) | *self.next_req
    }

    /// One cached load: RT-unit accesses go to the RT cache when there is
    /// one, everything else to the L1. A miss parks its waiter on the line —
    /// `Some((warp, ctx))` for a shader context, `None` for the RT unit,
    /// which is woken through the returned token — and a miss to memory
    /// also sends the request down. The token is the request's own id, or a
    /// fresh id when the miss merged.
    fn load(
        &mut self,
        addr: u64,
        kind: AccessKind,
        waiter: Option<(u32, u32)>,
        now: u64,
    ) -> (CacheOutcome, u64) {
        let (sel, cache) = match self.rtc.as_deref_mut() {
            Some(rtc) if kind == AccessKind::RtUnit => (CacheSel::Rtc, rtc),
            _ => (CacheSel::L1, &mut *self.l1),
        };
        let line = cache.line_of(addr);
        let outcome = cache.access(addr, kind, now);
        let to_memory = outcome == CacheOutcome::MissToMemory;
        if !to_memory && outcome != CacheOutcome::MissMerged {
            return (outcome, 0);
        }
        let id = if to_memory || waiter.is_none() {
            self.alloc_req_id()
        } else {
            0 // a merged shader miss is woken by name and sends nothing
        };
        let (warp, waiter) = match waiter {
            Some((warp, ctx)) => (warp, Waiter::WarpCtx { warp, ctx }),
            None => (NO_WARP, Waiter::RtToken(id)),
        };
        self.waiting_lines
            .entry((sel, line))
            .or_default()
            .push(waiter);
        if to_memory {
            self.inflight.insert(id, (sel, line));
            let req = MemRequest {
                id,
                addr,
                kind,
                is_store: false,
            };
            self.sink.submit(req, now);
            if self.obs.tracing() {
                let partition = self.map.partition(line);
                self.obs
                    .event(now, warp, EventKind::MshrAlloc { line, partition });
            }
        }
        (outcome, id)
    }

    /// Write-through store traffic; no completion is tracked.
    fn store(&mut self, addr: u64, now: u64) {
        let req = MemRequest {
            id: self.alloc_req_id(),
            addr,
            kind: AccessKind::ShaderStore,
            is_store: true,
        };
        self.sink.submit(req, now);
    }
}

impl RtMem for SmPort<'_> {
    fn load_chunk(&mut self, addr: u64, now: u64) -> RtMemResult {
        if self.perfect_bvh {
            return RtMemResult::Ready { at: now + 1 };
        }
        match self.load(addr, AccessKind::RtUnit, None, now) {
            (CacheOutcome::Hit, _) => {
                let cache = self.rtc.as_deref().unwrap_or(self.l1);
                RtMemResult::Ready {
                    at: now + cache.hit_latency() as u64,
                }
            }
            (CacheOutcome::ReservationFail, _) => RtMemResult::Retry,
            (_, token) => RtMemResult::Pending { token },
        }
    }

    fn store_chunk(&mut self, addr: u64, now: u64) {
        self.store(addr, now);
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
    waiting_lines: FixedMap<(CacheSel, u64), Vec<Waiter>>,
    inflight: FixedMap<u64, (CacheSel, u64)>, // req id -> (cache, line)
    next_rt_job: u32,
    rt_job_map: BTreeMap<u32, (u32, u32)>, // job id -> (warp id, ctx id)
    last_warp: Option<u32>,
    /// Fault injection: never schedule this warp id (crafts a livelock).
    stall_warp: Option<u32>,
    perfect_bvh: bool,
    sfu_latency: u32,
    divergence: DivergenceMode,
    /// The shared backend's address map (tags MSHR trace events).
    map: AddrMap,
    next_req: u64,
    /// Per-SM counters (instruction mix, issue stats).
    pub stats: Counters,
    /// Sum of active lanes over issued instructions (SIMT efficiency).
    pub issued_lanes: u64,
    /// Number of issued instructions.
    pub issued_insts: u64,
    /// Cycles where the RT unit had at least one resident warp.
    pub trace_cycles: u64,
    /// The tracer, cycle accounting and rt analytics, each present when
    /// its [`vksim_trace::TraceConfig`] switch is on.
    pub observers: SmObservers,
    // `(from, until)` while asleep: ticks `from..until` are skipped and
    // accounted at the wake. `None` at every cycle-loop exit: not written.
    sleep: Option<(u64, u64)>,
}

impl Sm {
    /// Creates an SM from the GPU configuration.
    pub fn new(id: usize, config: &GpuConfig) -> Self {
        let observers = SmObservers::new(&config.trace);
        let mut rt_unit = RtUnit::new(config.rt_unit.clone());
        if observers.tracing() {
            rt_unit.enable_event_trace();
        }
        if observers.rt_analytics().is_some() {
            rt_unit.enable_analytics();
        }
        Sm {
            id,
            warps: Vec::new(),
            l1: Cache::new(config.l1.clone()),
            rtc: config.rt_cache.clone().map(Cache::new),
            rt_unit,
            waiting_lines: FixedMap::default(),
            inflight: FixedMap::default(),
            next_rt_job: 0,
            rt_job_map: BTreeMap::new(),
            last_warp: None,
            stall_warp: config.fault_plan.stall_warp,
            perfect_bvh: config.perfect_bvh,
            sfu_latency: config.sfu_latency,
            divergence: config.divergence,
            map: AddrMap::new(&config.mem),
            next_req: 0,
            stats: Counters::new(),
            issued_lanes: 0,
            issued_insts: 0,
            trace_cycles: 0,
            observers,
            sleep: None,
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

    fn warp_index(&self, id: u32) -> Option<usize> {
        self.warps.iter().position(|w| w.id == id)
    }

    /// Routes a completed backend request (id was allocated by this SM).
    pub fn on_mem_complete(&mut self, id: u64, at: u64) {
        let Some((sel, line)) = self.inflight.remove(&id) else {
            return;
        };
        if self.observers.tracing() {
            let partition = self.map.partition(line);
            self.observers
                .event(at, NO_WARP, EventKind::MshrFill { line, partition });
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
                        let Some(i) = self.warp_index(warp) else {
                            continue;
                        };
                        if self.warps[i].state_mut(ctx).chunks_done(1, at) {
                            self.observers
                                .event(at, warp, EventKind::StallEnd { cycles: 0 });
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
        mem: &mut SimMemory,
        sink: &mut dyn MemSink,
        hooks: &mut dyn GpuHooks,
    ) -> Result<TickReport, Box<SimError>> {
        // Interconnect backpressure: leftovers in the SM's request queue
        // after the previous cycle's drain mean the bounded interconnect
        // refused them. Sampled once at tick start, before this cycle's
        // own submissions land.
        let icnt_blocked = sink.backlogged();
        if self.sleeps_through(now, icnt_blocked) {
            return Ok(TickReport::default());
        }
        self.wake(now);
        if icnt_blocked {
            self.stats.inc("sm.icnt_stall_cycles");
        }
        self.observers.icnt_edge(now, icnt_blocked);

        // Cycle accounting: classify the would-be stall reason from
        // SM-local state sampled at tick start, before the RT unit and
        // retry passes below mutate context statuses (the
        // `icnt_stall_cycles` discipline). `Issued` overrides the
        // precomputed class after the issue stage.
        let stall = self.classify_stall(now, icnt_blocked);

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

        let rt_busy = self.rt_unit.resident_warps() > 0;
        if rt_busy {
            self.trace_cycles += 1;
        }
        let state = CycleState {
            rt_busy,
            stall,
            issued,
        };
        self.observers.on_cycle(now, state);

        // 4. Retire finished warps.
        let before = self.warps.len();
        let observers = &mut self.observers;
        self.warps.retain(|w| {
            let done = w.done();
            if done {
                observers.event(now, w.id, EventKind::Retire);
            }
            !done
        });
        let retired = before != self.warps.len();

        // 5. Sleep through ticks that would change nothing (not after a
        // blocked one: the tracer ends the stall span on the next tick).
        if !issued && !icnt_blocked {
            self.sleep = self.idle_until(now).map(|until| (now + 1, until));
        }
        Ok(TickReport {
            retired,
            progress: issued || retired || rt_finished,
        })
    }

    /// The cycle this SM next has work at (`u64::MAX`: only a completion or
    /// a refill brings any) if the ticks before it would change nothing
    /// [`Sm::wake`] cannot account for; `None` if the next tick may work.
    /// An admission leaves the RT unit a step due at `now + 1`, so no trace
    /// event waits untaken in a sleep.
    fn idle_until(&self, now: u64) -> Option<u64> {
        let mut until = self.rt_unit.next_wake(now).unwrap_or(u64::MAX);
        let admits = self.rt_unit.has_capacity();
        for w in &self.warps {
            for c in w.engine.contexts() {
                until = until.min(w.ready_at(&c).unwrap_or(u64::MAX));
            }
            for (_, st) in &w.ctx_state {
                if !st.retry_chunks.is_empty() || (admits && st.pending_rt_job.is_some()) {
                    return None;
                }
            }
        }
        (until > now + 1).then_some(until)
    }

    /// `true` when the tick at `now` is skipped: the SM sleeps through it
    /// and its request queue is not `backlogged` (the skip rule of
    /// [`Sm::tick`] and of the cycle loop). Debug builds re-derive the
    /// sleep.
    pub fn sleeps_through(&self, now: u64, backlogged: bool) -> bool {
        let until = self.sleep.map_or(0, |(_, until)| until);
        let skip = now < until && !backlogged;
        debug_assert!(!skip || self.idle_until(now - 1) == Some(until));
        skip
    }

    /// Ends a sleep before cycle `now`'s tick or anything that changes or
    /// reads the SM, accounting the skipped ticks as they would have run:
    /// each had the stall class, occupancy and RT-unit stall of the first.
    pub fn wake(&mut self, now: u64) {
        let Some((from, _)) = self.sleep.take() else {
            return;
        };
        let n = now.checked_sub(from).expect("woken before the sleep began");
        self.rt_unit.idle_cycles(from, n);
        if let Some(addr) = self.rt_unit.stalled_on() {
            // Only a fill changes the refusal, and a fill wakes the SM first.
            let cache = self.rtc.as_mut().unwrap_or(&mut self.l1);
            let line = cache.line_of(addr);
            let refusal = cache.would_refuse(line).expect("refused until a fill");
            cache.replay_refusals(line, n);
            cache.stats.add(refusal.counter(), n);
            self.rt_unit.stalled_cycles(n);
        }
        let rt_busy = self.rt_unit.resident_warps() > 0;
        if rt_busy {
            self.trace_cycles += n;
        }
        let state = CycleState {
            rt_busy,
            stall: self.classify_stall(from, false),
            issued: false,
        };
        self.observers.on_idle_span(from, n, state);
    }

    /// `true` while ticks are being skipped (see [`Sm::wake`]).
    pub fn is_asleep(&self) -> bool {
        self.sleep.is_some()
    }

    fn tick_rt_unit(&mut self, now: u64, sink: &mut dyn MemSink) -> bool {
        let done = self.rt_unit.tick(now, &mut port!(self, sink));
        let finished = !done.is_empty();
        // Translate the RT unit's job-keyed events into warp-keyed trace
        // events *before* done jobs drop out of the map below.
        if self.observers.tracing() {
            for ev in self.rt_unit.take_events() {
                if let Some(&(warp, _)) = self.rt_job_map.get(&ev.warp_id) {
                    let kind = match ev.kind {
                        RtUnitEventKind::Enqueue => EventKind::RtStart,
                        RtUnitEventKind::Finish { latency } => EventKind::RtFinish { latency },
                    };
                    self.observers.event(ev.cycle, warp, kind);
                }
            }
        }
        for d in done {
            if let Some((warp, ctx)) = self.rt_job_map.remove(&d.warp_id) {
                if let Some(i) = self.warp_index(warp) {
                    self.warps[i].state_mut(ctx).status = CtxStatus::Ready;
                }
            }
        }
        finished
    }

    /// Re-offers what an earlier cycle could not place, walking warps in
    /// resident order and their contexts in id order.
    fn retry_stalled(&mut self, now: u64, sink: &mut dyn MemSink) {
        // RT warp-buffer retries: admit held jobs while capacity lasts.
        'admit: for w in &mut self.warps {
            for (ctx, st) in &mut w.ctx_state {
                if !self.rt_unit.has_capacity() {
                    break 'admit;
                }
                if let Some(job) = st.pending_rt_job.take() {
                    self.rt_job_map.insert(job.warp_id, (w.id, *ctx));
                    let admitted = self.rt_unit.try_enqueue(job, now);
                    debug_assert!(admitted, "capacity checked");
                    st.status = CtxStatus::InRt;
                }
            }
        }

        // Memory chunk retries (L1 MSHR was full). A chunk that now misses
        // stays counted in `outstanding` until its fill; one that hits is
        // resolved here.
        let mut port = port!(self, sink);
        let hit_at = now + port.l1.hit_latency() as u64;
        for w in &mut self.warps {
            for (ctx, st) in &mut w.ctx_state {
                if st.retry_chunks.is_empty() {
                    continue;
                }
                let mut hits = 0;
                st.retry_chunks.retain(|&chunk| {
                    let waiter = Some((w.id, *ctx));
                    let (outcome, _) = port.load(chunk, AccessKind::ShaderLoad, waiter, now);
                    hits += u32::from(outcome == CacheOutcome::Hit);
                    outcome == CacheOutcome::ReservationFail
                });
                if st.chunks_done(hits, hit_at) {
                    port.obs.event(now, w.id, EventKind::StallEnd { cycles: 0 });
                }
            }
        }
    }

    /// Classifies the cycle's stall reason from tick-start state and
    /// samples the occupancy tallies. Returns
    /// `(category, resident warps, eligible warps)`, or `None` when no
    /// observer wants it; the caller swaps the category for `Issued` if
    /// the issue stage fires this cycle.
    ///
    /// Precedence among simultaneous stall sources: interconnect
    /// backpressure freezes the whole issue stage, so it wins; an empty
    /// SM is `Drained`; then scoreboard memory waits, RT-unit parking,
    /// divergence wait, and finally the pure occupancy gap.
    fn classify_stall(&self, now: u64, icnt_blocked: bool) -> Option<(CycleCategory, u64, u64)> {
        if !self.observers.wants_stall_class() {
            return None;
        }
        let resident = self.warps.len() as u64;
        let mut eligible = 0u64;
        let mut any_mem = false;
        let mut any_rt = false;
        let mut any_simt = false;
        for w in &self.warps {
            eligible += u64::from(w.issuable_ctx(now).is_some());
            for (_, st) in &w.ctx_state {
                match st.status {
                    CtxStatus::WaitMem { .. } => any_mem = true,
                    CtxStatus::RtPending | CtxStatus::InRt => any_rt = true,
                    _ => {}
                }
            }
            any_simt |= w.engine.mid_divergence();
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
        Some((cat, resident, eligible))
    }

    /// GTO pick: (warp index, ctx id). Greedy: stick to the last-issued
    /// warp; then oldest (resident order is launch order).
    fn pick(&mut self, now: u64) -> Option<(usize, u32)> {
        let greedy = self.last_warp.and_then(|id| self.warp_index(id));
        let (idx, ctx) = greedy
            .into_iter()
            .chain(0..self.warps.len())
            .filter(|&i| Some(self.warps[i].id) != self.stall_warp)
            .find_map(|i| Some((i, self.warps[i].issuable_ctx(now)?)))?;
        self.last_warp = Some(self.warps[idx].id);
        Some((idx, ctx))
    }

    /// `true` when some SIMT context could issue at `now`. Used by the
    /// watchdog to tell a scheduler livelock (schedulable work exists but
    /// nothing issues) from blocked-on-memory states.
    pub fn has_issuable_ctx(&self, now: u64) -> bool {
        self.warps.iter().any(|w| w.issuable_ctx(now).is_some())
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
                snap.insert(format!("{cp}.status"), w.status(c.id).snap_tag().into());
            }
        }
        // Flight recorder: the last trace events before the failure, flat
        // so they survive the fault dump's counter-style encoding.
        for (i, ev) in self.observers.flight().enumerate() {
            let ep = format!("{p}.trace.ev{i}");
            snap.insert(format!("{ep}.cycle"), ev.cycle);
            snap.insert(format!("{ep}.warp"), ev.warp as u64);
            snap.insert(format!("{ep}.kind"), ev.kind.code());
            let (a, b) = ev.kind.args();
            snap.insert(format!("{ep}.a"), a);
            snap.insert(format!("{ep}.b"), b);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn issue(
        &mut self,
        warp_idx: usize,
        ctx_id: u32,
        now: u64,
        program: &Program,
        mem: &mut SimMemory,
        sink: &mut dyn MemSink,
        hooks: &mut dyn GpuHooks,
    ) -> Result<(), Box<SimError>> {
        let warp = &mut self.warps[warp_idx];
        let Some(Ctx { pc, mask, .. }) = warp.engine.context(ctx_id) else {
            return Ok(());
        };
        let (sm, warp_id) = (self.id, warp.id);
        let fault = |lane, e: ExecError| {
            let detail = e.to_string();
            Box::new(SimError::Exec {
                sm,
                warp: warp_id,
                lane,
                pc,
                detail,
            })
        };
        // `exec_warp` refuses this pc too, but only after the counting below.
        let Some(instr) = program.instrs().get(pc as usize) else {
            let lane = mask.trailing_zeros() as usize;
            return Err(fault(lane, ExecError::PcOutOfRange { pc }));
        };
        self.stats.inc(instr.class().counter());
        self.issued_insts += 1;
        let lanes = mask.count_ones();
        self.issued_lanes += lanes as u64;
        self.observers
            .event(now, warp_id, EventKind::Issue { pc, lanes });

        // Execute the instruction for every active lane functionally.
        let mut out = LaneOut::default();
        let effect = exec_warp(program, pc, mask, &mut warp.threads, mem, hooks, &mut out)
            .map_err(|e| fault(e.0, e.1))?;

        // Each arm steers the divergence engine and yields the context's
        // next status.
        let mut flow = CtxOutcome::Fallthrough;
        let mut status = CtxStatus::Ready;
        match effect {
            Effect::Alu | Effect::RtOther => {}
            Effect::Sfu => status = CtxStatus::OpUntil(now + self.sfu_latency as u64),
            Effect::Ssy { reconv } => flow = CtxOutcome::Ssy { reconv },
            Effect::Sync => flow = CtxOutcome::Sync,
            Effect::Exited => {
                // The context is gone; it leaves no scheduling state behind.
                warp.engine.apply(ctx_id, CtxOutcome::Exit);
                return Ok(());
            }
            Effect::Branch { target } => {
                let taken = out.taken;
                if taken != 0 && taken != mask {
                    self.stats.inc("divergent_branches");
                }
                flow = CtxOutcome::Branch { target, taken };
            }
            Effect::Mem {
                space: MemSpace::Const,
                ..
            } => {} // Constant cache: single-cycle, no traffic modelled.
            Effect::Mem { is_store, size, .. } => {
                // Coalesce lane addresses into unique 32 B chunks, in lane
                // order. A lane's access (4 B) touches at most two chunks.
                let chunk = |addr: u64| addr / CHUNK_BYTES as u64 * CHUNK_BYTES as u64;
                let mut chunks = [0u64; 2 * WARP_SIZE];
                let mut n = 0;
                for lane in interp::lanes(mask) {
                    let addr = out.addrs[lane];
                    for c in [chunk(addr), chunk(addr + size as u64 - 1)] {
                        if !chunks[..n].contains(&c) {
                            chunks[n] = c;
                            n += 1;
                        }
                    }
                }
                let chunks = &chunks[..n];
                self.stats.add("mem.coalesced_chunks", n as u64);
                let mut port = port!(self, sink);
                if is_store {
                    // Write-through, no stall.
                    for &c in chunks {
                        port.l1.access(c, AccessKind::ShaderStore, now);
                        port.store(c, now);
                    }
                } else {
                    let mut outstanding = 0u32;
                    let mut retries: Vec<u64> = Vec::new();
                    for &c in chunks {
                        let waiter = Some((warp_id, ctx_id));
                        match port.load(c, AccessKind::ShaderLoad, waiter, now).0 {
                            CacheOutcome::Hit => continue,
                            CacheOutcome::ReservationFail => retries.push(c),
                            CacheOutcome::MissToMemory | CacheOutcome::MissMerged => {}
                        }
                        outstanding += 1;
                    }
                    if outstanding == 0 {
                        status = CtxStatus::OpUntil(now + self.l1.hit_latency() as u64);
                    } else {
                        status = CtxStatus::WaitMem { outstanding };
                        warp.state_mut(ctx_id).retry_chunks = retries;
                        self.observers.event(now, warp_id, EventKind::StallBegin);
                    }
                }
            }
            Effect::TraceRay => {
                // Collect the recorded traversal scripts for active lanes.
                let mut scripts = vec![Vec::new(); WARP_SIZE];
                for lane in interp::lanes(mask) {
                    scripts[lane] = hooks.take_script(warp.base_tid + lane);
                }
                self.observers.trace_ray(&scripts);
                self.next_rt_job += 1;
                let job = WarpJob {
                    warp_id: self.next_rt_job,
                    scripts,
                };
                self.stats.inc("rt.trace_warps");
                if self.rt_unit.has_capacity() {
                    self.rt_job_map.insert(job.warp_id, (warp_id, ctx_id));
                    let admitted = self.rt_unit.try_enqueue(job, now);
                    debug_assert!(admitted, "capacity checked");
                    status = CtxStatus::InRt;
                } else {
                    // Warp buffer full: hold the job; retried each cycle.
                    self.stats.inc("rt.enqueue_stall");
                    warp.state_mut(ctx_id).pending_rt_job = Some(job);
                    status = CtxStatus::RtPending;
                }
            }
        }
        let info = warp.engine.apply(ctx_id, flow);
        if info.diverged {
            self.observers
                .event(now, warp_id, EventKind::Diverge { pc });
        }
        if info.reconverged {
            self.observers
                .event(now, warp_id, EventKind::Reconverge { pc });
        }
        warp.state_mut(ctx_id).status = status;
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
    observers: state,
} skip {
    id,
    stall_warp,
    perfect_bvh,
    sfu_latency,
    divergence,
    map,
    sleep
});

#[cfg(test)]
mod tests {
    use super::*;

    /// The encoding of every context-status, waiter and cache-selector
    /// variant, pinned: the layout pins of whole checkpoints hold only the
    /// states live at their cycles.
    #[test]
    fn every_variant_layout_is_pinned() {
        let statuses = vec![
            CtxStatus::Ready,
            CtxStatus::OpUntil(77),
            CtxStatus::WaitMem { outstanding: 3 },
            CtxStatus::RtPending,
            CtxStatus::InRt,
        ];
        let waiters = vec![
            Waiter::WarpCtx { warp: 5, ctx: 2 },
            Waiter::RtToken(1 << 40),
        ];
        let caches = vec![CacheSel::L1, CacheSel::Rtc];
        let pin = vksim_snapshot::layout_pin(&(statuses, waiters, caches));
        assert_eq!(pin, (0x35ab_ac04_b3ba_6736, 61));
    }
}
