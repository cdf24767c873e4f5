//! The RT unit state machine.

use crate::{OpKind, RtStatsBundle, RtUnitConfig, Step, WarpJob};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use vksim_mem::chunk_addresses;
use vksim_snapshot::{Dec, Enc, Snap, SnapError};
use vksim_stats::{Counters, Histogram};

/// Result of handing a chunk load to the memory port.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RtMemResult {
    /// Data available at absolute cycle `at` (cache hit).
    Ready {
        /// Completion cycle.
        at: u64,
    },
    /// Miss in flight; [`RtUnit::on_mem_complete`] will be called with
    /// `token`.
    Pending {
        /// Correlation token chosen by the port.
        token: u64,
    },
    /// No resources (MSHR full); retry next cycle.
    Retry,
}

/// Memory port the RT unit issues 32 B chunk requests through — backed by
/// the SM's L1D or a dedicated RT cache (paper §III-C3).
pub trait RtMem {
    /// Issues a chunk read at `now`.
    fn load_chunk(&mut self, addr: u64, now: u64) -> RtMemResult;
    /// Issues a fire-and-forget chunk write at `now`.
    fn store_chunk(&mut self, addr: u64, now: u64);
}

/// A completed warp notification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WarpDone {
    /// The identifier given in [`WarpJob::warp_id`].
    pub warp_id: u32,
    /// Cycles the warp was resident in the RT unit.
    pub latency: u64,
}

/// What a traced RT-unit event records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RtUnitEventKind {
    /// A warp job entered the Warp Buffer.
    Enqueue,
    /// A warp job retired after `latency` resident cycles.
    Finish {
        /// Resident latency in cycles.
        latency: u64,
    },
}

/// One traced RT-unit timeline event, recorded at the source so warp
/// attribution survives even when the SM's job bookkeeping has moved on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RtUnitEvent {
    /// Cycle the event occurred on.
    pub cycle: u64,
    /// The [`WarpJob::warp_id`] of the affected job.
    pub warp_id: u32,
    /// What happened.
    pub kind: RtUnitEventKind,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LaneState {
    /// Next step may issue.
    Ready,
    /// Waiting for outstanding memory chunks.
    WaitMem,
    /// In an operation-unit pipeline until the given cycle.
    InOp(u64),
    /// Script finished; lane idles until the warp completes.
    Done,
}

#[derive(Clone, Debug)]
struct Lane {
    script: Vec<Step>,
    next: usize,
    state: LaneState,
    outstanding_chunks: u32,
    pending_op: OpKind,
}

impl Lane {
    fn new(script: Vec<Step>) -> Self {
        let state = if script.is_empty() {
            LaneState::Done
        } else {
            LaneState::Ready
        };
        Lane {
            script,
            next: 0,
            state,
            outstanding_chunks: 0,
            pending_op: OpKind::None,
        }
    }

    fn current_step(&self) -> Option<Step> {
        self.script.get(self.next).copied()
    }

    /// Consumes the current step; returns the state the lane moves to.
    fn advance(&mut self) -> LaneState {
        self.next += 1;
        if self.next >= self.script.len() {
            LaneState::Done
        } else {
            LaneState::Ready
        }
    }
}

#[derive(Clone, Debug, Default)]
struct WarpSlot {
    warp_id: u32,
    lanes: Vec<Lane>,
    entered_at: u64,
    arrival: u64,
    // Derived from the lane states (never serialized): bit i set iff lane
    // i is `Ready`, and the number of lanes not `Done`.
    ready: u32,
    live: u32,
}

impl WarpSlot {
    /// Moves `lane` to `state`, keeping `ready` / `live` in step (`Done` is final).
    fn set_state(&mut self, lane: usize, state: LaneState) {
        self.ready &= !(1 << lane);
        self.ready |= u32::from(state == LaneState::Ready) << lane;
        self.live -= u32::from(state == LaneState::Done);
        self.lanes[lane].state = state;
    }
}

// Cache hits by (ready_at, issue sequence number).
type ReadyHeap = BinaryHeap<Reverse<(u64, u64, QueuedReq)>>;
// A lane in an operation unit: `(done, warp_id, lane)`.
type InOpLane = (u64, u32, usize);

// A merged memory-access-queue entry: one chunk address, many waiting lanes.
// `Ord` only so it can ride the ready heap behind its unique key.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct QueuedReq {
    addr: u64,
    waiters: Vec<(u32, usize)>, // (warp_id, lane)
}

impl Snap for LaneState {
    fn save(&self, e: &mut Enc) {
        match *self {
            LaneState::Ready => e.u8(0),
            LaneState::WaitMem => e.u8(1),
            LaneState::InOp(done) => {
                e.u8(2);
                e.u64(done);
            }
            LaneState::Done => e.u8(3),
        }
    }

    fn load(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(match d.u8()? {
            0 => LaneState::Ready,
            1 => LaneState::WaitMem,
            2 => LaneState::InOp(d.u64()?),
            3 => LaneState::Done,
            t => return Err(SnapError::bad_tag::<Self>(t)),
        })
    }
}

impl Snap for RtUnitEventKind {
    fn save(&self, e: &mut Enc) {
        match *self {
            RtUnitEventKind::Enqueue => e.u8(0),
            RtUnitEventKind::Finish { latency } => {
                e.u8(1);
                e.u64(latency);
            }
        }
    }

    fn load(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(match d.u8()? {
            0 => RtUnitEventKind::Enqueue,
            1 => RtUnitEventKind::Finish { latency: d.u64()? },
            t => return Err(SnapError::bad_tag::<Self>(t)),
        })
    }
}

vksim_snapshot::snap_struct!(RtUnitEvent {
    cycle,
    warp_id,
    kind
});
vksim_snapshot::snap_struct!(Lane {
    script,
    next,
    state,
    outstanding_chunks,
    pending_op
});
vksim_snapshot::snap_struct!(WarpSlot {
    warp_id,
    lanes,
    entered_at,
    arrival
} skip { ready, live });
vksim_snapshot::snap_struct!(QueuedReq { addr, waiters });
vksim_snapshot::snap_struct!(RtUnitAnalytics {
    jobs,
    steps,
    latency_total,
    live
});

/// Per-job step/latency attribution for the rt-analytics layer: script
/// steps attributed to each in-flight job while it runs, folded into the
/// aggregate tallies when the job retires. Allocated only while analytics
/// is enabled, so the default path pays one branch per hook.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RtUnitAnalytics {
    /// Jobs retired.
    pub jobs: u64,
    /// Script steps fully consumed by retired and in-flight jobs.
    pub steps: u64,
    /// Σ enqueue→retire latency over retired jobs, in cycles.
    pub latency_total: u64,
    /// Steps consumed so far by each in-flight job.
    live: BTreeMap<u32, u64>,
}

impl RtUnitAnalytics {
    fn on_enqueue(&mut self, warp_id: u32) {
        self.live.insert(warp_id, 0);
    }

    fn on_step(&mut self, warp_id: u32) {
        self.steps += 1;
        *self.live.entry(warp_id).or_default() += 1;
    }

    fn on_retire(&mut self, warp_id: u32, latency: u64) {
        self.live.remove(&warp_id);
        self.jobs += 1;
        self.latency_total += latency;
    }
}

/// The per-SM ray-tracing accelerator.
///
/// Drive it with [`RtUnit::try_enqueue`], one [`RtUnit::tick`] per core
/// cycle, and [`RtUnit::on_mem_complete`] when the memory system finishes a
/// pending chunk.
#[derive(Clone, Debug)]
pub struct RtUnit {
    config: RtUnitConfig,
    warps: Vec<WarpSlot>,
    mem_queue: VecDeque<QueuedReq>,
    // Issued requests awaiting `on_mem_complete`, by the port's token.
    inflight: BTreeMap<u64, QueuedReq>,
    ready_heap: ReadyHeap,
    ready_seq: u64,
    // Derived from the lane states (never serialized): `InOp` lanes, lanes not `Done`.
    in_op: BinaryHeap<Reverse<InOpLane>>,
    active: u32,
    // Derived, never serialized: `(head, refused ready lanes)`; `stalled_on`.
    stalled: Option<(u64, u32)>,
    last_warp: Option<u32>,
    arrivals: u64,
    stats: RtStatsBundle,
    occupancy_trace: Vec<(u64, u32, u32)>, // (cycle, warps, active rays) sampled
    sample_period: u64,
    // Timeline event buffer, allocated only while tracing is enabled.
    events: Option<Vec<RtUnitEvent>>,
    // Per-job attribution, allocated only while rt analytics is enabled.
    analytics: Option<Box<RtUnitAnalytics>>,
}

impl RtUnit {
    /// Creates an empty RT unit.
    pub fn new(config: RtUnitConfig) -> Self {
        RtUnit {
            config,
            warps: Vec::new(),
            mem_queue: VecDeque::new(),
            inflight: BTreeMap::new(),
            ready_heap: BinaryHeap::new(),
            ready_seq: 0,
            in_op: BinaryHeap::new(),
            active: 0,
            stalled: None,
            last_warp: None,
            arrivals: 0,
            stats: RtStatsBundle {
                counters: Counters::new(),
                warp_latency: Histogram::new(1000.0),
                active_ray_cycles: 0,
                busy_cycles: 0,
                resident_warp_cycles: 0,
            },
            occupancy_trace: Vec::new(),
            sample_period: 256,
            events: None,
            analytics: None,
        }
    }

    /// Enables timeline event recording. Off by default.
    pub fn enable_event_trace(&mut self) {
        self.events = Some(Vec::new());
    }

    /// Enables per-job step/latency attribution. Off by default.
    pub fn enable_analytics(&mut self) {
        self.analytics = Some(Box::default());
    }

    /// The per-job attribution recorder, when analytics is enabled.
    pub fn analytics(&self) -> Option<&RtUnitAnalytics> {
        self.analytics.as_deref()
    }

    /// Drains recorded enqueue/finish timeline events.
    pub fn take_events(&mut self) -> Vec<RtUnitEvent> {
        self.events.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// `true` when another warp can enter the Warp Buffer.
    pub fn has_capacity(&self) -> bool {
        self.warps.len() < self.config.max_warps
    }

    /// Number of resident warps.
    pub fn resident_warps(&self) -> usize {
        self.warps.len()
    }

    /// Rays still traversing (not Done) across resident warps.
    pub fn active_rays(&self) -> u32 {
        self.active
    }

    /// Memory requests waiting in the scheduler queue (post-mortem dumps).
    pub fn queued_mem_requests(&self) -> usize {
        self.mem_queue.len()
    }

    /// Memory requests issued and awaiting completion (post-mortem dumps).
    pub fn inflight_mem_requests(&self) -> usize {
        self.inflight.len()
    }

    /// Attempts to admit a warp; returns `false` when the Warp Buffer is
    /// full (the SM must retry — the `traverseAS` issue stalls). Panics on
    /// a job of more than 32 lanes.
    pub fn try_enqueue(&mut self, job: WarpJob, now: u64) -> bool {
        if !self.has_capacity() {
            self.stats.counters.inc("warp_buffer_full");
            return false;
        }
        self.arrivals += 1;
        self.stats.counters.inc("warps_entered");
        self.stats
            .counters
            .add("rays_entered", job.active_lanes() as u64);
        if let Some(buf) = self.events.as_mut() {
            buf.push(RtUnitEvent {
                cycle: now,
                warp_id: job.warp_id,
                kind: RtUnitEventKind::Enqueue,
            });
        }
        if let Some(a) = self.analytics.as_mut() {
            a.on_enqueue(job.warp_id);
        }
        self.warps.push(WarpSlot {
            warp_id: job.warp_id,
            lanes: job.scripts.into_iter().map(Lane::new).collect(),
            entered_at: now,
            arrival: self.arrivals,
            ..Default::default()
        });
        self.rebuild_indices().expect("a warp of at most 32 lanes");
        true
    }

    /// Memory system callback for a pending chunk issued earlier.
    pub fn on_mem_complete(&mut self, token: u64, now: u64) {
        self.stalled = None;
        if let Some(req) = self.inflight.remove(&token) {
            self.finish_chunk(req, now);
        }
        self.debug_check_indices();
    }

    fn finish_chunk(&mut self, req: QueuedReq, now: u64) {
        let RtUnitConfig {
            box_latency,
            triangle_latency,
            transform_latency,
            ..
        } = self.config;
        for (warp_id, lane_idx) in req.waiters {
            if let Some(w) = self.warps.iter_mut().find(|w| w.warp_id == warp_id) {
                let lane = &mut w.lanes[lane_idx];
                if lane.state != LaneState::WaitMem {
                    continue;
                }
                lane.outstanding_chunks = lane.outstanding_chunks.saturating_sub(1);
                if lane.outstanding_chunks == 0 {
                    // Data complete: enter the operation unit.
                    let lat = match lane.pending_op {
                        OpKind::Box { .. } => box_latency,
                        OpKind::Triangle => triangle_latency,
                        OpKind::Transform => transform_latency,
                        OpKind::None => 1,
                    } as u64;
                    match lane.pending_op {
                        OpKind::Box { tests } => {
                            self.stats.counters.add("ops.box_tests", tests as u64)
                        }
                        OpKind::Triangle => self.stats.counters.inc("ops.triangle_tests"),
                        OpKind::Transform => self.stats.counters.inc("ops.transforms"),
                        OpKind::None => {}
                    }
                    w.set_state(lane_idx, LaneState::InOp(now + lat));
                    self.in_op.push(Reverse((now + lat, warp_id, lane_idx)));
                }
            }
        }
    }

    /// Advances one cycle; returns warps that completed this cycle.
    pub fn tick(&mut self, now: u64, mem: &mut dyn RtMem) -> Vec<WarpDone> {
        self.stalled = None;
        // `Some(ready lanes refused queue space)` while nothing else happened.
        let mut quiet = Some(0);
        // 0. Hit-latency completions that became ready.
        while self.ready_heap.peek().is_some_and(|r| r.0 .0 <= now) {
            quiet = None;
            let Reverse((_, _, req)) = self.ready_heap.pop().expect("peeked");
            self.finish_chunk(req, now);
        }

        // 1. Operation-unit completions.
        while self.in_op.peek().is_some_and(|r| r.0 .0 <= now) {
            quiet = None;
            let Reverse((_, warp_id, lane_idx)) = self.in_op.pop().expect("peeked");
            let Some(w) = self.warps.iter_mut().find(|w| w.warp_id == warp_id) else {
                continue;
            };
            let state = w.lanes[lane_idx].advance();
            w.set_state(lane_idx, state);
            self.active -= u32::from(state == LaneState::Done);
            if let Some(a) = self.analytics.as_mut() {
                a.on_step(warp_id);
            }
        }

        // 2. Warp scheduling: greedy-then-oldest.
        if let Some(wid) = self.pick_warp() {
            let same = self.last_warp.replace(wid) == Some(wid);
            let refused = self.schedule_memory(wid, mem, now);
            quiet = quiet.and(refused).filter(|_| same);
        }

        // 3. Issue from the Memory Access Queue to the cache.
        for issued in 0..self.config.issue_per_cycle {
            let Some(req) = self.mem_queue.front() else {
                break;
            };
            let addr = req.addr;
            match mem.load_chunk(addr, now) {
                RtMemResult::Ready { at } => {
                    let req = self.mem_queue.pop_front().expect("nonempty");
                    self.ready_seq += 1;
                    self.ready_heap
                        .push(Reverse((at.max(now + 1), self.ready_seq, req)));
                    self.stats.counters.inc("mem.issued");
                }
                RtMemResult::Pending { token } => {
                    let req = self.mem_queue.pop_front().expect("nonempty");
                    self.inflight.insert(token, req);
                    self.stats.counters.inc("mem.issued");
                }
                RtMemResult::Retry => {
                    self.stats.counters.inc("mem.retry");
                    if issued == 0 {
                        self.stalled = quiet.map(|lanes| (addr, lanes));
                    }
                    break;
                }
            }
        }

        // 4. Retire finished warps.
        let mut done = Vec::new();
        let mut i = 0;
        while i < self.warps.len() {
            if self.warps[i].live == 0 {
                let w = self.warps.remove(i);
                let latency = now.saturating_sub(w.entered_at).max(1);
                self.stats.warp_latency.record(latency as f64);
                self.stats.counters.inc("warps_completed");
                if let Some(buf) = self.events.as_mut() {
                    buf.push(RtUnitEvent {
                        cycle: now,
                        warp_id: w.warp_id,
                        kind: RtUnitEventKind::Finish { latency },
                    });
                }
                if let Some(a) = self.analytics.as_mut() {
                    a.on_retire(w.warp_id, latency);
                }
                done.push(WarpDone {
                    warp_id: w.warp_id,
                    latency,
                });
            } else {
                i += 1;
            }
        }

        // 5. Statistics sampling.
        self.idle_cycles(now, 1);
        self.stalled = self.stalled.filter(|_| done.is_empty());
        self.debug_check_indices();
        done
    }

    /// The queue head the last [`RtUnit::tick`] only had refused again (no
    /// step fell due, no lane moved, same pick, nothing retired); each tick
    /// repeats that until a heap top falls due or the port answers otherwise.
    pub fn stalled_on(&self) -> Option<u64> {
        self.stalled.map(|(addr, _)| addr)
    }

    /// Accounts `n` repeats of a stalled tick besides their `idle_cycles`:
    /// a `mem.retry` each and a `mem.queue_full` per refused ready lane.
    /// The port's side of the refusals is the caller's.
    pub fn stalled_cycles(&mut self, n: u64) {
        if let Some((_, lanes)) = self.stalled {
            let counters = &mut self.stats.counters;
            counters.add("mem.retry", n);
            counters.add("mem.queue_full", u64::from(lanes) * n);
        }
    }

    /// Accounts `n` cycles from `from` as ticks before [`RtUnit::next_wake`]
    /// would: the occupancy integrals and samples. `tick` ends with one.
    pub fn idle_cycles(&mut self, from: u64, n: u64) {
        let warps = self.warps.len() as u64;
        if warps > 0 {
            self.stats.busy_cycles += n;
            self.stats.resident_warp_cycles += warps * n;
            self.stats.active_ray_cycles += u64::from(self.active) * n;
        }
        let mut at = from.next_multiple_of(self.sample_period);
        while at < from + n {
            self.occupancy_trace.push((at, warps as u32, self.active));
            at += self.sample_period;
        }
    }

    /// The earliest cycle after `now` at which [`RtUnit::tick`] can do more
    /// than [`RtUnit::idle_cycles`] (or, stalled, than repeat the stall);
    /// `None` when only [`RtUnit::on_mem_complete`] (or, stalled, the port)
    /// can wake the unit. A later `try_enqueue` or `on_mem_complete`
    /// invalidates the answer.
    pub fn next_wake(&self, now: u64) -> Option<u64> {
        let busy =
            !self.mem_queue.is_empty() || self.warps.iter().any(|w| w.ready != 0 || w.live == 0);
        if busy && self.stalled.is_none() {
            return Some(now + 1);
        }
        let hit = self.ready_heap.peek().map(|r| r.0 .0);
        let op = self.in_op.peek().map(|r| r.0 .0);
        hit.into_iter().chain(op).min().map(|t| t.max(now + 1))
    }

    fn pick_warp(&self) -> Option<u32> {
        // Greedy: stick with the last warp while it has ready lanes.
        if let Some(last) = self.last_warp {
            if self.warps.iter().any(|w| w.warp_id == last && w.ready != 0) {
                return Some(last);
            }
        }
        // Then oldest (smallest arrival stamp).
        self.warps
            .iter()
            .filter(|w| w.ready != 0)
            .min_by_key(|w| w.arrival)
            .map(|w| w.warp_id)
    }

    /// Collects memory requests from all ready lanes of the selected warp,
    /// merging identical chunk addresses (the paper's Memory Scheduler).
    /// Returns the number of ready lanes if none found queue space.
    fn schedule_memory(&mut self, warp_id: u32, mem: &mut dyn RtMem, now: u64) -> Option<u32> {
        let w_idx = self.warps.iter().position(|w| w.warp_id == warp_id)?;
        // Ready lanes in lane order; a lane leaves `Ready` only when visited.
        let before = self.warps[w_idx].ready;
        let mut ready = before;
        while ready != 0 {
            let lane_idx = ready.trailing_zeros() as usize;
            ready &= ready - 1;
            match self.warps[w_idx].lanes[lane_idx].current_step() {
                Some(Step::Store { addr, size }) => {
                    // Fire-and-forget store traffic (intersection buffer,
                    // stack spill); the lane advances after one cycle.
                    for chunk in chunk_addresses(addr, size) {
                        mem.store_chunk(chunk, now);
                        self.stats.counters.inc("mem.stores");
                    }
                    self.warps[w_idx].set_state(lane_idx, LaneState::InOp(now + 1));
                    self.in_op.push(Reverse((now + 1, warp_id, lane_idx)));
                }
                Some(Step::Fetch { addr, size, op }) => {
                    let chunks = chunk_addresses(addr, size);
                    // Only commit the lane if every chunk fits in the queue
                    // (or merges with an existing entry). The queue is small
                    // (MSHR-sized), so a linear scan is fine.
                    let new_needed = chunks
                        .iter()
                        .filter(|c| !self.mem_queue.iter().any(|r| r.addr == **c))
                        .count();
                    if self.mem_queue.len() + new_needed > self.config.mem_queue {
                        self.stats.counters.inc("mem.queue_full");
                        continue;
                    }
                    for chunk in &chunks {
                        match self.mem_queue.iter_mut().find(|r| r.addr == *chunk) {
                            Some(req) => {
                                req.waiters.push((warp_id, lane_idx));
                                self.stats.counters.inc("mem.merged");
                            }
                            None => {
                                self.mem_queue.push_back(QueuedReq {
                                    addr: *chunk,
                                    waiters: vec![(warp_id, lane_idx)],
                                });
                                self.stats.counters.inc("mem.requests");
                            }
                        }
                    }
                    let w = &mut self.warps[w_idx];
                    w.set_state(lane_idx, LaneState::WaitMem);
                    w.lanes[lane_idx].outstanding_chunks = chunks.len() as u32;
                    w.lanes[lane_idx].pending_op = op;
                }
                None => {}
            }
        }
        (self.warps[w_idx].ready == before).then_some(before.count_ones())
    }

    /// The accumulated statistics.
    pub fn stats(&self) -> &RtStatsBundle {
        &self.stats
    }

    /// Sampled `(cycle, resident warps, active rays)` occupancy timeline
    /// (Fig. 18).
    pub fn occupancy_trace(&self) -> &[(u64, u32, u32)] {
        &self.occupancy_trace
    }

    /// `true` when no warps are resident and no memory is outstanding.
    pub fn is_idle(&self) -> bool {
        self.warps.is_empty() && self.inflight.is_empty() && self.mem_queue.is_empty()
    }

    /// The derived state recomputed from the lane states: each warp's
    /// `(ready, live)`, and the `InOp` lanes as sorted `in_op` entries.
    fn indices(&self) -> (Vec<(u32, u32)>, Vec<InOpLane>) {
        let (mut per_warp, mut in_op) = (Vec::new(), Vec::new());
        for w in &self.warps {
            let (mut ready, mut live) = (0, 0);
            for (i, l) in w.lanes.iter().enumerate() {
                ready |= u32::from(l.state == LaneState::Ready) << i;
                live += u32::from(l.state != LaneState::Done);
                if let LaneState::InOp(done) = l.state {
                    in_op.push((done, w.warp_id, i));
                }
            }
            per_warp.push((ready, live));
        }
        in_op.sort_unstable();
        (per_warp, in_op)
    }

    /// Recomputes the derived state (admission, restore); transitions keep it.
    fn rebuild_indices(&mut self) -> Result<(), SnapError> {
        if self.warps.iter().any(|w| w.lanes.len() > 32) {
            return Err(SnapError::Malformed("warp of more than 32 lanes".into()));
        }
        let (per_warp, in_op) = self.indices();
        for (w, index) in self.warps.iter_mut().zip(per_warp) {
            (w.ready, w.live) = index;
        }
        self.active = self.warps.iter().map(|w| w.live).sum();
        self.in_op = in_op.into_iter().map(Reverse).collect();
        self.stalled = None;
        self.debug_check_indices();
        Ok(())
    }

    /// Debug builds: the derived state equals a recomputation.
    fn debug_check_indices(&self) {
        if cfg!(debug_assertions) {
            let (per_warp, in_op) = self.indices();
            assert!(self.warps.iter().map(|w| (w.ready, w.live)).eq(per_warp));
            assert_eq!(self.active, self.warps.iter().map(|w| w.live).sum());
            let mut heap: Vec<_> = self.in_op.iter().map(|r| r.0).collect();
            heap.sort_unstable();
            assert_eq!(heap, in_op, "in-op heap");
        }
    }
}

/// The ready heap is written as the `(ready_at, key)` heap and then the
/// `key -> request` map it folds in, as before the fold.
fn save_ready(heap: &ReadyHeap, e: &mut Enc) {
    let (order, store): (BinaryHeap<_>, BTreeMap<_, _>) = heap
        .iter()
        .map(|Reverse((at, key, req))| (Reverse((*at, *key)), (*key, req.clone())))
        .unzip();
    (order, store).save(e);
}

fn restore_ready(heap: &mut ReadyHeap, d: &mut Dec<'_>) -> Result<(), SnapError> {
    let (order, mut store) = <(Vec<(u64, u64)>, BTreeMap<u64, QueuedReq>)>::load(d)?;
    *heap = order
        .into_iter()
        .map(|(at, key)| Some(Reverse((at, key, store.remove(&key)?))))
        .collect::<Option<_>>()
        .filter(|_| store.is_empty())
        .ok_or_else(|| SnapError::Malformed("ready heap and store disagree".into()))?;
    Ok(())
}

// Insertion-ordered containers are written in order (warp/queue order feeds
// the GTO scheduler). Configuration is rebuilt from the resuming config,
// not the file; the lane indices are rebuilt from the lanes.
vksim_snapshot::snap_state!(RtUnit {
    warps,
    mem_queue,
    inflight,
    ready_heap: with(save_ready, restore_ready),
    ready_seq,
    last_warp,
    arrivals,
    stats,
    occupancy_trace,
    events,
    analytics,
} skip { config, sample_period, in_op, active, stalled } then rebuild_indices);

#[cfg(test)]
mod tests {
    use super::*;
    use vksim_testkit::{prop, prop_assert, prop_assert_eq};

    /// Memory stub: every load hits after `lat` cycles.
    struct FlatMem {
        lat: u64,
        loads: Vec<u64>,
        stores: Vec<u64>,
    }

    impl FlatMem {
        fn new(lat: u64) -> Self {
            FlatMem {
                lat,
                loads: Vec::new(),
                stores: Vec::new(),
            }
        }
    }

    impl RtMem for FlatMem {
        fn load_chunk(&mut self, addr: u64, now: u64) -> RtMemResult {
            self.loads.push(addr);
            RtMemResult::Ready { at: now + self.lat }
        }
        fn store_chunk(&mut self, addr: u64, _now: u64) {
            self.stores.push(addr);
        }
    }

    fn fetch(addr: u64, size: u32) -> Step {
        Step::Fetch {
            addr,
            size,
            op: OpKind::Box { tests: 6 },
        }
    }

    fn run_until_done(rt: &mut RtUnit, mem: &mut FlatMem, limit: u64) -> Vec<(u64, WarpDone)> {
        let mut done = Vec::new();
        for now in 0..limit {
            for d in rt.tick(now, mem) {
                done.push((now, d));
            }
            if rt.is_idle() {
                break;
            }
        }
        done
    }

    #[test]
    fn single_warp_single_step_completes() {
        let mut rt = RtUnit::new(RtUnitConfig::default());
        let job = WarpJob {
            warp_id: 7,
            scripts: vec![vec![fetch(0x1000, 64)]],
        };
        assert!(rt.try_enqueue(job, 0));
        let mut mem = FlatMem::new(20);
        let done = run_until_done(&mut rt, &mut mem, 10_000);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].1.warp_id, 7);
        // 64 B = 2 chunks.
        assert_eq!(mem.loads.len(), 2);
        assert!(done[0].1.latency >= 20, "must include memory latency");
    }

    /// Per-job attribution ties steps to script lengths and latency to the
    /// retire report, and survives a mid-flight save/load byte-identically.
    #[test]
    fn analytics_attributes_steps_and_latency_per_job() {
        let mut rt = RtUnit::new(RtUnitConfig::default());
        rt.enable_analytics();
        let job = WarpJob {
            warp_id: 3,
            scripts: vec![
                vec![fetch(0x1000, 32), fetch(0x2000, 32)],
                vec![fetch(0x1000, 32)],
                Vec::new(),
            ],
        };
        assert!(rt.try_enqueue(job, 0));
        let mut mem = FlatMem::new(5);

        // Save mid-flight after a couple of cycles; the live map rides the
        // snapshot and re-encodes byte-identically.
        rt.tick(0, &mut mem);
        rt.tick(1, &mut mem);
        let mut e = vksim_snapshot::Enc::new();
        rt.save(&mut e);
        let bytes = e.into_bytes();
        let mut d = vksim_snapshot::Dec::new(&bytes);
        let mut restored = RtUnit::new(RtUnitConfig::default());
        restored.restore(&mut d).unwrap();
        d.finish().unwrap();
        let mut e2 = vksim_snapshot::Enc::new();
        restored.save(&mut e2);
        assert_eq!(e2.into_bytes(), bytes);

        let done = {
            let mut done = Vec::new();
            for now in 2..10_000 {
                for f in rt.tick(now, &mut mem) {
                    done.push((now, f));
                }
                if rt.is_idle() {
                    break;
                }
            }
            done
        };
        assert_eq!(done.len(), 1);
        let a = rt.analytics().expect("analytics enabled");
        assert_eq!(a.jobs, 1);
        assert_eq!(a.steps, 3, "one step per script entry across lanes");
        assert_eq!(a.latency_total, done[0].1.latency);
        let disabled = RtUnit::new(RtUnitConfig::default());
        assert!(disabled.analytics().is_none());
    }

    #[test]
    fn warp_buffer_capacity_enforced() {
        let mut rt = RtUnit::new(RtUnitConfig {
            max_warps: 2,
            ..Default::default()
        });
        for i in 0..2 {
            assert!(rt.try_enqueue(
                WarpJob {
                    warp_id: i,
                    scripts: vec![vec![fetch(0, 32)]]
                },
                0
            ));
        }
        assert!(!rt.try_enqueue(
            WarpJob {
                warp_id: 9,
                scripts: vec![vec![fetch(0, 32)]]
            },
            0
        ));
        assert_eq!(rt.resident_warps(), 2);
    }

    #[test]
    fn identical_addresses_merge_within_warp() {
        let mut rt = RtUnit::new(RtUnitConfig::default());
        // 4 lanes all fetching the same node (the BVH-root pattern from the
        // paper's DRAM discussion).
        let scripts = vec![vec![fetch(0x2000, 32)]; 4];
        rt.try_enqueue(
            WarpJob {
                warp_id: 0,
                scripts,
            },
            0,
        );
        let mut mem = FlatMem::new(10);
        run_until_done(&mut rt, &mut mem, 1000);
        assert_eq!(mem.loads.len(), 1, "one merged request for 4 lanes");
        let s = rt.stats();
        assert_eq!(s.counters.get("mem.merged"), 3);
        assert_eq!(s.counters.get("mem.requests"), 1);
    }

    #[test]
    fn divergent_addresses_do_not_merge() {
        let mut rt = RtUnit::new(RtUnitConfig::default());
        let scripts: Vec<Vec<Step>> = (0..4)
            .map(|i| vec![fetch(0x3000 + i * 0x100, 32)])
            .collect();
        rt.try_enqueue(
            WarpJob {
                warp_id: 0,
                scripts,
            },
            0,
        );
        let mut mem = FlatMem::new(10);
        run_until_done(&mut rt, &mut mem, 1000);
        assert_eq!(mem.loads.len(), 4);
    }

    #[test]
    fn stores_fire_and_forget() {
        let mut rt = RtUnit::new(RtUnitConfig::default());
        let scripts = vec![vec![
            Step::Store {
                addr: 0x4000,
                size: 32,
            },
            fetch(0x5000, 32),
        ]];
        rt.try_enqueue(
            WarpJob {
                warp_id: 0,
                scripts,
            },
            0,
        );
        let mut mem = FlatMem::new(5);
        let done = run_until_done(&mut rt, &mut mem, 1000);
        assert_eq!(done.len(), 1);
        assert_eq!(mem.stores, vec![0x4000]);
        assert_eq!(mem.loads, vec![0x5000]);
    }

    #[test]
    fn pending_memory_resolves_via_callback() {
        struct PendingMem {
            next_token: u64,
            outstanding: Vec<u64>,
        }
        impl RtMem for PendingMem {
            fn load_chunk(&mut self, _addr: u64, _now: u64) -> RtMemResult {
                self.next_token += 1;
                self.outstanding.push(self.next_token);
                RtMemResult::Pending {
                    token: self.next_token,
                }
            }
            fn store_chunk(&mut self, _addr: u64, _now: u64) {}
        }
        let mut rt = RtUnit::new(RtUnitConfig::default());
        rt.try_enqueue(
            WarpJob {
                warp_id: 3,
                scripts: vec![vec![fetch(0x100, 32)]],
            },
            0,
        );
        let mut mem = PendingMem {
            next_token: 0,
            outstanding: vec![],
        };
        let mut now = 0;
        while mem.outstanding.is_empty() {
            now += 1;
            rt.tick(now, &mut mem);
        }
        // Deliver the completion much later.
        let token = mem.outstanding[0];
        rt.on_mem_complete(token, 500);
        let mut done = Vec::new();
        for t in 501..600 {
            done.extend(rt.tick(t, &mut mem));
        }
        assert_eq!(done.len(), 1);
        assert!(done[0].latency >= 500);
    }

    #[test]
    fn retry_stalls_queue_head() {
        struct FussyMem {
            attempts: u32,
        }
        impl RtMem for FussyMem {
            fn load_chunk(&mut self, _addr: u64, now: u64) -> RtMemResult {
                self.attempts += 1;
                if self.attempts < 5 {
                    RtMemResult::Retry
                } else {
                    RtMemResult::Ready { at: now + 1 }
                }
            }
            fn store_chunk(&mut self, _addr: u64, _now: u64) {}
        }
        let mut rt = RtUnit::new(RtUnitConfig::default());
        rt.try_enqueue(
            WarpJob {
                warp_id: 0,
                scripts: vec![vec![fetch(0x100, 32)]],
            },
            0,
        );
        let mut mem = FussyMem { attempts: 0 };
        let mut done = Vec::new();
        for t in 0..100 {
            done.extend(rt.tick(t, &mut mem));
        }
        assert_eq!(done.len(), 1);
        assert_eq!(mem.attempts, 5);
        assert_eq!(rt.stats().counters.get("mem.retry"), 4);
    }

    #[test]
    fn gto_prefers_last_scheduled_warp() {
        // Two warps whose lanes are ready every cycle (store-only scripts,
        // no memory stalls): greedy scheduling must drain warp 0 completely
        // before touching warp 1; round-robin would interleave them.
        let mut rt = RtUnit::new(RtUnitConfig {
            max_warps: 4,
            ..Default::default()
        });
        let stores = |base: u64| -> Vec<Step> {
            (0..3)
                .map(|i| Step::Store {
                    addr: base + i * 32,
                    size: 32,
                })
                .collect()
        };
        rt.try_enqueue(
            WarpJob {
                warp_id: 0,
                scripts: vec![stores(0x1000)],
            },
            0,
        );
        rt.try_enqueue(
            WarpJob {
                warp_id: 1,
                scripts: vec![stores(0x9000)],
            },
            0,
        );
        let mut mem = FlatMem::new(1);
        run_until_done(&mut rt, &mut mem, 1000);
        assert_eq!(mem.stores.len(), 6);
        assert!(
            mem.stores[..3].iter().all(|&a| a < 0x9000),
            "GTO must finish warp 0's stores first: {:x?}",
            mem.stores
        );
    }

    #[test]
    fn stalled_warp_yields_to_oldest_ready() {
        // GTO's "then oldest": when the greedy warp stalls on memory, the
        // oldest ready warp is scheduled instead.
        let mut rt = RtUnit::new(RtUnitConfig {
            max_warps: 4,
            ..Default::default()
        });
        rt.try_enqueue(
            WarpJob {
                warp_id: 0,
                scripts: vec![vec![fetch(0x1000, 32)]],
            },
            0,
        );
        rt.try_enqueue(
            WarpJob {
                warp_id: 1,
                scripts: vec![vec![fetch(0x9000, 32)]],
            },
            0,
        );
        let mut mem = FlatMem::new(100);
        run_until_done(&mut rt, &mut mem, 10_000);
        // Warp 1's request was issued while warp 0 waited on memory.
        assert_eq!(mem.loads, vec![0x1000, 0x9000]);
    }

    #[test]
    fn simt_efficiency_reflects_tail_threads() {
        let mut rt = RtUnit::new(RtUnitConfig::default());
        // One lane with a long script, 31 with one step: long tail.
        let mut scripts = vec![vec![fetch(0x100, 32)]; 31];
        scripts.push((0..32).map(|i| fetch(0x10_000 + i * 0x1000, 32)).collect());
        rt.try_enqueue(
            WarpJob {
                warp_id: 0,
                scripts,
            },
            0,
        );
        let mut mem = FlatMem::new(30);
        run_until_done(&mut rt, &mut mem, 100_000);
        // RT-unit SIMT efficiency as `GpuStats` derives it (§VI-B).
        let s = rt.stats();
        let eff = s.active_ray_cycles as f64 / (s.resident_warp_cycles * 32) as f64;
        assert!(eff < 0.5, "tail thread should drag efficiency down: {eff}");
        assert!(eff > 0.0);
    }

    #[test]
    fn latency_histogram_records_each_warp() {
        let mut rt = RtUnit::new(RtUnitConfig::default());
        rt.try_enqueue(
            WarpJob {
                warp_id: 0,
                scripts: vec![vec![fetch(0, 32)]],
            },
            0,
        );
        let mut mem = FlatMem::new(5);
        run_until_done(&mut rt, &mut mem, 1000);
        assert_eq!(rt.stats().warp_latency.count(), 1);
    }

    #[test]
    fn event_trace_records_enqueue_and_finish() {
        let mut rt = RtUnit::new(RtUnitConfig::default());
        // Disabled by default: nothing recorded.
        rt.try_enqueue(
            WarpJob {
                warp_id: 1,
                scripts: vec![vec![fetch(0, 32)]],
            },
            0,
        );
        let mut mem = FlatMem::new(5);
        run_until_done(&mut rt, &mut mem, 1000);
        assert!(rt.take_events().is_empty());

        rt.enable_event_trace();
        rt.try_enqueue(
            WarpJob {
                warp_id: 5,
                scripts: vec![vec![fetch(0x40, 32)]],
            },
            3,
        );
        run_until_done(&mut rt, &mut mem, 1000);
        let evs = rt.take_events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].warp_id, 5);
        assert_eq!(evs[0].kind, RtUnitEventKind::Enqueue);
        assert_eq!(evs[0].cycle, 3);
        assert!(matches!(evs[1].kind, RtUnitEventKind::Finish { .. }));
        assert!(rt.take_events().is_empty(), "take drains the buffer");
    }

    #[test]
    fn occupancy_trace_sampled() {
        let mut rt = RtUnit::new(RtUnitConfig::default());
        rt.try_enqueue(
            WarpJob {
                warp_id: 0,
                scripts: vec![(0..64).map(|i| fetch(i * 64, 32)).collect()],
            },
            0,
        );
        let mut mem = FlatMem::new(50);
        run_until_done(&mut rt, &mut mem, 100_000);
        assert!(!rt.occupancy_trace().is_empty());
    }

    #[test]
    fn snapshot_round_trips_mid_traversal() {
        // Freeze the unit mid-traversal — resident warps, queued and
        // in-flight memory, an open GTO pick — and check save -> load ->
        // save is byte-identical and the restored unit finishes exactly
        // like the original.
        let encode = |rt: &RtUnit| {
            let mut e = vksim_snapshot::Enc::new();
            rt.save(&mut e);
            e.into_bytes()
        };
        let mut rt = RtUnit::new(RtUnitConfig::default());
        rt.enable_event_trace();
        for w in 0..2 {
            rt.try_enqueue(
                WarpJob {
                    warp_id: w,
                    scripts: (0..4)
                        .map(|i| vec![fetch(0x1000 * (w as u64 + 1) + i * 64, 32), fetch(0x40, 32)])
                        .collect(),
                },
                w as u64,
            );
        }
        let mut mem = FlatMem::new(25);
        for now in 0..6 {
            rt.tick(now, &mut mem);
        }
        assert!(!rt.is_idle(), "freeze point must be mid-traversal");

        let bytes = encode(&rt);
        let mut d = vksim_snapshot::Dec::new(&bytes);
        let mut restored = RtUnit::new(RtUnitConfig::default());
        restored.restore(&mut d).expect("restore");
        d.finish().expect("payload fully consumed");
        assert_eq!(encode(&restored), bytes, "re-encode is byte-identical");

        // Both copies drive fresh-but-identical memory ports from here.
        let mut mem_r = FlatMem::new(25);
        let mut done = Vec::new();
        let mut done_r = Vec::new();
        for now in 6..10_000 {
            done.extend(rt.tick(now, &mut mem));
            done_r.extend(restored.tick(now, &mut mem_r));
            if rt.is_idle() && restored.is_idle() {
                break;
            }
        }
        assert_eq!(done.len(), 2);
        assert_eq!(done, done_r, "restored unit completes identically");
        assert_eq!(encode(&rt), encode(&restored), "final states converge");
        assert_eq!(rt.take_events(), restored.take_events());
    }

    /// Seeded stub port: each load answers `Ready` (sometimes already in
    /// the past), `Pending` or `Retry` from its own stream. Pending tokens
    /// fall due 1–40 cycles later and are delivered by [`Chaos::step`].
    #[derive(Clone)]
    struct ChaosMem {
        rng: vksim_testkit::Pcg32,
        next_token: u64,
        due: Vec<(u64, u64)>, // (cycle, token)
        calls: u64,
    }

    impl RtMem for ChaosMem {
        fn load_chunk(&mut self, _addr: u64, now: u64) -> RtMemResult {
            self.calls += 1;
            match self.rng.u32_below(3) {
                0 => RtMemResult::Ready {
                    at: now + self.rng.u64_below(8),
                },
                1 => {
                    self.next_token += 1;
                    let at = now + 1 + self.rng.u64_below(40);
                    self.due.push((at, self.next_token));
                    RtMemResult::Pending {
                        token: self.next_token,
                    }
                }
                _ => RtMemResult::Retry,
            }
        }
        fn store_chunk(&mut self, _addr: u64, _now: u64) {
            self.calls += 1;
        }
    }

    /// Port for a unit that should only wait: it refuses a re-offer of the
    /// head a stalled unit is stalled on, and counts any other call as a
    /// trip.
    struct Tripwire {
        stalled: Option<u64>,
        trips: u64,
    }

    impl Tripwire {
        fn new(rt: &RtUnit) -> Self {
            Tripwire {
                stalled: rt.stalled_on(),
                trips: 0,
            }
        }
    }

    impl RtMem for Tripwire {
        fn load_chunk(&mut self, addr: u64, _now: u64) -> RtMemResult {
            self.trips += u64::from(self.stalled != Some(addr));
            RtMemResult::Retry
        }
        fn store_chunk(&mut self, _addr: u64, _now: u64) {
            self.trips += 1;
        }
    }

    /// A seeded scenario in flight: the unit, its port, the jobs not yet
    /// admitted and the retirements so far.
    #[derive(Clone)]
    struct Chaos {
        rt: RtUnit,
        mem: ChaosMem,
        queue: VecDeque<WarpJob>,
        done: Vec<(u64, WarpDone)>,
    }

    impl Chaos {
        /// 1–6 warps of 1–32 lanes, each lane 0–4 steps: `Fetch` of 1–3
        /// chunks from a small address pool (so requests merge) under
        /// every `OpKind`, or a `Store`; a small queue and warp buffer.
        fn new(seed: u64) -> Self {
            let mut rng = vksim_testkit::Pcg32::new(seed);
            let config = RtUnitConfig {
                max_warps: rng.usize_range(1, 4),
                mem_queue: rng.usize_range(3, 16),
                issue_per_cycle: rng.usize_range(1, 2),
                ..Default::default()
            };
            let step = |rng: &mut vksim_testkit::Pcg32| {
                let addr = 0x1000 + rng.u64_below(24) * 32;
                let size = 32 * (1 + rng.u32_below(3));
                let op = match rng.u32_below(5) {
                    0 => return Step::Store { addr, size: 32 },
                    1 => OpKind::Box {
                        tests: 1 + rng.u32_below(6) as u8,
                    },
                    2 => OpKind::Triangle,
                    3 => OpKind::Transform,
                    _ => OpKind::None,
                };
                Step::Fetch { addr, size, op }
            };
            let queue = (0..rng.u32_below(6) + 1)
                .map(|warp_id| WarpJob {
                    warp_id,
                    scripts: (0..rng.usize_range(1, 32))
                        .map(|_| (0..rng.u32_below(5)).map(|_| step(&mut rng)).collect())
                        .collect(),
                })
                .collect();
            let mut rt = RtUnit::new(config);
            rt.enable_event_trace();
            rt.enable_analytics();
            Chaos {
                rt,
                mem: ChaosMem {
                    rng: rng.split(),
                    next_token: 0,
                    due: Vec::new(),
                    calls: 0,
                },
                queue,
                done: Vec::new(),
            }
        }

        /// One cycle: deliver due completions, admit jobs, tick.
        fn step(&mut self, now: u64) {
            let (due, later): (Vec<_>, Vec<_>) =
                self.mem.due.iter().partition(|&&(at, _)| at <= now);
            self.mem.due = later;
            for (_, token) in due {
                self.rt.on_mem_complete(token, now);
            }
            while self.rt.has_capacity() {
                let Some(job) = self.queue.pop_front() else {
                    break;
                };
                assert!(self.rt.try_enqueue(job, now));
            }
            let done = self.rt.tick(now, &mut self.mem);
            self.done.extend(done.into_iter().map(|d| (now, d)));
        }

        fn finished(&self) -> bool {
            self.queue.is_empty() && self.rt.is_idle() && self.mem.due.is_empty()
        }

        /// Runs from cycle `from` to completion; returns the cycle after.
        fn run(&mut self, from: u64) -> u64 {
            let mut now = from;
            while !self.finished() {
                assert!(now < 100_000, "scenario does not finish");
                self.step(now);
                now += 1;
            }
            now
        }
    }

    /// Everything a sleeping unit must leave alone: lane states, the
    /// memory access queue, in-flight and ready requests, the GTO pick
    /// and the counters.
    fn sleep_state(rt: &RtUnit) -> Vec<u8> {
        let mut e = Enc::new();
        rt.warps.save(&mut e);
        rt.mem_queue.save(&mut e);
        rt.inflight.save(&mut e);
        save_ready(&rt.ready_heap, &mut e);
        rt.last_warp.save(&mut e);
        rt.stats.counters.save(&mut e);
        e.into_bytes()
    }

    fn encode(rt: &RtUnit) -> Vec<u8> {
        let mut e = Enc::new();
        rt.save(&mut e);
        e.into_bytes()
    }

    fn prop_cases() -> vksim_testkit::Config {
        let config = vksim_testkit::Config::from_env();
        vksim_testkit::Config {
            cases: config.cases.min(64),
            ..config
        }
    }

    /// (a) `next_wake` is exact: with no completion delivered, each tick
    /// before it either changes nothing or only repeats the last tick's
    /// stall (`stalled_cycles(1)`), against a port that refuses the stalled
    /// head and trips on any other call; ticking at the wake does more.
    #[test]
    fn next_wake_is_exact() {
        let stalls = std::cell::Cell::new(0u64);
        vksim_testkit::check_with(prop_cases(), &prop::u64_in(0, u64::MAX), |&seed| {
            let mut c = Chaos::new(seed);
            let mut now = 0;
            while !c.finished() {
                prop_assert!(now < 100_000, "scenario does not finish");
                c.step(now);
                let wake = c.rt.next_wake(now);
                stalls.set(stalls.get() + u64::from(c.rt.stalled_on().is_some()));
                let (mut idle, mut expect) = (c.rt.clone(), c.rt.clone());
                let mut port = Tripwire::new(&c.rt);
                let until = wake.unwrap_or(now + 64);
                for t in now + 1..until {
                    let retired = idle.tick(t, &mut port);
                    expect.stalled_cycles(1);
                    prop_assert!(
                        retired.is_empty(),
                        "cycle {t} < wake {wake:?} retired a warp"
                    );
                    prop_assert_eq!(port.trips, 0, "cycle {t} < wake {wake:?} tripped the port");
                    prop_assert!(
                        sleep_state(&idle) == sleep_state(&expect),
                        "cycle {t} < wake {wake:?} moved"
                    );
                }
                if let Some(t) = wake {
                    let mut mem = c.mem.clone();
                    idle.tick(t, &mut mem);
                    expect.stalled_cycles(1);
                    let called = c.rt.stalled_on().is_none() && mem.calls > c.mem.calls;
                    prop_assert!(
                        called || sleep_state(&idle) != sleep_state(&expect),
                        "cycle {now}: nothing happened at wake {t}"
                    );
                }
                now += 1;
            }
            Ok(())
        });
        assert!(stalls.get() > 0, "no case stalled");
    }

    /// `stalled_cycles` and `idle_cycles` stand in for the ticks before
    /// `next_wake`: accounting the span in two calls and ticking at the
    /// wake leaves the unit byte for byte as ticking every cycle does
    /// against a port that refuses the stalled head again.
    #[test]
    fn idle_cycles_match_ticking() {
        vksim_testkit::check_with(prop_cases(), &prop::u64_in(0, u64::MAX), |&seed| {
            let mut c = Chaos::new(seed);
            let mut now = 0;
            while !c.finished() {
                prop_assert!(now < 100_000, "scenario does not finish");
                c.step(now);
                let wake = c.rt.next_wake(now).unwrap_or(now + 300);
                let (mut skipped, mut ticked) = (c.rt.clone(), c.rt.clone());
                skipped.stalled_cycles(wake - now - 1);
                skipped.idle_cycles(now + 1, wake - now - 1);
                let mut port = Tripwire::new(&c.rt);
                let mut tick_done = Vec::new();
                for t in now + 1..wake {
                    tick_done.extend(ticked.tick(t, &mut port));
                }
                prop_assert_eq!(port.trips, 0, "cycle {now}: tripped the port");
                let (mut skip_mem, mut tick_mem) = (c.mem.clone(), c.mem.clone());
                let skip_done = skipped.tick(wake, &mut skip_mem);
                tick_done.extend(ticked.tick(wake, &mut tick_mem));
                prop_assert!(skipped.stats == ticked.stats, "cycle {now}: stats differ");
                prop_assert_eq!(skipped.occupancy_trace(), ticked.occupancy_trace());
                prop_assert_eq!(skip_done, tick_done);
                prop_assert!(encode(&skipped) == encode(&ticked), "cycle {now}: bytes");
                now += 1;
            }
            Ok(())
        });
    }

    /// (b) Restore rebuilds the indices: freeze at a random cycle (one
    /// with lanes in all four states when there is one), save, restore
    /// into a fresh unit, and run both copies to the end.
    #[test]
    fn restore_rebuilds_indices_at_any_freeze_point() {
        let all_states_frozen = std::cell::Cell::new(0);
        vksim_testkit::check_with(prop_cases(), &prop::u64_in(0, u64::MAX), |&seed| {
            let mut c = Chaos::new(seed);
            let mut pick = vksim_testkit::Pcg32::new(!seed);
            // Reservoir-sample one freeze point, preferring cycles on
            // which every lane state is present.
            let (mut frozen, mut best, mut seen) = (None, false, 0u64);
            let mut now = 0;
            while !c.finished() {
                prop_assert!(now < 100_000, "scenario does not finish");
                c.step(now);
                now += 1;
                let states = c.rt.warps.iter().flat_map(|w| &w.lanes).fold(0u8, |m, l| {
                    m | match l.state {
                        LaneState::Ready => 1,
                        LaneState::WaitMem => 2,
                        LaneState::InOp(_) => 4,
                        LaneState::Done => 8,
                    }
                });
                let all = states == 15;
                if all && !best {
                    (best, seen) = (true, 0);
                }
                if all == best {
                    seen += 1;
                    if pick.u64_below(seen) == 0 {
                        frozen = Some((now, c.clone()));
                    }
                }
            }
            let Some((resume_at, mut original)) = frozen else {
                return Ok(());
            };
            all_states_frozen.set(all_states_frozen.get() + u32::from(best));

            let bytes = encode(&original.rt);
            let mut restored = original.clone();
            restored.rt = RtUnit::new(original.rt.config.clone());
            let mut d = Dec::new(&bytes);
            restored.rt.restore(&mut d).map_err(|e| e.to_string())?;
            d.finish().map_err(|e| e.to_string())?;
            prop_assert!(encode(&restored.rt) == bytes, "re-encode differs");
            prop_assert_eq!(restored.rt.active, original.rt.active);

            let end = original.run(resume_at);
            prop_assert_eq!(restored.run(resume_at), end);
            prop_assert_eq!(&restored.done, &original.done);
            prop_assert!(encode(&restored.rt) == encode(&original.rt), "final bytes");
            prop_assert_eq!(restored.rt.take_events(), original.rt.take_events());
            Ok(())
        });
        assert!(
            all_states_frozen.get() > 0,
            "no case froze with lanes in all four states"
        );
    }
}
