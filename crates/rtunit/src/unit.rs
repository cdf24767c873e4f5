//! The RT unit state machine.

use crate::{OpKind, RtStatsBundle, RtUnitConfig, Step, WarpJob, SHORT_STACK_ENTRIES};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
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

    fn advance(&mut self) {
        self.next += 1;
        self.state = if self.next >= self.script.len() {
            LaneState::Done
        } else {
            LaneState::Ready
        };
    }
}

#[derive(Clone, Debug)]
struct WarpSlot {
    warp_id: u32,
    lanes: Vec<Lane>,
    entered_at: u64,
    arrival: u64,
}

// A merged memory-access-queue entry: one chunk address, many waiting lanes.
#[derive(Clone, Debug)]
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
});
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
    live: HashMap<u32, u64>,
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
#[derive(Debug)]
pub struct RtUnit {
    config: RtUnitConfig,
    warps: Vec<WarpSlot>,
    mem_queue: VecDeque<QueuedReq>,
    // Chunk addresses already in the queue (for merging).
    inflight: HashMap<u64, QueuedReq>,
    ready_heap: BinaryHeap<Reverse<(u64, u64)>>, // (ready_at, key into ready_store)
    ready_store: HashMap<u64, QueuedReq>,
    ready_seq: u64,
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
            inflight: HashMap::new(),
            ready_heap: BinaryHeap::new(),
            ready_store: HashMap::new(),
            ready_seq: 0,
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

    /// Enables (or disables) timeline event recording. Off by default.
    pub fn set_event_trace(&mut self, enabled: bool) {
        self.events = if enabled { Some(Vec::new()) } else { None };
    }

    /// Enables (or disables) per-job step/latency attribution. Off by
    /// default.
    pub fn set_analytics(&mut self, enabled: bool) {
        self.analytics = if enabled { Some(Box::default()) } else { None };
    }

    /// The per-job attribution recorder, when analytics is enabled.
    pub fn analytics(&self) -> Option<&RtUnitAnalytics> {
        self.analytics.as_deref()
    }

    /// Drains recorded enqueue/finish timeline events.
    pub fn take_events(&mut self) -> Vec<RtUnitEvent> {
        self.events.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// The configuration in use.
    pub fn config(&self) -> &RtUnitConfig {
        &self.config
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
        self.warps
            .iter()
            .flat_map(|w| &w.lanes)
            .filter(|l| l.state != LaneState::Done)
            .count() as u32
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
    /// full (the SM must retry — the `traverseAS` issue stalls).
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
        });
        true
    }

    /// Memory system callback for a pending chunk issued earlier.
    pub fn on_mem_complete(&mut self, token: u64, now: u64) {
        if let Some(req) = self.inflight.remove(&token) {
            self.finish_chunk(req, now);
        }
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
                    lane.state = LaneState::InOp(now + lat);
                }
            }
        }
    }

    /// Advances one cycle; returns warps that completed this cycle.
    pub fn tick(&mut self, now: u64, mem: &mut dyn RtMem) -> Vec<WarpDone> {
        // 0. Hit-latency completions that became ready.
        while let Some(&Reverse((at, key))) = self.ready_heap.peek() {
            if at > now {
                break;
            }
            self.ready_heap.pop();
            if let Some(req) = self.ready_store.remove(&key) {
                self.finish_chunk(req, now);
            }
        }

        // 1. Operation-unit completions.
        for w in &mut self.warps {
            for lane in &mut w.lanes {
                if let LaneState::InOp(done) = lane.state {
                    if done <= now {
                        lane.advance();
                        if let Some(a) = self.analytics.as_mut() {
                            a.on_step(w.warp_id);
                        }
                    }
                }
            }
        }

        // 2. Warp scheduling: greedy-then-oldest.
        if let Some(wid) = self.pick_warp() {
            self.last_warp = Some(wid);
            self.schedule_memory(wid, mem, now);
        }

        // 3. Issue from the Memory Access Queue to the cache.
        for _ in 0..self.config.issue_per_cycle {
            let Some(req) = self.mem_queue.front() else {
                break;
            };
            let addr = req.addr;
            match mem.load_chunk(addr, now) {
                RtMemResult::Ready { at } => {
                    let req = self.mem_queue.pop_front().expect("nonempty");
                    self.ready_seq += 1;
                    let key = self.ready_seq;
                    self.ready_store.insert(key, req);
                    self.ready_heap.push(Reverse((at.max(now + 1), key)));
                    self.stats.counters.inc("mem.issued");
                }
                RtMemResult::Pending { token } => {
                    let req = self.mem_queue.pop_front().expect("nonempty");
                    self.inflight.insert(token, req);
                    self.stats.counters.inc("mem.issued");
                }
                RtMemResult::Retry => {
                    self.stats.counters.inc("mem.retry");
                    break;
                }
            }
        }

        // 4. Retire finished warps.
        let mut done = Vec::new();
        let mut i = 0;
        while i < self.warps.len() {
            if self.warps[i]
                .lanes
                .iter()
                .all(|l| l.state == LaneState::Done)
            {
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
        if !self.warps.is_empty() {
            self.stats.busy_cycles += 1;
            self.stats.resident_warp_cycles += self.warps.len() as u64;
            self.stats.active_ray_cycles += self.active_rays() as u64;
        }
        if now.is_multiple_of(self.sample_period) {
            self.occupancy_trace
                .push((now, self.warps.len() as u32, self.active_rays()));
        }
        done
    }

    fn pick_warp(&self) -> Option<u32> {
        let schedulable = |w: &WarpSlot| w.lanes.iter().any(|l| l.state == LaneState::Ready);
        // Greedy: stick with the last warp while it has ready lanes.
        if let Some(last) = self.last_warp {
            if let Some(w) = self.warps.iter().find(|w| w.warp_id == last) {
                if schedulable(w) {
                    return Some(last);
                }
            }
        }
        // Then oldest (smallest arrival stamp).
        self.warps
            .iter()
            .filter(|w| schedulable(w))
            .min_by_key(|w| w.arrival)
            .map(|w| w.warp_id)
    }

    /// Collects memory requests from all ready lanes of the selected warp,
    /// merging identical chunk addresses (the paper's Memory Scheduler).
    fn schedule_memory(&mut self, warp_id: u32, mem: &mut dyn RtMem, now: u64) {
        let Some(w_idx) = self.warps.iter().position(|w| w.warp_id == warp_id) else {
            return;
        };
        let lanes = self.warps[w_idx].lanes.len();
        for lane_idx in 0..lanes {
            let lane = &self.warps[w_idx].lanes[lane_idx];
            if lane.state != LaneState::Ready {
                continue;
            }
            match lane.current_step() {
                Some(Step::Store { addr, size }) => {
                    // Fire-and-forget store traffic (intersection buffer,
                    // stack spill); the lane advances after one cycle.
                    for chunk in chunk_addresses(addr, size) {
                        mem.store_chunk(chunk, now);
                        self.stats.counters.inc("mem.stores");
                    }
                    let lane = &mut self.warps[w_idx].lanes[lane_idx];
                    lane.state = LaneState::InOp(now + 1);
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
                    let lane = &mut self.warps[w_idx].lanes[lane_idx];
                    lane.state = LaneState::WaitMem;
                    lane.outstanding_chunks = chunks.len() as u32;
                    lane.pending_op = op;
                }
                None => {}
            }
        }
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

    /// RT-unit SIMT efficiency: mean active rays per busy cycle over the
    /// maximum lane count (paper §VI-B, 32-lane warps).
    pub fn simt_efficiency(&self, lanes_per_warp: u32) -> f64 {
        if self.stats.busy_cycles == 0 || self.stats.resident_warp_cycles == 0 {
            return 0.0;
        }
        let max_rays = self.stats.resident_warp_cycles as f64 * lanes_per_warp as f64;
        self.stats.active_ray_cycles as f64 / max_rays
    }

    /// `true` when no warps are resident and no memory is outstanding.
    pub fn is_idle(&self) -> bool {
        self.warps.is_empty() && self.inflight.is_empty() && self.mem_queue.is_empty()
    }
}

// Insertion-ordered containers are written in order (warp/queue order feeds
// the GTO scheduler). Configuration is rebuilt from the resuming config,
// not the file.
vksim_snapshot::snap_state!(RtUnit {
    warps,
    mem_queue,
    inflight,
    ready_heap,
    ready_store,
    ready_seq,
    last_warp,
    arrivals,
    stats,
    occupancy_trace,
    events,
    analytics,
} skip { config, sample_period });

/// Computes stack-spill traffic: given a sequence of stack depths reached by
/// pushes/pops, returns `(spill_stores, spill_loads)` for a short stack of
/// [`SHORT_STACK_ENTRIES`] entries (paper §III-C2).
pub fn short_stack_spills(depth_trace: &[u32]) -> (u32, u32) {
    let mut stores = 0;
    let mut loads = 0;
    let mut prev = 0u32;
    for &d in depth_trace {
        if d > SHORT_STACK_ENTRIES && d > prev {
            stores += d - prev.max(SHORT_STACK_ENTRIES);
        }
        if prev > SHORT_STACK_ENTRIES && d < prev {
            loads += prev.min(prev) - d.max(SHORT_STACK_ENTRIES).min(prev);
        }
        prev = d;
    }
    (stores, loads)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        rt.set_analytics(true);
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
        let eff = rt.simt_efficiency(32);
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

        rt.set_event_trace(true);
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
        rt.set_event_trace(true);
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

    #[test]
    fn short_stack_spill_accounting() {
        // Depth climbs to 10: 2 spill stores; then drops to 0: 2 reloads.
        let trace: Vec<u32> = (1..=10).chain((0..10).rev()).collect();
        let (stores, loads) = short_stack_spills(&trace);
        assert_eq!(stores, 2);
        assert_eq!(loads, 2);
        // Never exceeding the short stack: no spills.
        let shallow: Vec<u32> = (1..=8).collect();
        assert_eq!(short_stack_spills(&shallow), (0, 0));
    }
}
