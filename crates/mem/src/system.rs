//! Partitioned L2 + interconnect + DRAM backend.
//!
//! All SMs' L1 misses funnel through one [`SharedMemSystem`] (paper Fig. 3:
//! SMs connect to memory partitions through an on-chip interconnect). The
//! backend is organised as `num_partitions` independent *memory
//! partitions*, each owning an L2 slice and a DRAM channel group; the
//! [`AddrMap`] decides which partition, slice address and DRAM channel,
//! bank and row an address goes to. The model is event-driven: producers
//! [`SharedMemSystem::submit`] chunk-sized requests and poll
//! [`SharedMemSystem::advance_to`] each core cycle for completions.
//!
//! # Determinism
//!
//! The interconnect is a fixed-latency hop; each partition processes its
//! own events in `(time, seq)` order, where `seq` is assigned in submit
//! order (a heap, plus a FIFO of backed-off retries, replayed in closed
//! form with the exact `(time, seq)`, stamp and counts: see `Parked`). The
//! cycle loop drains per-SM request queues in SM-id order after every SM
//! has ticked, so the ingress order of every partition — and therefore
//! every counter — is a function of the configuration and the work. With
//! `num_partitions = 1` the backend is structurally identical to the
//! historical monolithic L2, which keeps pre-partitioning goldens
//! byte-identical.

use crate::cache::{AccessKind, Cache, CacheConfig, CacheOutcome, Refusal};
use crate::dram::{Dram, DramConfig, DramIssue};
use crate::{AddrMap, FixedMap};
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use vksim_snapshot::{load_fixed, restore_each, save_each, Dec, Enc, Snap, SnapError};
use vksim_stats::Counters;

/// Cycles a refused access (L2 reservation fail, full DRAM bank queue)
/// waits before it is offered again.
const RETRY_BACKOFF: u64 = 4;

/// Configuration of the shared memory backend.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// The unified L2 cache (total capacity; sliced across partitions).
    pub l2: CacheConfig,
    /// DRAM behind the L2 (total channels; grouped across partitions).
    pub dram: DramConfig,
    /// One-way interconnect latency in cycles (SM <-> partition, one hop).
    pub icnt_latency: u32,
    /// Number of independent memory partitions (each an L2 slice plus a
    /// DRAM channel group). `1` reproduces the monolithic backend.
    pub num_partitions: u32,
    /// Per-partition ingress-queue depth (requests in flight towards or
    /// queued at one partition). `0` models an unbounded interconnect —
    /// the historical fixed-latency hop; goldens are recorded against it.
    /// A finite depth makes [`SharedMemSystem::try_submit`] refuse
    /// requests to a full partition, and arms the DRAM-side bank-queue
    /// backpressure.
    pub icnt_queue_depth: u32,
    /// Return-path (partition -> SM) credits per partition: the number of
    /// completions that may be on the return wire simultaneously. `0`
    /// models an unbounded return path (the historical behaviour).
    pub icnt_return_credits: u32,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            l2: CacheConfig::l2_baseline(),
            dram: DramConfig::default(),
            icnt_latency: 8,
            num_partitions: 1,
            icnt_queue_depth: 0,
            icnt_return_credits: 0,
        }
    }
}

/// One 32 B memory request from an SM.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemRequest {
    /// Caller-chosen identifier returned on completion.
    pub id: u64,
    /// Chunk-aligned address.
    pub addr: u64,
    /// Source tag for cache statistics.
    pub kind: AccessKind,
    /// `true` for (write-through) stores.
    pub is_store: bool,
}

vksim_snapshot::snap_struct!(MemRequest {
    id,
    addr,
    kind,
    is_store
});

/// Anything that accepts timed [`MemRequest`]s.
///
/// The SM pipeline is written against this trait so the same tick code runs
/// against two sinks:
///
/// * the [`SharedMemSystem`] itself — the request enters the event heap
///   immediately;
/// * a per-SM [`RequestQueue`] — the cycle loop drains the queues in SM-id
///   order after every SM has ticked, which reproduces the submit order
///   (and `seq` numbering) of submitting directly in that order.
pub trait MemSink {
    /// Accepts a request issued at cycle `now`.
    fn submit(&mut self, req: MemRequest, now: u64);

    /// Offers a request issued at cycle `now`; a bounded sink may refuse
    /// it (returning `false`) when the target buffer is full, in which
    /// case the caller keeps ownership and must re-offer later. The
    /// default accepts unconditionally.
    fn try_submit(&mut self, req: MemRequest, now: u64) -> bool {
        self.submit(req, now);
        true
    }

    /// `true` while previously accepted requests are still waiting to
    /// enter the backend — the backpressure signal a producer polls
    /// before issuing new memory instructions.
    fn backlogged(&self) -> bool {
        false
    }
}

/// An ordered buffer of outbound memory requests from one SM for one cycle.
///
/// Order of insertion is preserved; [`RequestQueue::drain_into`] forwards
/// the requests to the shared backend in that order.
#[derive(Clone, Debug, Default)]
pub struct RequestQueue {
    items: Vec<(MemRequest, u64)>,
}

impl RequestQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of queued requests.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Forwards queued requests to `sink` in insertion order, stopping at
    /// the first refusal (head-of-line blocking preserves the global
    /// submission order); refused requests stay queued for the next
    /// drain. An unbounded sink always drains the queue completely.
    pub fn drain_into(&mut self, sink: &mut dyn MemSink) {
        let mut accepted = 0;
        for &(req, now) in &self.items {
            if !sink.try_submit(req, now) {
                break;
            }
            accepted += 1;
        }
        self.items.drain(..accepted);
    }
}

// Snapshot encoding: requests still awaiting interconnect acceptance at a
// cycle boundary (bounded-icnt backpressure carries them across cycles),
// in insertion order.
vksim_snapshot::snap_struct!(RequestQueue { items });

impl MemSink for RequestQueue {
    fn submit(&mut self, req: MemRequest, now: u64) {
        self.items.push((req, now));
    }

    /// Leftovers from the previous drain mean the interconnect refused
    /// at least one request: the owning SM must stall its issue stage.
    fn backlogged(&self) -> bool {
        !self.items.is_empty()
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum EvKind {
    ArriveL2(MemRequest),
    DramDone {
        line: u64,
    },
    /// A DRAM bank queue was full (bounded mode only): re-offer the
    /// access after a short backoff, exactly like an L2 reservation fail.
    RetryDram {
        addr: u64,
        line: u64,
        is_store: bool,
    },
}

impl Snap for EvKind {
    fn save(&self, e: &mut Enc) {
        match *self {
            EvKind::ArriveL2(req) => {
                e.u8(0);
                req.save(e);
            }
            EvKind::DramDone { line } => {
                e.u8(1);
                e.u64(line);
            }
            EvKind::RetryDram {
                addr,
                line,
                is_store,
            } => {
                e.u8(2);
                e.u64(addr);
                e.u64(line);
                e.bool(is_store);
            }
        }
    }

    fn load(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(match d.u8()? {
            0 => EvKind::ArriveL2(MemRequest::load(d)?),
            1 => EvKind::DramDone { line: d.u64()? },
            2 => EvKind::RetryDram {
                addr: d.u64()?,
                line: d.u64()?,
                is_store: d.bool()?,
            },
            t => return Err(SnapError::bad_tag::<Self>(t)),
        })
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Ev {
    time: u64,
    seq: u64,
    kind: EvKind,
}

vksim_snapshot::snap_struct!(Ev { time, seq, kind });

impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A backed-off event waiting in a partition's parked FIFO.
///
/// Every back-off is pushed at `now + RETRY_BACKOFF` with a fresh `seq`,
/// and `now` (the time of the event being processed) never decreases, so
/// the FIFO is sorted by `(time, seq)` by construction: the partition's
/// next event is the smaller of the heap top and the FIFO front, in O(1).
/// Refused reads only rotate between real events, as a *window* of offers
/// in closed form ([`Partition::replay`], [`land`]).
#[derive(Clone, Copy, Debug)]
struct Parked {
    ev: Ev,
    /// In the verified prefix: the check refusing this read, and its line.
    refused: Option<(Refusal, u64)>,
}

/// One memory partition: an L2 slice, a DRAM channel group and the
/// partition-local event machinery (its deterministic ingress queue).
#[derive(Clone, Debug)]
struct Partition {
    map: AddrMap,
    l2: Cache,
    dram: Dram,
    events: BinaryHeap<Reverse<Ev>>,
    /// Backed-off retries, sorted by `(time, seq)`; see [`Parked`].
    parked: VecDeque<Parked>,
    /// Offers the window replayed since `parked` was last materialised.
    replays: u64,
    /// Leading `parked` entries `scan` verified; a fill or a read entering
    /// the shadow resets it. The window wraps round only if it is whole.
    verified: usize,
    seq: u64,
    waiting: FixedMap<u64, Vec<u64>>,
    /// FR-FCFS tickets for in-flight reads: ticket -> L2 line to fill.
    tickets: FixedMap<u64, u64>,
    /// Requests accepted into this partition's ingress (on the wire or
    /// queued at the L2 slice) and not yet handed to the L2. Bounded by
    /// `icnt_queue_depth` when that knob is finite.
    ingress_occupancy: u32,
    /// Time of the last event this partition processed. Requests that sat
    /// refused in an SM queue carry a stale issue timestamp; acceptance
    /// clamps their arrival here so partition event (and therefore DRAM
    /// arrival) order stays nondecreasing. Never ahead of any live
    /// submission on the unbounded path, where producers submit at the
    /// current cycle.
    last_event_time: u64,
    /// Return-path credits: `egress_free[i]` is the cycle credit `i`
    /// frees up. Empty = unbounded return path (credits disabled).
    egress_free: Vec<u64>,
}

/// Lands `n` window offers in `parked` and its L2 slice (`seq` as after
/// them). Offer `m` takes entry `m mod k`, counts under its refusal and
/// re-parks it a back-off later as `seq - n + m + 1`. The last `min(n, k)`
/// offers are one per entry, in FIFO order: replaying those (the first with
/// every offer before it) leaves the slice as all `n` do.
fn land(l2: &mut Cache, parked: &mut VecDeque<Parked>, n: u64, seq: u64) {
    let k = parked.len() as u64;
    let is_full = |p: &&Parked| p.refused.is_some_and(|(r, _)| r == Refusal::MshrFull);
    let fulls = |j: u64| parked.range(..j as usize).filter(is_full).count() as u64;
    let full = n / k * fulls(k) + fulls(n % k);
    l2.stats.add(Refusal::MshrFull.counter(), full);
    l2.stats.add(Refusal::MergeFull.counter(), n - full);
    let first = n - n.min(k);
    for m in first..n {
        let p = &mut parked[(m % k) as usize];
        (p.ev.time, p.ev.seq) = (p.ev.time + (m / k + 1) * RETRY_BACKOFF, seq - n + m + 1);
        let (_, line) = p.refused.expect("window offers are verified");
        l2.replay_refusals(line, if m == first { first + 1 } else { 1 });
    }
    parked.rotate_left((n % k) as usize);
}

impl Partition {
    fn push(&mut self, time: u64, kind: EvKind) {
        self.materialise();
        self.seq += 1;
        self.events.push(Reverse(Ev {
            time,
            seq: self.seq,
            kind,
        }));
    }

    /// Backs `kind` off until `time` (see [`Parked`]).
    fn park(&mut self, time: u64, kind: EvKind) {
        debug_assert_eq!(self.replays, 0, "real events materialise the window");
        self.seq += 1;
        let ev = Ev {
            time,
            seq: self.seq,
            kind,
        };
        debug_assert!(
            self.parked.back().is_none_or(|back| back.ev < ev),
            "back-offs must be parked in (time, seq) order"
        );
        self.parked.push_back(Parked { ev, refused: None });
    }

    /// Extends the verified prefix as far as the cache state allows.
    fn scan(&mut self) {
        while let Some(p) = self.parked.get_mut(self.verified) {
            let EvKind::ArriveL2(req) = p.ev.kind else {
                return;
            };
            let line = self.l2.line_of(self.map.slice_addr(req.addr));
            let (refusal, shadowed) = (self.l2.would_refuse(line), self.l2.in_shadow(line));
            p.refused = refusal.filter(|_| shadowed).map(|r| (r, line));
            if p.refused.is_none() {
                return;
            }
            self.verified += 1;
        }
    }

    /// `(time, seq)` of the window's `n`-th offer (see [`land`]).
    fn offer(&self, n: u64) -> (u64, u64) {
        let k = self.parked.len() as u64;
        if n < k {
            let ev = self.parked[n as usize].ev;
            return (ev.time, ev.seq);
        }
        let ev = self.parked[(n % k) as usize].ev;
        let seq = self.seq - self.replays + n - k + 1;
        (ev.time + n / k * RETRY_BACKOFF, seq)
    }

    /// Extends the verified prefix, then replays the offers due by `cycle`
    /// ahead of the heap top and any DRAM decision; returns how many.
    fn replay(&mut self, cycle: u64) -> u64 {
        if self.parked.is_empty() {
            return 0;
        }
        self.scan();
        let (k, v, verified) = (self.parked.len() as u64, self.replays, self.verified as u64);
        let top = self.events.peek().map(|r| (r.0.time, r.0.seq));
        let due = |n: u64| {
            let (t, seq) = self.offer(n);
            (verified == k || n < verified)
                && t <= cycle
                && !self.dram.schedule_due(t)
                && top.is_none_or(|h| (t, seq) < h)
        };
        if !due(v) {
            return 0;
        }
        // Offer `n + k` comes a back-off after offer `n`; `due` is monotone.
        let rounds = (cycle - self.offer(v).0) / RETRY_BACKOFF + 1;
        let (mut lo, mut hi) = (v, v + rounds * k);
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            *if due(mid) { &mut lo } else { &mut hi } = mid;
        }
        let n = lo + 1 - v;
        (self.last_event_time, self.seq, self.replays) = (self.offer(lo).0, self.seq + n, lo + 1);
        n
    }

    /// Writes the window's offers into the FIFO and the slice ([`land`]).
    fn materialise(&mut self) {
        let v = std::mem::take(&mut self.replays);
        if v > 0 {
            // A partial window's offers leave the verified prefix.
            if self.verified < self.parked.len() {
                self.verified -= v as usize;
            }
            land(&mut self.l2, &mut self.parked, v, self.seq);
        }
    }

    /// This partition with its window materialised, for exact reads.
    fn settled(&self) -> Cow<'_, Partition> {
        let mut p = Cow::Borrowed(self);
        if self.replays > 0 {
            p.to_mut().materialise();
        }
        p
    }

    /// Time of the next event in `(time, seq)` order if it is due by
    /// `cycle`, and whether it heads the parked FIFO rather than the heap.
    fn next_due(&self, cycle: u64) -> Option<(u64, bool)> {
        let heap = self.events.peek().map(|r| (r.0.time, r.0.seq, false));
        let fifo = (!self.parked.is_empty()).then(|| self.offer(self.replays));
        let (time, _, in_fifo) = match (heap, fifo.map(|(t, s)| (t, s, true))) {
            (Some(h), Some(f)) => h.min(f),
            (h, f) => h.or(f)?,
        };
        (time <= cycle).then_some((time, in_fifo))
    }
}

// Pending events — heap and parked FIFO alike — are written as one heap, in
// `(time, seq)` order, so re-encoding a restored partition is
// byte-identical: a restored partition holds them all in the heap, and a
// refused read re-parks at its first re-offer. `SharedMemSystem` saves
// [`Partition::settled`].
vksim_snapshot::snap_state!(Partition {
    l2: state,
    dram: state,
    events: with(
        |events, e| {
            let parked = parked.iter().map(|p| Reverse(p.ev));
            let all: BinaryHeap<Reverse<Ev>> = events.iter().copied().chain(parked).collect();
            all.save(e)
        },
        |events, d| {
            parked.clear();
            (*replays, *verified) = (0, 0);
            *events = Snap::load(d)?;
            Ok(())
        }
    ),
    seq,
    waiting,
    tickets,
    ingress_occupancy,
    last_event_time,
    egress_free: with(Snap::save, |credits, d| load_fixed(credits, d)),
} skip { map, parked, replays, verified });

/// Routes one finished completion to `done`, unless it is the injected
/// drop victim. Delivery order is global across partitions (partition
/// index, then event order), so the drop victim is deterministic.
///
/// `ready` is the cycle the data is ready at the partition's egress port;
/// the completion reaches the SM one interconnect hop later. With return
/// credits enabled (`egress` nonempty) the completion must additionally
/// claim the earliest-free credit, which can delay its departure — the
/// credit frees when the flit lands at the SM. An empty `egress` is the
/// unbounded historical return path.
#[allow(clippy::too_many_arguments)]
fn deliver(
    stats: &mut Counters,
    drop_nth: Option<u64>,
    delivered: &mut u64,
    egress: &mut [u64],
    icnt: u64,
    id: u64,
    ready: u64,
    done: &mut Vec<(u64, u64)>,
) {
    *delivered += 1;
    if drop_nth == Some(*delivered) {
        stats.inc("mem.injected_drops");
        return;
    }
    stats.inc("icnt.from_l2");
    let at = if egress.is_empty() {
        ready + icnt
    } else {
        let (idx, free_at) = egress
            .iter()
            .copied()
            .enumerate()
            .min_by_key(|&(i, t)| (t, i))
            .expect("nonempty credit array");
        let arrive = ready.max(free_at) + icnt;
        egress[idx] = arrive;
        arrive
    };
    done.push((id, at));
}

/// The partitioned L2/DRAM system.
///
/// # Example
///
/// ```
/// use vksim_mem::{SharedMemSystem, SystemConfig, MemRequest, AccessKind};
/// let mut sys = SharedMemSystem::new(SystemConfig::default());
/// sys.submit(MemRequest { id: 1, addr: 0x1000, kind: AccessKind::ShaderLoad, is_store: false }, 0);
/// let mut done = Vec::new();
/// let mut t = 0;
/// while done.is_empty() {
///     t += 1;
///     done.extend(sys.advance_to(t));
/// }
/// assert_eq!(done[0].0, 1);
/// ```
#[derive(Debug)]
pub struct SharedMemSystem {
    map: AddrMap,
    parts: Vec<Partition>,
    icnt_latency: u32,
    /// Ingress bound per partition (`0` = unbounded).
    icnt_queue_depth: u32,
    /// Fault injection: silently drop the Nth (1-based) completion.
    drop_nth_completion: Option<u64>,
    /// Completions delivered so far (drives `drop_nth_completion`).
    completions_delivered: u64,
    /// Interconnect / backend traffic counters.
    pub stats: Counters,
}

impl SharedMemSystem {
    /// Creates an idle backend with `config.num_partitions` partitions.
    ///
    /// Each partition's L2 slice gets `1/num_partitions` of the configured
    /// capacity and MSHRs ([`CacheConfig::sliced`]); each DRAM channel
    /// group gets `1/num_partitions` of the channels. Panics where
    /// [`AddrMap::new`] does.
    pub fn new(config: SystemConfig) -> Self {
        let (map, n) = (AddrMap::new(&config), config.num_partitions);
        let dram_cfg = DramConfig {
            channels: map.group_channels(),
            ..config.dram
        };
        let parts = (0..n)
            .map(|_| Partition {
                map,
                l2: Cache::new(config.l2.sliced(n)),
                dram: Dram::new(dram_cfg.clone()),
                events: BinaryHeap::new(),
                parked: VecDeque::new(),
                replays: 0,
                verified: 0,
                seq: 0,
                waiting: FixedMap::default(),
                tickets: FixedMap::default(),
                ingress_occupancy: 0,
                last_event_time: 0,
                egress_free: vec![0; config.icnt_return_credits as usize],
            })
            .collect();
        SharedMemSystem {
            map,
            parts,
            icnt_latency: config.icnt_latency,
            icnt_queue_depth: config.icnt_queue_depth,
            drop_nth_completion: None,
            completions_delivered: 0,
            stats: Counters::new(),
        }
    }

    /// Number of memory partitions.
    pub fn num_partitions(&self) -> u32 {
        self.parts.len() as u32
    }

    /// Fault injection: silently swallow the `n`th (1-based) completion
    /// this backend would deliver, modelling a lost MSHR wakeup. The drop
    /// is recorded under `mem.injected_drops` (a counter that stays absent
    /// on healthy runs, keeping golden key sets unchanged).
    pub fn inject_drop_nth_completion(&mut self, n: u64) {
        self.drop_nth_completion = Some(n);
    }

    /// Submits a request at `now`; its completion arrives through
    /// [`SharedMemSystem::advance_to`]. The request is routed to its
    /// address's partition over the interconnect hop, bypassing any
    /// ingress bound (use [`SharedMemSystem::try_submit`] for the
    /// refusable, credit-checked path).
    pub fn submit(&mut self, req: MemRequest, now: u64) {
        let pi = self.map.partition(req.addr) as usize;
        self.accept(pi, req, now);
    }

    /// Offers a request at `now`. With a finite `icnt_queue_depth` a full
    /// target partition refuses the request (counted under
    /// `icnt.refused`) and the caller must re-offer later; with the
    /// unbounded default this is exactly [`SharedMemSystem::submit`].
    pub fn try_submit(&mut self, req: MemRequest, now: u64) -> bool {
        let pi = self.map.partition(req.addr) as usize;
        if self.icnt_queue_depth > 0 && self.parts[pi].ingress_occupancy >= self.icnt_queue_depth {
            self.stats.inc("icnt.refused");
            return false;
        }
        self.accept(pi, req, now);
        true
    }

    /// Accepts a request into partition `pi`'s ingress. `icnt.to_l2`
    /// counts acceptances only — refused offers are not traffic.
    fn accept(&mut self, pi: usize, req: MemRequest, now: u64) {
        self.stats.inc("icnt.to_l2");
        let p = &mut self.parts[pi];
        let at = (now + self.icnt_latency as u64).max(p.last_event_time);
        p.ingress_occupancy += 1;
        p.push(at, EvKind::ArriveL2(req));
    }

    /// Requests currently occupying `partition`'s ingress (on the wire or
    /// queued at the L2 slice). Never exceeds a finite
    /// `icnt_queue_depth`; exposed for the backpressure property tests.
    pub fn ingress_occupancy(&self, partition: u32) -> u32 {
        self.parts[partition as usize].ingress_occupancy
    }

    /// Processes all backend events up to and including `cycle`; returns
    /// `(request id, completion cycle)` pairs. Partitions are processed in
    /// index order, each one in `(time, seq)` event order, refused retries
    /// in closed form (see `Parked`); `stats`, the L2 counters and `save`
    /// are exact between calls.
    pub fn advance_to(&mut self, cycle: u64) -> Vec<(u64, u64)> {
        let mut done = Vec::new();
        let icnt = self.icnt_latency as u64;
        let bounded = self.icnt_queue_depth > 0;
        for pi in 0..self.parts.len() {
            let SharedMemSystem {
                parts,
                stats,
                drop_nth_completion,
                completions_delivered,
                ..
            } = self;
            let p = &mut parts[pi];
            // Offers the window replayed, counted under `l2.retry` once,
            // below; `land` splits them into `mshr.*`.
            let mut retries = 0;
            loop {
                retries += p.replay(cycle);
                // Finalize FR-FCFS scheduling decisions up to the next
                // event (or `cycle`); redeemed read tickets become
                // DramDone events at their completion cycle.
                let next = p.next_due(cycle);
                let horizon = next.map_or(cycle, |(time, _)| time);
                if p.dram.schedule_due(horizon) {
                    for (ticket, ready) in p.dram.run_schedule(horizon) {
                        if let Some(line) = p.tickets.remove(&ticket) {
                            p.push(ready, EvKind::DramDone { line });
                        }
                    }
                    continue;
                }
                let Some((t, in_fifo)) = next else {
                    break;
                };
                // A real event, after the window's replays; a parked read
                // here failed `scan`, so it takes a real access.
                p.materialise();
                let ev = if in_fifo {
                    debug_assert_eq!(p.verified, 0, "the window takes verified offers");
                    p.parked.pop_front().expect("peeked").ev
                } else {
                    p.events.pop().expect("peeked").0
                };
                p.last_event_time = t;
                match ev.kind {
                    EvKind::ArriveL2(req) => handle_l2(
                        p,
                        stats,
                        *drop_nth_completion,
                        completions_delivered,
                        icnt,
                        bounded,
                        req,
                        t,
                        &mut done,
                    ),
                    EvKind::DramDone { line } => {
                        p.l2.fill(line, t);
                        p.verified = 0;
                        if let Some(ids) = p.waiting.remove(&line) {
                            for id in ids {
                                deliver(
                                    stats,
                                    *drop_nth_completion,
                                    completions_delivered,
                                    &mut p.egress_free,
                                    icnt,
                                    id,
                                    t,
                                    &mut done,
                                );
                            }
                        }
                    }
                    EvKind::RetryDram {
                        addr,
                        line,
                        is_store,
                    } => submit_dram(p, stats, bounded, addr, line, is_store, t),
                }
            }
            stats.add("l2.retry", retries);
        }
        done
    }

    /// Merged L2 counters: the sum over partitions under the original key
    /// names, plus per-partition copies under `p{i}.*` when more than one
    /// partition exists (so single-partition golden key sets are
    /// unchanged).
    pub fn l2_stats(&self) -> Counters {
        let settled: Vec<_> = self.parts.iter().map(Partition::settled).collect();
        merge_partition_stats(settled.iter().map(|p| &p.l2.stats))
    }

    /// Merged DRAM counters, same key scheme as
    /// [`SharedMemSystem::l2_stats`].
    pub fn dram_stats(&self) -> Counters {
        merge_partition_stats(self.parts.iter().map(|p| &p.dram.stats))
    }

    /// DRAM efficiency aggregated across partitions, weighted by cycles:
    /// total transfer cycles over total active cycles (*not* the mean of
    /// per-partition ratios, which would overweight idle partitions).
    pub fn dram_efficiency(&self) -> f64 {
        let transfer: u64 = self.parts.iter().map(|p| p.dram.transfer_cycles()).sum();
        let active: u64 = self.parts.iter().map(|p| p.dram.active_cycles()).sum();
        if active == 0 {
            0.0
        } else {
            transfer as f64 / active as f64
        }
    }

    /// DRAM utilization aggregated across partitions: total transfer
    /// cycles over `total_cycles` × total channels.
    pub fn dram_utilization(&self, total_cycles: u64) -> f64 {
        let transfer: u64 = self.parts.iter().map(|p| p.dram.transfer_cycles()).sum();
        let channels = self.parts.len() as u64 * self.map.group_channels() as u64;
        if total_cycles == 0 {
            0.0
        } else {
            transfer as f64 / (total_cycles * channels) as f64
        }
    }

    /// Row-buffer hit rate aggregated across partitions, weighted by
    /// requests: total row hits over total requests.
    pub fn dram_row_hit_rate(&self) -> f64 {
        let hits: u64 = self.parts.iter().map(|p| p.dram.stats.get("row_hit")).sum();
        let reqs: u64 = self.parts.iter().map(|p| p.dram.stats.get("req")).sum();
        if reqs == 0 {
            0.0
        } else {
            hits as f64 / reqs as f64
        }
    }

    /// Enables (or disables) DRAM row-activate event recording on every
    /// partition.
    pub fn set_trace(&mut self, enabled: bool) {
        for p in &mut self.parts {
            p.dram.set_trace(enabled);
        }
    }

    /// Drains recorded `(cycle, partition, channel, bank)` DRAM row
    /// activates. The channel index is global (partition-base plus the
    /// channel within the partition's group); events come out in partition
    /// order, chronological within a partition — a deterministic order.
    pub fn take_row_activates(&mut self) -> Vec<(u64, u32, u32, u32)> {
        let mut out = Vec::new();
        for (pi, p) in (0..).zip(&mut self.parts) {
            let acts = p.dram.take_row_activates().into_iter();
            out.extend(
                acts.map(|(cycle, ch, bank)| (cycle, pi, self.map.global_channel(pi, ch), bank)),
            );
        }
        out
    }

    /// Cumulative traffic totals for interval sampling, summed over
    /// partitions:
    /// `(l2_hits, l2_misses, dram_requests, dram_transfer_cycles)`.
    pub fn traffic_totals(&self) -> (u64, u64, u64, u64) {
        self.parts.iter().fold((0, 0, 0, 0), |acc, p| {
            (
                acc.0 + p.l2.total_hits(),
                acc.1 + p.l2.total_misses(),
                acc.2 + p.dram.stats.get("req"),
                acc.3 + p.dram.transfer_cycles(),
            )
        })
    }

    /// A backend built from `config` with the state written by
    /// [`SharedMemSystem::save`] restored into it.
    ///
    /// # Errors
    ///
    /// A partition count (or per-partition geometry) that disagrees with
    /// `config` is a mismatched snapshot.
    pub fn load(config: SystemConfig, d: &mut Dec<'_>) -> Result<Self, SnapError> {
        let mut sys = SharedMemSystem::new(config);
        sys.restore(d)?;
        Ok(sys)
    }

    /// `true` when no events (backed-off retries included) or queued DRAM
    /// requests are pending in any partition (drain check).
    pub fn is_idle(&self) -> bool {
        self.parts
            .iter()
            .all(|p| p.events.is_empty() && p.parked.is_empty() && !p.dram.has_queued())
    }
}

// Configuration is not written; it is rebuilt from the resuming
// [`SystemConfig`] (guaranteed equal by the snapshot fingerprint). The
// delivery counter and drop victim that drive fault injection are.
vksim_snapshot::snap_state!(SharedMemSystem {
    parts: with(
        |parts, e| save_each(parts, e, |p, e| p.settled().save(e)),
        |parts, d| restore_each(parts, d, Partition::restore)
    ),
    drop_nth_completion,
    completions_delivered,
    stats,
} skip { map, icnt_latency, icnt_queue_depth });

/// Sums counter bags over partitions, adding `p{i}.*` copies when more
/// than one partition exists.
fn merge_partition_stats<'a>(bags: impl ExactSizeIterator<Item = &'a Counters>) -> Counters {
    let multi = bags.len() > 1;
    let mut out = Counters::new();
    for (i, bag) in bags.enumerate() {
        out.merge(bag);
        if multi {
            for (k, v) in bag.iter() {
                out.add(&format!("p{i}.{k}"), v);
            }
        }
    }
    out
}

/// One L2-slice access: hit, miss to the partition's DRAM group, MSHR
/// merge, or retry. Every outcome except a reservation fail frees the
/// request's ingress slot (a failed reservation keeps the request queued
/// at the partition, so the slot stays held across the backoff).
#[allow(clippy::too_many_arguments)]
fn handle_l2(
    p: &mut Partition,
    stats: &mut Counters,
    drop_nth: Option<u64>,
    delivered: &mut u64,
    icnt: u64,
    bounded: bool,
    req: MemRequest,
    t: u64,
    done: &mut Vec<(u64, u64)>,
) {
    let kind = if req.is_store {
        AccessKind::ShaderStore
    } else {
        req.kind
    };
    let addr = p.map.slice_addr(req.addr);
    let line = p.l2.line_of(addr);
    // A read that enters the shadow may evict a parked read's line.
    if !req.is_store && !p.l2.in_shadow(line) {
        p.verified = 0;
    }
    match p.l2.access(addr, kind, t) {
        CacheOutcome::Hit => {
            p.ingress_occupancy -= 1;
            if req.is_store {
                // Write-through: generate DRAM traffic but ack now. Under
                // FR-FCFS the write occupies queue and bus without a
                // waiter: its ticket is never mapped, so the scheduled
                // completion is discarded.
                submit_dram(p, stats, bounded, req.addr, line, true, t);
            }
            deliver(
                stats,
                drop_nth,
                delivered,
                &mut p.egress_free,
                icnt,
                req.id,
                t + p.l2.hit_latency() as u64,
                done,
            );
        }
        CacheOutcome::MissToMemory => {
            p.ingress_occupancy -= 1;
            p.waiting.entry(line).or_default().push(req.id);
            stats.inc("dram.reads");
            submit_dram(p, stats, bounded, req.addr, line, false, t);
        }
        CacheOutcome::MissMerged => {
            p.ingress_occupancy -= 1;
            p.waiting.entry(line).or_default().push(req.id);
        }
        CacheOutcome::ReservationFail => {
            stats.inc("l2.retry");
            p.park(t + RETRY_BACKOFF, EvKind::ArriveL2(req));
        }
    }
}

/// Hands one access, leaving the L2 slice at `t`, to the partition's DRAM
/// group; it arrives there one L2 latency later (re-offers included, so
/// DRAM arrival cycles stay nondecreasing across event order). Unbounded
/// mode submits unconditionally (the historical path); bounded mode offers
/// via [`Dram::try_submit`] and, when the target bank queue is full, counts
/// a `dram.bank_full_retries` and backs off through a
/// [`EvKind::RetryDram`] event — the bank back-pressures its L2 slice
/// instead of buffering unboundedly.
fn submit_dram(
    p: &mut Partition,
    stats: &mut Counters,
    bounded: bool,
    addr: u64,
    line: u64,
    is_store: bool,
    t: u64,
) {
    let (at, loc) = (t + p.l2.hit_latency() as u64, p.map.dram(addr));
    let issue = if bounded {
        p.dram.try_submit(loc, at)
    } else {
        Some(p.dram.submit(loc, at))
    };
    match issue {
        None => {
            stats.inc("dram.bank_full_retries");
            let retry = EvKind::RetryDram {
                addr,
                line,
                is_store,
            };
            p.park(t + RETRY_BACKOFF, retry);
        }
        Some(_) if is_store => stats.inc("dram.writes"),
        Some(DramIssue::Done(ready)) => p.push(ready, EvKind::DramDone { line }),
        Some(DramIssue::Queued(ticket)) => {
            p.tickets.insert(ticket, line);
        }
    }
}

impl MemSink for SharedMemSystem {
    fn submit(&mut self, req: MemRequest, now: u64) {
        SharedMemSystem::submit(self, req, now);
    }

    fn try_submit(&mut self, req: MemRequest, now: u64) -> bool {
        SharedMemSystem::try_submit(self, req, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::DramSched;

    fn drain(sys: &mut SharedMemSystem, until: u64) -> Vec<(u64, u64)> {
        sys.advance_to(until)
    }

    fn load(id: u64, addr: u64) -> MemRequest {
        MemRequest {
            id,
            addr,
            kind: AccessKind::ShaderLoad,
            is_store: false,
        }
    }

    #[test]
    fn cold_read_goes_to_dram_then_hits() {
        let mut sys = SharedMemSystem::new(SystemConfig::default());
        sys.submit(load(1, 0x4000), 0);
        let done = drain(&mut sys, 100_000);
        assert_eq!(done.len(), 1);
        let (_, t1) = done[0];
        // Cold: must include L2 latency + DRAM.
        assert!(t1 > 160, "cold access too fast: {t1}");
        // Second access to the same line: L2 hit, much faster.
        sys.submit(load(2, 0x4000), t1);
        let done2 = drain(&mut sys, t1 + 100_000);
        let (_, t2) = done2[0];
        assert!(t2 - t1 < t1, "hit {t2} vs cold {t1}");
        assert_eq!(sys.l2_stats().get("shader_load.hit"), 1);
    }

    #[test]
    fn merged_requests_complete_together() {
        let mut sys = SharedMemSystem::new(SystemConfig::default());
        for id in 1..=3 {
            sys.submit(
                MemRequest {
                    id,
                    addr: 0x8000,
                    kind: AccessKind::RtUnit,
                    is_store: false,
                },
                0,
            );
        }
        let done = drain(&mut sys, 100_000);
        assert_eq!(done.len(), 3);
        let t0 = done[0].1;
        assert!(
            done.iter().all(|&(_, t)| t == t0),
            "merged fills complete together"
        );
        // Only one DRAM read happened.
        assert_eq!(sys.dram_stats().get("req"), 1);
    }

    #[test]
    fn stores_ack_fast_but_generate_dram_writes() {
        let mut sys = SharedMemSystem::new(SystemConfig::default());
        sys.submit(
            MemRequest {
                id: 9,
                addr: 0xA000,
                kind: AccessKind::ShaderStore,
                is_store: true,
            },
            0,
        );
        let done = drain(&mut sys, 10_000);
        assert_eq!(done.len(), 1);
        assert_eq!(sys.stats.get("dram.writes"), 1);
        // Store ack does not wait for DRAM.
        assert!(done[0].1 <= 8 + 160 + 8 + 1);
    }

    #[test]
    fn perfect_dram_shortens_misses() {
        let mut fast = SharedMemSystem::new(SystemConfig {
            dram: DramConfig {
                perfect: true,
                ..Default::default()
            },
            ..Default::default()
        });
        let mut slow = SharedMemSystem::new(SystemConfig::default());
        for sys in [&mut fast, &mut slow] {
            sys.submit(load(1, 0x9000), 0);
        }
        let tf = drain(&mut fast, 1_000_000)[0].1;
        let ts = drain(&mut slow, 1_000_000)[0].1;
        assert!(tf < ts);
    }

    #[test]
    fn events_processed_in_time_order() {
        let mut sys = SharedMemSystem::new(SystemConfig::default());
        // Submit in reverse arrival order.
        sys.submit(load(2, 0x100), 50);
        sys.submit(load(1, 0x100), 0);
        let done = drain(&mut sys, 1_000_000);
        assert_eq!(done.len(), 2);
        assert!(sys.is_idle());
    }

    #[test]
    fn queued_submission_matches_direct_submission() {
        // The cycle loop's contract: queue-then-drain must be
        // indistinguishable from direct submission, including `seq` order.
        let reqs: Vec<MemRequest> = (0..4).map(|i| load(i, 0x1000 + i * 0x40)).collect();
        let mut direct = SharedMemSystem::new(SystemConfig::default());
        for r in &reqs {
            direct.submit(*r, 3);
        }
        let mut queued = SharedMemSystem::new(SystemConfig::default());
        let mut q = RequestQueue::new();
        for r in &reqs {
            MemSink::submit(&mut q, *r, 3);
        }
        assert_eq!(q.len(), 4);
        q.drain_into(&mut queued);
        assert!(q.is_empty());
        let a = direct.advance_to(1_000_000);
        let b = queued.advance_to(1_000_000);
        assert_eq!(a, b);
        assert_eq!(
            direct.stats.get("icnt.to_l2"),
            queued.stats.get("icnt.to_l2")
        );
    }

    #[test]
    fn injected_drop_swallows_exactly_one_completion() {
        let mut sys = SharedMemSystem::new(SystemConfig::default());
        sys.inject_drop_nth_completion(2);
        for id in 1..=3u64 {
            sys.submit(load(id, 0x1000 * id), 0);
        }
        let done = drain(&mut sys, 1_000_000);
        assert_eq!(done.len(), 2, "the 2nd completion was dropped");
        assert!(done.iter().all(|&(id, _)| id != done_victim(&done)));
        assert_eq!(sys.stats.get("mem.injected_drops"), 1);
        assert_eq!(sys.stats.get("icnt.from_l2"), 2);
        assert!(sys.is_idle(), "backend drains even with the drop");
    }

    /// The id absent from `done` among 1..=3.
    fn done_victim(done: &[(u64, u64)]) -> u64 {
        (1..=3u64)
            .find(|id| !done.iter().any(|&(d, _)| d == *id))
            .unwrap()
    }

    #[test]
    fn advance_to_respects_cycle_bound() {
        let mut sys = SharedMemSystem::new(SystemConfig::default());
        sys.submit(load(1, 0x100), 0);
        // Nothing can be complete after 1 cycle.
        assert!(sys.advance_to(1).is_empty());
        assert!(!sys.is_idle());
    }

    #[test]
    fn partitions_split_traffic_and_report_per_partition_counters() {
        let mut sys = SharedMemSystem::new(SystemConfig {
            num_partitions: 4,
            dram: DramConfig {
                channels: 8,
                ..Default::default()
            },
            ..Default::default()
        });
        assert_eq!(sys.num_partitions(), 4);
        // One request per partition (consecutive 128 B lines).
        for id in 0..4u64 {
            sys.submit(load(id, id * AddrMap::PARTITION_BYTES), 0);
        }
        let done = drain(&mut sys, 1_000_000);
        assert_eq!(done.len(), 4);
        assert!(sys.is_idle());
        let dram = sys.dram_stats();
        assert_eq!(dram.get("req"), 4, "merged totals sum the partitions");
        for i in 0..4 {
            assert_eq!(dram.get(&format!("p{i}.req")), 1, "partition {i}");
        }
        let l2 = sys.l2_stats();
        assert_eq!(l2.get("shader_load.miss_compulsory"), 4);
        assert_eq!(l2.get("p2.shader_load.miss_compulsory"), 1);
        // Independent partitions: all four cold misses complete together.
        assert!(done.iter().all(|&(_, t)| t == done[0].1));
    }

    #[test]
    fn single_partition_omits_per_partition_keys() {
        let mut sys = SharedMemSystem::new(SystemConfig::default());
        sys.submit(load(1, 0x40), 0);
        drain(&mut sys, 1_000_000);
        assert!(
            !sys.dram_stats().iter().any(|(k, _)| k.starts_with("p0.")),
            "golden key sets must not change at num_partitions = 1"
        );
    }

    #[test]
    fn aggregated_dram_rates_are_request_weighted() {
        // Asymmetric load: partition 0 sees 32 requests with high row
        // locality, partition 1 sees 2 requests with none. The aggregate
        // hit rate must be the ratio of sums, not the mean of rates.
        let mut sys = SharedMemSystem::new(SystemConfig {
            num_partitions: 2,
            ..Default::default()
        });
        let mut t = 0;
        for i in 0..32u64 {
            // Partition 0 (even 128 B lines), same row.
            sys.submit(load(i, i * 32 % 128 + (i / 4) * 256), t);
            t += 400;
            let _ = sys.advance_to(t);
        }
        // Partition 1 (odd 128 B lines), two far-apart rows.
        for (j, addr) in [(100u64, 128u64), (101, 128 + 65536)].into_iter() {
            sys.submit(load(j, addr), t);
            t += 4000;
            let _ = sys.advance_to(t);
        }
        assert!(sys.is_idle());
        let s = sys.dram_stats();
        let weighted = (s.get("p0.row_hit") + s.get("p1.row_hit")) as f64
            / (s.get("p0.req") + s.get("p1.req")) as f64;
        assert!((sys.dram_row_hit_rate() - weighted).abs() < 1e-12);
        let p0_rate = s.get("p0.row_hit") as f64 / s.get("p0.req") as f64;
        let p1_rate = s.get("p1.row_hit") as f64 / s.get("p1.req") as f64;
        let naive_mean = (p0_rate + p1_rate) / 2.0;
        assert!(
            (sys.dram_row_hit_rate() - naive_mean).abs() > 0.05,
            "asymmetric load must expose the weighting: weighted {weighted} vs mean {naive_mean}"
        );
    }

    #[test]
    fn fr_fcfs_backend_completes_and_drains() {
        let mut sys = SharedMemSystem::new(SystemConfig {
            num_partitions: 2,
            dram: DramConfig {
                sched: DramSched::fr_fcfs_paper(),
                ..Default::default()
            },
            ..Default::default()
        });
        for id in 0..16u64 {
            sys.submit(
                load(id, id * 4096 + (id % 2) * AddrMap::PARTITION_BYTES),
                id,
            );
        }
        let mut done = Vec::new();
        let mut t = 0;
        while !sys.is_idle() && t < 1_000_000 {
            t += 1;
            done.extend(sys.advance_to(t));
        }
        assert_eq!(done.len(), 16, "every FR-FCFS read completes");
        assert!(sys.is_idle());
        assert_eq!(sys.dram_stats().get("req"), 16);
    }

    #[test]
    fn bounded_ingress_refuses_when_full_and_recovers() {
        let mut sys = SharedMemSystem::new(SystemConfig {
            icnt_queue_depth: 2,
            ..Default::default()
        });
        assert!(sys.try_submit(load(1, 0x1000), 0));
        assert!(sys.try_submit(load(2, 0x2000), 0));
        assert_eq!(sys.ingress_occupancy(0), 2);
        assert!(
            !sys.try_submit(load(3, 0x3000), 0),
            "full partition refuses"
        );
        assert_eq!(sys.stats.get("icnt.refused"), 1);
        assert_eq!(sys.stats.get("icnt.to_l2"), 2, "refusals are not traffic");
        // Once the L2 consumes the requests the slots free up.
        let done = drain(&mut sys, 1_000_000);
        assert_eq!(done.len(), 2);
        assert_eq!(sys.ingress_occupancy(0), 0);
        assert!(sys.try_submit(load(3, 0x3000), 1_000_000));
    }

    #[test]
    fn depth_zero_try_submit_never_refuses() {
        let mut sys = SharedMemSystem::new(SystemConfig::default());
        for id in 0..64u64 {
            assert!(sys.try_submit(load(id, id * 0x40), 0));
        }
        assert_eq!(sys.stats.get("icnt.refused"), 0);
        assert_eq!(sys.stats.get("icnt.to_l2"), 64);
    }

    #[test]
    fn return_credits_serialize_simultaneous_completions() {
        // Three merged requests to one line complete together on the
        // unbounded return path; a single return credit spaces their
        // arrivals one interconnect hop apart.
        let run = |credits: u32| {
            let mut sys = SharedMemSystem::new(SystemConfig {
                icnt_return_credits: credits,
                ..Default::default()
            });
            for id in 1..=3 {
                sys.submit(load(id, 0x8000), 0);
            }
            drain(&mut sys, 1_000_000)
        };
        let free = run(0);
        assert!(free.iter().all(|&(_, t)| t == free[0].1));
        let tight = run(1);
        let times: Vec<u64> = tight.iter().map(|&(_, t)| t).collect();
        assert_eq!(times[0], free[0].1, "first completion pays no extra");
        assert_eq!(times[1], times[0] + 8, "second waits for the credit");
        assert_eq!(times[2], times[1] + 8);
    }

    #[test]
    fn bounded_bank_queues_backpressure_and_drain() {
        // A burst of misses to distinct rows of one bank overwhelms a
        // single-entry FR-FCFS bank queue: the bounded backend must retry
        // (counting `dram.bank_full_retries`) yet still complete
        // everything.
        let mut sys = SharedMemSystem::new(SystemConfig {
            icnt_queue_depth: 8,
            dram: DramConfig {
                channels: 1,
                banks_per_channel: 1,
                sched: DramSched::FrFcfs {
                    queue_depth: 1,
                    age_cap: 64,
                },
                ..Default::default()
            },
            ..Default::default()
        });
        let row_bytes = DramConfig::default().row_bytes;
        let mut q = RequestQueue::new();
        for id in 0..8u64 {
            MemSink::submit(&mut q, load(id, id * 16 * row_bytes), 0);
        }
        let mut done = Vec::new();
        let mut t = 0;
        while (!q.is_empty() || !sys.is_idle()) && t < 100_000 {
            q.drain_into(&mut sys);
            t += 1;
            done.extend(sys.advance_to(t));
        }
        assert_eq!(done.len(), 8, "every request completes despite refusals");
        assert!(sys.is_idle());
        assert!(
            sys.stats.get("dram.bank_full_retries") > 0,
            "the single-entry bank queue must have pushed back"
        );
        assert_eq!(sys.dram_stats().get("req"), 8);
    }

    /// Encodes a backend's dynamic state into fresh bytes.
    fn encode(sys: &SharedMemSystem) -> Vec<u8> {
        let mut e = vksim_snapshot::Enc::new();
        sys.save(&mut e);
        e.into_bytes()
    }

    #[test]
    fn backend_snapshot_round_trips_mid_flight() {
        // Freeze a bounded, multi-partition FR-FCFS backend mid-flight —
        // events pending, waiters outstanding, tickets in the scheduler,
        // ingress slots held — and check save -> load -> save is
        // byte-identical and the restored system completes exactly like
        // the original.
        let config = SystemConfig {
            num_partitions: 2,
            icnt_queue_depth: 4,
            icnt_return_credits: 2,
            dram: DramConfig {
                sched: DramSched::fr_fcfs_paper(),
                ..Default::default()
            },
            ..Default::default()
        };
        let mut sys = SharedMemSystem::new(config.clone());
        for id in 0..6u64 {
            sys.try_submit(
                load(id, id * 4096 + (id % 2) * AddrMap::PARTITION_BYTES),
                id,
            );
        }
        let mut done = sys.advance_to(40);
        assert!(!sys.is_idle(), "the freeze point must be mid-flight");

        let bytes = encode(&sys);
        let mut d = vksim_snapshot::Dec::new(&bytes);
        let mut restored = SharedMemSystem::load(config, &mut d).expect("restore");
        d.finish().expect("payload fully consumed");
        assert_eq!(encode(&restored), bytes, "re-encode is byte-identical");

        let mut t = 40;
        let mut done_r = done.clone();
        while t < 1_000_000 && (!sys.is_idle() || !restored.is_idle()) {
            t += 1;
            done.extend(sys.advance_to(t));
            done_r.extend(restored.advance_to(t));
        }
        assert_eq!(done.len(), 6);
        assert_eq!(done, done_r, "restored backend completes identically");
        assert_eq!(
            encode(&sys),
            encode(&restored),
            "final states converge byte-identically"
        );
    }

    #[test]
    fn backend_snapshot_rejects_mismatched_geometry() {
        let mut sys = SharedMemSystem::new(SystemConfig {
            num_partitions: 2,
            ..Default::default()
        });
        sys.submit(load(1, 0x40), 0);
        let bytes = encode(&sys);
        let mut d = vksim_snapshot::Dec::new(&bytes);
        let err = SharedMemSystem::load(SystemConfig::default(), &mut d).unwrap_err();
        assert!(matches!(err, vksim_snapshot::SnapError::Malformed(_)));
    }

    #[test]
    fn request_queue_snapshot_preserves_order() {
        let mut q = RequestQueue::new();
        for id in 0..3u64 {
            MemSink::submit(&mut q, load(id, 0x1000 + id * 0x40), 7 + id);
        }
        let mut e = vksim_snapshot::Enc::new();
        q.save(&mut e);
        let bytes = e.into_bytes();
        let mut d = vksim_snapshot::Dec::new(&bytes);
        let restored = RequestQueue::load(&mut d).expect("restore");
        d.finish().expect("consumed");
        let mut e2 = vksim_snapshot::Enc::new();
        restored.save(&mut e2);
        assert_eq!(e2.into_bytes(), bytes);
        assert_eq!(restored.len(), 3);
        assert!(restored.backlogged());
    }

    #[test]
    fn row_activates_carry_partition_and_global_channel() {
        let mut sys = SharedMemSystem::new(SystemConfig {
            num_partitions: 2,
            ..Default::default()
        });
        sys.set_trace(true);
        sys.submit(load(1, 0), 0);
        sys.submit(load(2, AddrMap::PARTITION_BYTES), 0);
        drain(&mut sys, 1_000_000);
        let acts = sys.take_row_activates();
        assert_eq!(acts.len(), 2);
        let parts: Vec<u32> = acts.iter().map(|a| a.1).collect();
        assert_eq!(parts, vec![0, 1]);
        let per_part_channels = DramConfig::default().channels / 2;
        assert!(acts[0].2 < per_part_channels);
        assert!(acts[1].2 >= per_part_channels, "global channel index");
    }
}
