//! Banked DRAM timing model with open-row policy.
//!
//! Models what the Fig. 16 experiment measures: *DRAM efficiency* (cycles
//! transferring data out of cycles with pending requests) and *DRAM
//! utilization* (out of all cycles), plus row-buffer locality. Requests
//! arrive as the (channel, bank, row) the [`AddrMap`](crate::AddrMap)
//! decodes; each bank has an open-row policy: a request to the open row
//! pays only CAS latency; otherwise precharge + activate + CAS.
//!
//! Two memory-access schedulers are modelled ([`DramSched`]):
//!
//! * [`DramSched::Fcfs`] — strictly in arrival order (the historical path;
//!   goldens are recorded against it).
//! * [`DramSched::FrFcfs`] — first-ready, first-come-first-served (the
//!   scheduler GPGPU-Sim/Accel-Sim model): a bounded per-bank request
//!   queue where requests hitting the open row are serviced before older
//!   row misses, with an *age cap* as the starvation bound. Once the
//!   oldest request in a channel has waited `age_cap` cycles it is served
//!   next, so every request has a deterministic worst-case service cycle:
//!   with at most `k` older same-channel requests pending at arrival, a
//!   request completes within `age_cap + 2 * max_access * (k + 1)` cycles
//!   of its arrival, where `max_access = t_rp + t_rcd + t_cas +
//!   burst_cycles`. With `age_cap = 0` the age rule fires on every
//!   decision, which degenerates to exactly the FCFS schedule.

use crate::DramLoc;
use std::collections::VecDeque;
use vksim_snapshot::{Dec, Snap, SnapError};
use vksim_stats::Counters;

/// DRAM memory-access scheduling policy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DramSched {
    /// In-order service at arrival (the original model; golden continuity).
    #[default]
    Fcfs,
    /// First-ready FCFS with a bounded reorder window and starvation bound.
    FrFcfs {
        /// Per-bank reorder window: only the first `queue_depth` queued
        /// requests of a bank are eligible to bypass older ones.
        queue_depth: u32,
        /// Starvation bound in cycles: once the oldest request of a channel
        /// has waited this long it is unconditionally served next. `0`
        /// reproduces the FCFS schedule cycle-for-cycle.
        age_cap: u64,
    },
}

impl DramSched {
    /// The FR-FCFS configuration used at paper scale (Table III-class
    /// partitions): a 16-deep reorder window and a 2048-cycle age cap.
    pub fn fr_fcfs_paper() -> Self {
        DramSched::FrFcfs {
            queue_depth: 16,
            age_cap: 2048,
        }
    }
}

/// Outcome of [`Dram::submit`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DramIssue {
    /// Serviced in-order at submit; data ready at the given cycle.
    Done(u64),
    /// Queued for out-of-order scheduling; the ticket is redeemed by
    /// [`Dram::run_schedule`].
    Queued(u64),
}

/// DRAM geometry and timing (in memory-clock cycles).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DramConfig {
    /// Number of channels (memory partitions).
    pub channels: u32,
    /// Banks per channel.
    pub banks_per_channel: u32,
    /// Row size in bytes.
    pub row_bytes: u64,
    /// Column access latency (row already open).
    pub t_cas: u64,
    /// Row activate latency.
    pub t_rcd: u64,
    /// Precharge latency.
    pub t_rp: u64,
    /// Cycles the channel data bus is busy per 32 B chunk.
    pub burst_cycles: u64,
    /// Zero-latency mode (the Fig. 15 "Perfect Mem" limit study).
    pub perfect: bool,
    /// Memory-access scheduling policy.
    pub sched: DramSched,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            channels: 6,
            banks_per_channel: 16,
            row_bytes: 2048,
            t_cas: 20,
            t_rcd: 20,
            t_rp: 20,
            burst_cycles: 2,
            perfect: false,
            sched: DramSched::Fcfs,
        }
    }
}

impl DramConfig {
    /// A mobile-class memory system: fewer channels, same timings (the
    /// paper's mobile configuration has less DRAM bandwidth).
    pub fn mobile() -> Self {
        DramConfig {
            channels: 2,
            ..Default::default()
        }
    }

    /// Worst-case single-access occupancy: precharge + activate + CAS +
    /// burst. The FR-FCFS starvation bound is stated in these units.
    pub fn max_access_cycles(&self) -> u64 {
        self.t_rp + self.t_rcd + self.t_cas + self.burst_cycles
    }
}

/// One request queued at a bank, waiting for the FR-FCFS scheduler.
#[derive(Clone, Copy, Debug)]
struct Pending {
    ticket: u64,
    row: u64,
    arrival: u64,
}

#[derive(Clone, Debug, Default)]
struct Bank {
    open_row: Option<u64>,
    ready_at: u64,
    queue: VecDeque<Pending>,
}

#[derive(Clone, Debug, Default)]
struct Channel {
    banks: Vec<Bank>,
    bus_free_at: u64,
    // Union-of-intervals tracking for the efficiency denominator.
    active_window_end: u64,
    active_cycles: u64,
    transfer_cycles: u64,
}

vksim_snapshot::snap_struct!(Pending {
    ticket,
    row,
    arrival
});
vksim_snapshot::snap_struct!(Bank {
    open_row,
    ready_at,
    queue
});
vksim_snapshot::snap_struct!(Channel {
    banks,
    bus_free_at,
    active_window_end,
    active_cycles,
    transfer_cycles
});

/// The DRAM device array.
///
/// # Example
///
/// ```
/// use vksim_mem::{AddrMap, Dram, DramConfig, SystemConfig};
/// let map = AddrMap::new(&SystemConfig::default());
/// let mut d = Dram::new(DramConfig::default());
/// let done = d.service(map.dram(0x1000), 0);
/// assert!(done > 0);
/// // Same row, immediately after: row hit is cheaper.
/// let done2 = d.service(map.dram(0x1020), done);
/// assert!(done2 - done < done);
/// ```
#[derive(Clone, Debug)]
pub struct Dram {
    config: DramConfig,
    channels: Vec<Channel>,
    /// Row-hit/miss and traffic counters.
    pub stats: Counters,
    /// Row-activate trace buffer: `(cycle, channel, bank)` per activate
    /// command, recorded only while tracing is enabled.
    row_activates: Option<Vec<(u64, u32, u32)>>,
    /// FR-FCFS ticket counter (0 = no ticket issued yet).
    next_ticket: u64,
    /// Latest arrival cycle seen by [`Dram::submit`] (monotonicity check).
    last_arrival: u64,
    /// Earliest service start of any pending FR-FCFS decision, as found by
    /// the last [`Dram::run_schedule`] scan (`u64::MAX` with nothing
    /// queued). Decisions depend only on queue, bank and bus state, so a
    /// horizon below it has nothing to schedule; `None` once a submission
    /// or an access may have changed that state. Derived: not part of the
    /// snapshot.
    next_start: Option<u64>,
}

impl Dram {
    /// Creates an idle DRAM array.
    ///
    /// # Panics
    ///
    /// Panics on a zero-channel or zero-bank configuration, and on an
    /// FR-FCFS configuration with a zero queue depth (a zero-wide reorder
    /// window has no schedulable requests). Config validation in
    /// `vksim-core` rejects a zero bank count, a zero depth and zero-byte
    /// rows with a structured error before they can reach this point.
    pub fn new(config: DramConfig) -> Self {
        assert!(
            config.channels > 0 && config.banks_per_channel > 0,
            "degenerate DRAM geometry"
        );
        assert!(
            !matches!(config.sched, DramSched::FrFcfs { queue_depth: 0, .. }),
            "degenerate FR-FCFS queue depth"
        );
        let channels = (0..config.channels)
            .map(|_| Channel {
                banks: vec![Bank::default(); config.banks_per_channel as usize],
                ..Channel::default()
            })
            .collect();
        Dram {
            config,
            channels,
            stats: Counters::new(),
            row_activates: None,
            next_ticket: 0,
            last_arrival: 0,
            next_start: None,
        }
    }

    /// Enables (or disables) row-activate event recording. Off by default;
    /// the buffer only exists while a trace consumer is attached.
    pub fn set_trace(&mut self, enabled: bool) {
        self.row_activates = if enabled { Some(Vec::new()) } else { None };
    }

    /// Drains the recorded `(cycle, channel, bank)` row activates.
    pub fn take_row_activates(&mut self) -> Vec<(u64, u32, u32)> {
        self.row_activates
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// The configuration in use.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Performs one access on `(ch_idx, bank_idx)` for a request that
    /// arrived at `arrival`, starting as soon as the bank and channel bus
    /// allow. Updates row state, counters, the activate trace and the
    /// efficiency bookkeeping; returns the completion cycle.
    fn do_access(&mut self, ch_idx: usize, bank_idx: usize, row: u64, arrival: u64) -> u64 {
        let DramConfig {
            t_cas,
            t_rcd,
            t_rp,
            burst_cycles,
            ..
        } = self.config;
        let ch = &mut self.channels[ch_idx];
        let bank = &mut ch.banks[bank_idx];

        let start = arrival.max(bank.ready_at).max(ch.bus_free_at);
        let (access_lat, activated) = match bank.open_row {
            Some(r) if r == row => {
                self.stats.inc("row_hit");
                (t_cas, false)
            }
            Some(_) => {
                self.stats.inc("row_miss");
                (t_rp + t_rcd + t_cas, true)
            }
            None => {
                self.stats.inc("row_empty");
                (t_rcd + t_cas, true)
            }
        };
        if activated {
            if let Some(buf) = self.row_activates.as_mut() {
                buf.push((start, ch_idx as u32, bank_idx as u32));
            }
        }
        bank.open_row = Some(row);
        let data_start = start + access_lat;
        let done = data_start + burst_cycles;
        bank.ready_at = done;
        ch.bus_free_at = done;
        self.next_start = None;

        // Efficiency bookkeeping: the active window is the union of
        // [arrival, done] intervals; transfer cycles are the burst slots.
        let window_start = arrival.max(ch.active_window_end);
        if done > window_start {
            ch.active_cycles += done - window_start;
            ch.active_window_end = done;
        }
        ch.transfer_cycles += burst_cycles;
        self.stats.inc("req");
        done
    }

    /// Services one 32 B chunk read at `loc` arriving at `now` strictly in
    /// call order (the FCFS path); returns the absolute cycle its data is
    /// available.
    pub fn service(&mut self, loc: DramLoc, now: u64) -> u64 {
        if self.config.perfect {
            self.stats.inc("req");
            return now + 1;
        }
        self.do_access(loc.channel as usize, loc.bank as usize, loc.row, now)
    }

    /// Submits one 32 B chunk request at `loc` arriving at `now` under the
    /// configured scheduler. FCFS (and perfect) configurations service it
    /// immediately and return [`DramIssue::Done`]; FR-FCFS queues it at its
    /// bank and returns a [`DramIssue::Queued`] ticket that
    /// [`Dram::run_schedule`] later redeems.
    ///
    /// FR-FCFS requires nondecreasing arrival cycles across submissions
    /// (the event-driven memory system guarantees this).
    pub fn submit(&mut self, loc: DramLoc, now: u64) -> DramIssue {
        if self.config.perfect || self.config.sched == DramSched::Fcfs {
            return DramIssue::Done(self.service(loc, now));
        }
        self.next_ticket += 1;
        let ticket = self.next_ticket;
        debug_assert!(
            now >= self.last_arrival,
            "FR-FCFS arrivals must be nondecreasing"
        );
        self.last_arrival = self.last_arrival.max(now);
        self.next_start = None;
        self.channels[loc.channel as usize].banks[loc.bank as usize]
            .queue
            .push_back(Pending {
                ticket,
                row: loc.row,
                arrival: now,
            });
        DramIssue::Queued(ticket)
    }

    /// Offers one 32 B chunk request at `loc` arriving at `now`, honouring the
    /// bounded bank queues: an FR-FCFS submission whose target bank
    /// already holds `queue_depth` pending requests is refused (`None`)
    /// without consuming a ticket, back-pressuring the L2 slice. FCFS and
    /// perfect configurations never refuse.
    pub fn try_submit(&mut self, loc: DramLoc, now: u64) -> Option<DramIssue> {
        let depth = match self.config.sched {
            DramSched::FrFcfs { queue_depth, .. } if !self.config.perfect => queue_depth as usize,
            _ => return Some(self.submit(loc, now)),
        };
        let bank = &self.channels[loc.channel as usize].banks[loc.bank as usize];
        (bank.queue.len() < depth).then(|| self.submit(loc, now))
    }

    /// `true` while FR-FCFS requests are still queued (drain check).
    pub fn has_queued(&self) -> bool {
        self.channels
            .iter()
            .any(|ch| ch.banks.iter().any(|b| !b.queue.is_empty()))
    }

    /// Finalizes every FR-FCFS scheduling decision whose service start is
    /// `<= horizon` and returns the `(ticket, completion cycle)` pairs, in
    /// decision order. Safe to call with any nondecreasing sequence of
    /// horizons: a decision at start `s` only depends on requests arriving
    /// at or before `s`, and callers never submit an arrival in the past.
    pub fn run_schedule(&mut self, horizon: u64) -> Vec<(u64, u64)> {
        let (depth, age_cap) = match self.config.sched {
            DramSched::FrFcfs {
                queue_depth,
                age_cap,
                // The constructor rejects depth 0, so the first-ready
                // window below is never empty while requests are queued.
            } => (queue_depth as usize, age_cap),
            DramSched::Fcfs => return Vec::new(),
        };
        if !self.schedule_due(horizon) {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut next_start = u64::MAX;
        for ch_idx in 0..self.channels.len() {
            loop {
                // The oldest pending request of the channel (min ticket =
                // min arrival; per-bank queues are FIFO and arrivals are
                // globally nondecreasing).
                let ch = &self.channels[ch_idx];
                let bus = ch.bus_free_at;
                let oldest = ch
                    .banks
                    .iter()
                    .enumerate()
                    .filter_map(|(bi, b)| b.queue.front().map(|p| (p.ticket, bi)))
                    .min();
                let Some((_, oldest_bank)) = oldest else {
                    break;
                };
                let old = self.channels[ch_idx].banks[oldest_bank].queue[0];
                let s_old = old
                    .arrival
                    .max(self.channels[ch_idx].banks[oldest_bank].ready_at)
                    .max(bus);

                // Starvation bound: once the channel's oldest request has
                // waited out the age cap it is served next, unconditionally.
                // age_cap = 0 makes this fire on every decision = FCFS.
                let (bank_idx, pos) = if s_old.saturating_sub(old.arrival) >= age_cap {
                    (oldest_bank, 0)
                } else {
                    // First-ready: the earliest cycle any windowed request
                    // could start...
                    let ch = &self.channels[ch_idx];
                    let t_d = ch
                        .banks
                        .iter()
                        .flat_map(|b| {
                            let ready = b.ready_at;
                            b.queue
                                .iter()
                                .take(depth)
                                .map(move |p| p.arrival.max(ready).max(bus))
                        })
                        .min()
                        .expect("nonempty channel queue");
                    // ...then, among requests startable exactly then, a row
                    // hit beats a miss and age breaks ties.
                    let victim = ch
                        .banks
                        .iter()
                        .enumerate()
                        .flat_map(|(bi, b)| {
                            let ready = b.ready_at;
                            let open = b.open_row;
                            b.queue
                                .iter()
                                .take(depth)
                                .enumerate()
                                .filter(move |(_, p)| p.arrival.max(ready).max(bus) == t_d)
                                .map(move |(pos, p)| (open != Some(p.row), p.ticket, bi, pos))
                        })
                        .min()
                        .expect("t_d comes from a real candidate");
                    (victim.2, victim.3)
                };
                let p = self.channels[ch_idx].banks[bank_idx].queue[pos];
                let start = p
                    .arrival
                    .max(self.channels[ch_idx].banks[bank_idx].ready_at)
                    .max(bus);
                if start > horizon {
                    next_start = next_start.min(start);
                    break;
                }
                self.channels[ch_idx].banks[bank_idx].queue.remove(pos);
                let done = self.do_access(ch_idx, bank_idx, p.row, p.arrival);
                out.push((p.ticket, done));
            }
        }
        self.next_start = Some(next_start);
        out
    }

    /// `false` when [`Dram::run_schedule`] up to `horizon` would finalize
    /// nothing: FCFS, or below the earliest start the last scan left pending.
    pub fn schedule_due(&self, horizon: u64) -> bool {
        matches!(self.config.sched, DramSched::FrFcfs { .. })
            && self.next_start.is_none_or(|start| horizon >= start)
    }

    /// Cycles spent transferring data, summed over channels.
    pub fn transfer_cycles(&self) -> u64 {
        self.channels.iter().map(|c| c.transfer_cycles).sum()
    }

    /// Cycles in which at least one request was in flight (per-channel
    /// union), summed over channels.
    pub fn active_cycles(&self) -> u64 {
        self.channels.iter().map(|c| c.active_cycles).sum()
    }
}

/// Replaces `channels` with the snapshot's, provided they have the
/// geometry the resuming configuration built.
fn load_channels(channels: &mut Vec<Channel>, d: &mut Dec<'_>) -> Result<(), SnapError> {
    let banks =
        |channels: &[Channel]| -> Vec<usize> { channels.iter().map(|ch| ch.banks.len()).collect() };
    let loaded = Vec::<Channel>::load(d)?;
    if banks(&loaded) != banks(channels) {
        return Err(SnapError::Malformed(format!(
            "snapshot DRAM has {:?} banks per channel, {:?} configured",
            banks(&loaded),
            banks(channels)
        )));
    }
    *channels = loaded;
    Ok(())
}

// Geometry comes from the resuming configuration, not the file;
// `next_start` is derived and starts over.
vksim_snapshot::snap_state!(Dram {
    channels: with(Snap::save, |channels, d| {
        *next_start = None;
        load_channels(channels, d)
    }),
    stats,
    row_activates,
    next_ticket,
    last_arrival,
} skip { config, next_start });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AddrMap, SystemConfig};

    /// `addr`'s coordinates in `d`, decoded by a one-partition map.
    fn loc(d: &Dram, addr: u64) -> DramLoc {
        let dram = d.config().clone();
        AddrMap::new(&SystemConfig {
            dram,
            ..SystemConfig::default()
        })
        .dram(addr)
    }

    #[test]
    fn row_hit_is_cheaper_than_row_miss() {
        // Single channel, single bank: every access shares the row buffer.
        let mut d = Dram::new(DramConfig {
            channels: 1,
            banks_per_channel: 1,
            ..Default::default()
        });
        let t1 = d.service(loc(&d, 0x0000), 0);
        let t2 = d.service(loc(&d, 0x0020), t1); // same row
        let row_hit_cost = t2 - t1;
        let t3 = d.service(loc(&d, d.config().row_bytes * 5), t2); // different row
        let row_miss_cost = t3 - t2;
        assert!(
            row_miss_cost > row_hit_cost,
            "{row_miss_cost} <= {row_hit_cost}"
        );
        assert_eq!(d.stats.get("row_hit"), 1);
        assert_eq!(d.stats.get("row_miss"), 1);
        assert_eq!(d.stats.get("row_empty"), 1);
    }

    #[test]
    fn channels_serve_in_parallel() {
        let mut d = Dram::new(DramConfig::default());
        // Two chunks 256 B apart map to different channels, both at cycle 0.
        let t_a = d.service(loc(&d, 0), 0);
        let t_b = d.service(loc(&d, 256), 0);
        // Independent channels: neither waits for the other.
        assert_eq!(t_a, t_b);
    }

    #[test]
    fn same_channel_serializes_on_bus() {
        let mut d = Dram::new(DramConfig::default());
        let t_a = d.service(loc(&d, 0), 0);
        let t_b = d.service(loc(&d, 32), 0); // same 256 B block -> same channel
        assert!(t_b > t_a, "bus contention must serialize");
    }

    #[test]
    fn perfect_mode_is_single_cycle() {
        let mut d = Dram::new(DramConfig {
            perfect: true,
            ..Default::default()
        });
        assert_eq!(d.service(loc(&d, 0x123456), 77), 78);
        assert_eq!(d.transfer_cycles(), 0);
    }

    #[test]
    fn efficiency_and_utilization_bounds() {
        let mut d = Dram::new(DramConfig::default());
        let mut t = 0;
        for i in 0..100u64 {
            t = d.service(loc(&d, i * 32), t);
        }
        let transfer = d.transfer_cycles() as f64;
        let eff = transfer / d.active_cycles() as f64;
        assert!(eff > 0.0 && eff <= 1.0, "efficiency {eff}");
        let util = transfer / (t * d.config().channels as u64) as f64;
        assert!(util > 0.0 && util <= 1.0, "utilization {util}");
        // With back-to-back demand, efficiency >= utilization.
        assert!(eff >= util);
    }

    #[test]
    fn efficiency_exceeds_utilization_under_sparse_demand() {
        // Sparse demand: requests arrive far apart, so most cycles have no
        // pending work. Efficiency only counts pending windows, so it stays
        // much higher than utilization — exactly the Fig. 16 distinction.
        let mut sparse = Dram::new(DramConfig::default());
        for i in 0..50u64 {
            sparse.service(loc(&sparse, i * 32), i * 1000);
        }
        let total = 50_000;
        let transfer = sparse.transfer_cycles() as f64;
        let efficiency = transfer / sparse.active_cycles() as f64;
        let utilization = transfer / (total * sparse.config().channels as u64) as f64;
        assert!(efficiency > utilization * 5.0);
    }

    #[test]
    fn row_activate_trace_matches_counters() {
        let mut d = Dram::new(DramConfig {
            channels: 1,
            banks_per_channel: 1,
            ..Default::default()
        });
        // Disabled by default: no events recorded.
        d.service(loc(&d, 0x0000), 0);
        assert!(d.take_row_activates().is_empty());
        d.set_trace(true);
        let t1 = d.service(loc(&d, 0x0020), 100); // row hit: no activate
        d.service(loc(&d, d.config().row_bytes * 3), t1); // row miss: activate
        let evs = d.take_row_activates();
        assert_eq!(evs.len(), 1);
        assert_eq!((evs[0].1, evs[0].2), (0, 0));
        assert!(d.take_row_activates().is_empty(), "take drains the buffer");
    }

    #[test]
    fn mobile_config_has_fewer_channels() {
        let m = DramConfig::mobile();
        assert!(m.channels < DramConfig::default().channels);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_channels_panics() {
        let _ = Dram::new(DramConfig {
            channels: 0,
            ..Default::default()
        });
    }

    #[test]
    #[should_panic(expected = "degenerate FR-FCFS queue depth")]
    fn zero_fr_fcfs_depth_panics() {
        // The historical behaviour silently clamped depth 0 to 1,
        // rewriting the model the caller asked for; it is now rejected.
        let _ = Dram::new(DramConfig {
            sched: DramSched::FrFcfs {
                queue_depth: 0,
                age_cap: 0,
            },
            ..Default::default()
        });
    }

    #[test]
    fn try_submit_refuses_full_bank_without_a_ticket() {
        let mut d = Dram::new(fr_fcfs(2, 1 << 40));
        let row = d.config().row_bytes;
        // Two same-bank requests fill the depth-2 queue...
        assert!(matches!(
            d.try_submit(loc(&d, 0), 0),
            Some(DramIssue::Queued(1))
        ));
        assert!(matches!(
            d.try_submit(loc(&d, 2 * row), 0),
            Some(DramIssue::Queued(2))
        ));
        // ...the third is refused and must not burn a ticket. Row 1 maps
        // to bank 1 of 2 — a different, non-full queue — so it still gets
        // the next ticket in sequence.
        assert_eq!(d.try_submit(loc(&d, 4 * row), 0), None);
        assert!(matches!(
            d.try_submit(loc(&d, row), 0),
            Some(DramIssue::Queued(3))
        ));
        // Draining the bank reopens it.
        let served = d.run_schedule(u64::MAX);
        assert_eq!(served.len(), 3);
        assert!(matches!(
            d.try_submit(loc(&d, 4 * row), served[2].1),
            Some(DramIssue::Queued(4))
        ));
    }

    #[test]
    fn try_submit_never_refuses_fcfs_or_perfect() {
        let mut fcfs = Dram::new(DramConfig::default());
        let mut perfect = Dram::new(DramConfig {
            perfect: true,
            sched: DramSched::fr_fcfs_paper(),
            ..Default::default()
        });
        for i in 0..64u64 {
            assert!(matches!(
                fcfs.try_submit(loc(&fcfs, 0), i),
                Some(DramIssue::Done(_))
            ));
            assert!(matches!(
                perfect.try_submit(loc(&perfect, 0), i),
                Some(DramIssue::Done(_))
            ));
        }
    }

    fn fr_fcfs(depth: u32, cap: u64) -> DramConfig {
        DramConfig {
            channels: 1,
            banks_per_channel: 2,
            sched: DramSched::FrFcfs {
                queue_depth: depth,
                age_cap: cap,
            },
            ..Default::default()
        }
    }

    #[test]
    fn fr_fcfs_serves_row_hit_before_older_miss() {
        let mut d = Dram::new(fr_fcfs(16, 1 << 40));
        let row = d.config().row_bytes;
        // Open row 0 in bank 0.
        assert!(matches!(d.submit(loc(&d, 0), 0), DramIssue::Queued(1)));
        let first = d.run_schedule(u64::MAX);
        assert_eq!(first.len(), 1);
        // Now queue an older row miss (row 2 -> bank 0) and a younger hit
        // to the open row 0; the hit must be scheduled first.
        let t = first[0].1;
        assert!(matches!(
            d.submit(loc(&d, 2 * row), t),
            DramIssue::Queued(2)
        ));
        assert!(matches!(d.submit(loc(&d, 32), t), DramIssue::Queued(3)));
        let order: Vec<u64> = d.run_schedule(u64::MAX).iter().map(|&(tk, _)| tk).collect();
        assert_eq!(order, vec![3, 2], "row hit bypasses the older miss");
        assert!(!d.has_queued());
    }

    #[test]
    fn fr_fcfs_age_cap_zero_is_cycle_identical_to_fcfs() {
        // A row-locality-rich stream with bank conflicts mixed in.
        let addrs: Vec<u64> = (0..64u64)
            .map(|i| {
                if i % 3 == 0 {
                    i * 32
                } else {
                    (i % 7) * 4096 + i * 32
                }
            })
            .collect();
        let mut fcfs = Dram::new(DramConfig {
            channels: 2,
            ..Default::default()
        });
        let mut frf = Dram::new(DramConfig {
            channels: 2,
            sched: DramSched::FrFcfs {
                queue_depth: 16,
                age_cap: 0,
            },
            ..Default::default()
        });
        let mut expect = Vec::new();
        for (i, &a) in addrs.iter().enumerate() {
            let now = 3 * i as u64;
            expect.push(fcfs.service(loc(&fcfs, a), now));
            assert!(matches!(
                frf.submit(loc(&frf, a), now),
                DramIssue::Queued(_)
            ));
        }
        let mut got: Vec<(u64, u64)> = frf.run_schedule(u64::MAX);
        got.sort_by_key(|&(ticket, _)| ticket);
        let got: Vec<u64> = got.iter().map(|&(_, done)| done).collect();
        assert_eq!(got, expect, "age cap 0 must reproduce the FCFS schedule");
        assert_eq!(fcfs.stats, frf.stats);
    }

    #[test]
    fn fr_fcfs_horizon_defers_future_decisions() {
        let mut d = Dram::new(fr_fcfs(16, 1 << 40));
        assert!(matches!(d.submit(loc(&d, 0), 100), DramIssue::Queued(_)));
        assert!(d.run_schedule(99).is_empty(), "not arrived yet");
        assert!(d.has_queued());
        let done = d.run_schedule(100);
        assert_eq!(done.len(), 1);
        assert!(done[0].1 > 100);
    }

    #[test]
    fn fr_fcfs_starvation_bound_holds_under_hostile_hits() {
        // Bank 0 gets a steady stream of row hits; one row miss to the same
        // bank must still be served within the age cap.
        let cap = 500;
        let mut d = Dram::new(fr_fcfs(16, cap));
        let row_bytes = d.config().row_bytes;
        assert!(matches!(d.submit(loc(&d, 0), 0), DramIssue::Queued(1)));
        // The victim: a row miss in bank 0, one older request ahead of it.
        let DramIssue::Queued(victim) = d.submit(loc(&d, 2 * row_bytes), 1) else {
            panic!("expected queued ticket");
        };
        for i in 1..40u64 {
            // Row hits to the open row 0, arriving steadily.
            d.submit(loc(&d, (i % 8) * 32), 2 * i + 1);
        }
        let done = d.run_schedule(u64::MAX);
        let victim_done = done.iter().find(|&&(t, _)| t == victim).unwrap().1;
        // k = 1 older same-channel request at arrival:
        // bound = age_cap + 2 * max_access * (k + 1).
        let bound = cap + 2 * d.config().max_access_cycles() * 2;
        assert!(
            victim_done <= 1 + bound,
            "miss served at {victim_done}, bound {bound}"
        );
    }
}
