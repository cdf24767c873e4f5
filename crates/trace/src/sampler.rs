//! The interval metrics sampler's data model.
//!
//! The engine snapshots *cumulative* raw counters every interval; the
//! collector differences consecutive snapshots into [`IntervalRecord`]s.
//! Derived metrics (IPC, hit rates, bandwidth) are computed at export time
//! from the integer deltas, so the recorded data stays exact and the
//! sampler itself never touches floating point.

/// Cumulative raw counters at one instant. All fields are monotonically
/// nondecreasing over a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IntervalSnapshot {
    /// Instructions issued across all SMs.
    pub issued_insts: u64,
    /// L1 hits summed over SMs (shader + RT sources).
    pub l1_hits: u64,
    /// L1 classified misses summed over SMs.
    pub l1_misses: u64,
    /// Shared L2 hits.
    pub l2_hits: u64,
    /// Shared L2 classified misses.
    pub l2_misses: u64,
    /// DRAM requests serviced.
    pub dram_reqs: u64,
    /// DRAM data-bus busy cycles.
    pub dram_transfer_cycles: u64,
    /// RT-unit resident warp-cycles summed over SMs.
    pub rt_resident_warp_cycles: u64,
    /// RT-unit busy cycles summed over SMs.
    pub rt_busy_cycles: u64,
}

impl IntervalSnapshot {
    /// Per-field difference `self - prev`, plus the number of fields that
    /// went backwards. Every field is documented as monotonically
    /// nondecreasing, so a nonzero underflow count is a counter bug in
    /// the engine; the subtraction still saturates (never panics) and the
    /// caller decides how to surface the diagnosis — the collector
    /// debug-asserts and keeps a `trace.sampler_underflow` tally for
    /// release builds.
    pub fn delta_from(&self, prev: &IntervalSnapshot) -> (IntervalSnapshot, u64) {
        let mut underflows = 0u64;
        let mut sub = |cur: u64, old: u64| {
            if cur < old {
                underflows += 1;
            }
            cur.saturating_sub(old)
        };
        let d = IntervalSnapshot {
            issued_insts: sub(self.issued_insts, prev.issued_insts),
            l1_hits: sub(self.l1_hits, prev.l1_hits),
            l1_misses: sub(self.l1_misses, prev.l1_misses),
            l2_hits: sub(self.l2_hits, prev.l2_hits),
            l2_misses: sub(self.l2_misses, prev.l2_misses),
            dram_reqs: sub(self.dram_reqs, prev.dram_reqs),
            dram_transfer_cycles: sub(self.dram_transfer_cycles, prev.dram_transfer_cycles),
            rt_resident_warp_cycles: sub(
                self.rt_resident_warp_cycles,
                prev.rt_resident_warp_cycles,
            ),
            rt_busy_cycles: sub(self.rt_busy_cycles, prev.rt_busy_cycles),
        };
        (d, underflows)
    }
}

/// One sampled interval: `[start, start + len)` plus the counter deltas
/// accumulated inside it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IntervalRecord {
    /// First cycle of the interval.
    pub start: u64,
    /// Interval length in cycles (the tail interval may be short).
    pub len: u64,
    /// Counter deltas within the interval.
    pub delta: IntervalSnapshot,
}

vksim_snapshot::snap_struct!(IntervalSnapshot {
    issued_insts,
    l1_hits,
    l1_misses,
    l2_hits,
    l2_misses,
    dram_reqs,
    dram_transfer_cycles,
    rt_resident_warp_cycles,
    rt_busy_cycles
});
vksim_snapshot::snap_struct!(IntervalRecord { start, len, delta });

impl IntervalRecord {
    /// Instructions per cycle within the interval.
    pub fn ipc(&self) -> f64 {
        ratio(self.delta.issued_insts, self.len)
    }

    /// L1 hit rate within the interval (0 when idle).
    pub fn l1_hit_rate(&self) -> f64 {
        ratio(
            self.delta.l1_hits,
            self.delta.l1_hits + self.delta.l1_misses,
        )
    }

    /// L2 hit rate within the interval (0 when idle).
    pub fn l2_hit_rate(&self) -> f64 {
        ratio(
            self.delta.l2_hits,
            self.delta.l2_hits + self.delta.l2_misses,
        )
    }

    /// DRAM data-bus busy fraction per channel-cycle is left to callers
    /// (they know the channel count); this is busy cycles per core cycle.
    pub fn dram_bw(&self) -> f64 {
        ratio(self.delta.dram_transfer_cycles, self.len)
    }

    /// Mean RT-unit resident warps over the interval, summed across SMs.
    pub fn rt_occupancy(&self) -> f64 {
        ratio(self.delta.rt_resident_warp_cycles, self.len)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_is_fieldwise_and_saturating() {
        let a = IntervalSnapshot {
            issued_insts: 10,
            l1_hits: 5,
            ..Default::default()
        };
        let b = IntervalSnapshot {
            issued_insts: 25,
            l1_hits: 3, // went "backwards": saturates to 0, never panics
            ..Default::default()
        };
        let (d, underflows) = b.delta_from(&a);
        assert_eq!(d.issued_insts, 15);
        assert_eq!(d.l1_hits, 0);
        assert_eq!(underflows, 1, "the regression is reported, not masked");
    }

    #[test]
    fn monotonic_delta_reports_no_underflow() {
        let a = IntervalSnapshot {
            issued_insts: 10,
            l1_hits: 5,
            ..Default::default()
        };
        let b = IntervalSnapshot {
            issued_insts: 25,
            l1_hits: 5,
            ..Default::default()
        };
        let (_, underflows) = b.delta_from(&a);
        assert_eq!(underflows, 0);
    }

    #[test]
    fn derived_metrics_handle_idle_intervals() {
        let idle = IntervalRecord {
            start: 0,
            len: 100,
            delta: IntervalSnapshot::default(),
        };
        assert_eq!(idle.ipc(), 0.0);
        assert_eq!(idle.l1_hit_rate(), 0.0);
        assert_eq!(idle.rt_occupancy(), 0.0);
    }

    #[test]
    fn derived_metrics_compute_ratios() {
        let r = IntervalRecord {
            start: 0,
            len: 1000,
            delta: IntervalSnapshot {
                issued_insts: 2500,
                l1_hits: 75,
                l1_misses: 25,
                l2_hits: 10,
                l2_misses: 30,
                dram_transfer_cycles: 200,
                rt_resident_warp_cycles: 4000,
                ..Default::default()
            },
        };
        assert!((r.ipc() - 2.5).abs() < 1e-12);
        assert!((r.l1_hit_rate() - 0.75).abs() < 1e-12);
        assert!((r.l2_hit_rate() - 0.25).abs() < 1e-12);
        assert!((r.dram_bw() - 0.2).abs() < 1e-12);
        assert!((r.rt_occupancy() - 4.0).abs() < 1e-12);
    }
}
