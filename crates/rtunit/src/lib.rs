//! The RT unit: a per-SM ray-tracing accelerator timing model.
//!
//! Reproduces the performance model of paper §III-C. One RT unit exists per
//! SM and is treated like an execution unit with variable latency: when a
//! warp's `traverseAS` instruction issues, the warp enters the RT unit's
//! *Warp Buffer* and its per-thread traversal scripts (recorded by the
//! functional model) are replayed cycle by cycle:
//!
//! * a *Warp Scheduler* picks one resident warp per cycle,
//!   greedy-then-oldest (§III-C2);
//! * the *Memory Scheduler* collects the next node address from every ready
//!   thread in the selected warp, merges identical requests and pushes the
//!   unique set to the *Memory Access Queue*; one request per cycle is sent
//!   to the L1 data cache (or a dedicated RT cache) (§III-C3);
//! * returning data enters the *Response FIFO*; the *Operation Scheduler*
//!   forwards waiting threads to the pipelined ray-box / ray-triangle /
//!   transform *Operation Units*, which have fixed latency (§III-C4);
//! * each ray's traversal stack is an eight-entry short stack that spills
//!   into per-thread memory; the functional traversal writes each spill
//!   into the script as a store and each reload as a fetch.
//!
//! A warp completes when every thread finished its script; until then
//! finished threads idle — the source of the low RT-unit SIMT efficiency
//! the paper reports (§VI-B).

pub mod unit;

pub use unit::{
    RtMem, RtMemResult, RtUnit, RtUnitAnalytics, RtUnitEvent, RtUnitEventKind, WarpDone,
};
pub use vksim_bvh::{OpKind, Step};

use vksim_stats::{Counters, Histogram};

/// A whole warp's traversal work: one script per thread (empty scripts are
/// inactive lanes).
#[derive(Clone, Debug, Default)]
pub struct WarpJob {
    /// Identifier handed back on completion.
    pub warp_id: u32,
    /// Per-lane scripts.
    pub scripts: Vec<Vec<Step>>,
}

impl WarpJob {
    /// Number of lanes with non-empty scripts.
    pub fn active_lanes(&self) -> usize {
        self.scripts.iter().filter(|s| !s.is_empty()).count()
    }
}

vksim_snapshot::snap_struct!(WarpJob { warp_id, scripts });

/// RT unit configuration (paper Table III: 1 RT unit per SM, max warps 4
/// baseline, 32 of each operation unit, MSHR size 64).
#[derive(Clone, Debug, PartialEq)]
pub struct RtUnitConfig {
    /// Maximum co-resident warps (the Fig. 16 sweep varies 1-20).
    pub max_warps: usize,
    /// Ray-box unit pipeline latency (cycles).
    pub box_latency: u32,
    /// Ray-triangle unit pipeline latency.
    pub triangle_latency: u32,
    /// Transform unit pipeline latency.
    pub transform_latency: u32,
    /// Memory access queue capacity.
    pub mem_queue: usize,
    /// Requests issued from the queue to the cache per cycle.
    pub issue_per_cycle: usize,
}

impl Default for RtUnitConfig {
    fn default() -> Self {
        RtUnitConfig {
            max_warps: 4,
            box_latency: 4,
            triangle_latency: 8,
            transform_latency: 4,
            mem_queue: 64,
            issue_per_cycle: 1,
        }
    }
}

/// Aggregated RT-unit statistics used by the evaluation experiments.
#[derive(Clone, Debug, PartialEq)]
pub struct RtStatsBundle {
    /// Event counters (fetches, ops, spills, ...).
    pub counters: Counters,
    /// Warp residency latency histogram (Fig. 13), 1000-cycle bins.
    pub warp_latency: Histogram,
    /// Per-cycle active-ray samples (RT-unit SIMT efficiency, §VI-B).
    pub active_ray_cycles: u64,
    /// Cycles with at least one resident warp.
    pub busy_cycles: u64,
    /// Sum over busy cycles of resident warps (occupancy, Fig. 18).
    pub resident_warp_cycles: u64,
}

vksim_snapshot::snap_struct!(RtStatsBundle {
    counters,
    warp_latency,
    active_ray_cycles,
    busy_cycles,
    resident_warp_cycles
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warp_job_counts_active_lanes() {
        let job = WarpJob {
            warp_id: 0,
            scripts: vec![
                vec![Step::Fetch {
                    addr: 0,
                    size: 64,
                    op: OpKind::Box { tests: 2 },
                }],
                vec![],
            ],
        };
        assert_eq!(job.active_lanes(), 1);
    }

    #[test]
    fn default_config_matches_table_iii() {
        let c = RtUnitConfig::default();
        assert_eq!(c.max_warps, 4);
        assert_eq!(c.mem_queue, 64);
    }
}
