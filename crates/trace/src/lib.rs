//! Cycle-level observability for the timing model.
//!
//! Aggregate end-of-run counters (`vksim-stats`) answer *how much*; this
//! crate answers *when*. It provides three layers, all off by default and
//! allocation-free when disabled:
//!
//! * an **event recorder** ([`SmTracer`]) — per-SM buffers of timeline
//!   events keyed by `(cycle, sm, warp, unit)`: warp issue/stall/retire,
//!   SIMT divergence/reconvergence, RT-unit traversal start/finish, MSHR
//!   allocate/fill, DRAM row activates;
//! * an **interval metrics sampler** ([`IntervalSnapshot`] /
//!   [`IntervalRecord`]) — cumulative raw counters snapshotted every
//!   `VKSIM_TRACE_INTERVAL` cycles and differenced into a time series
//!   (IPC, L1/L2 hit rate, RT occupancy, DRAM bandwidth per interval);
//! * a **cycle-accounting profiler** ([`CycleAccounting`] /
//!   [`ProfReport`]) — every SM cycle attributed to exactly one
//!   [`CycleCategory`], conservation-checked, with integer-exact
//!   per-warp occupancy tallies (`VKSIM_PROF`);
//! * **exporters** — Chrome trace-event JSON loadable in Perfetto
//!   ([`chrome_trace_json`]), flat CSV for the interval series
//!   ([`interval_csv`]), per-category accounting counter tracks on the
//!   Chrome trace, and a human-readable top-N hotspot summary
//!   ([`hotspot_summary`]).
//!
//! Each SM holds its recorders in one [`SmObservers`], the seam the timing
//! model calls at every hook; an observer that is off costs one branch.
//!
//! Determinism contract: SMs record into SM-local [`SmTracer`]s while they
//! tick; after every SM has ticked, the cycle loop drains them into one
//! [`TraceCollector`] in SM-id order, then appends the shared-backend
//! events (DRAM row activates). The merged event stream — and therefore
//! the exported trace — is identical run-to-run.
//!
//! The crate is dependency-free by design: it sits below every timing
//! crate in the workspace graph so `vksim-gpu`, `vksim-mem`, `vksim-rtunit`
//! and `vksim-core` can all hook into it without cycles.

mod accounting;
mod config;
mod event;
mod export;
mod observers;
mod recorder;
pub mod rt_analytics;
mod sampler;

pub use accounting::{CycleAccounting, CycleCategory, ProfReport, NUM_CATEGORIES};
pub use config::{TraceConfig, DEFAULT_FLIGHT_DEPTH, DEFAULT_INTERVAL, DEFAULT_MAX_EVENTS};
pub use event::{Event, EventKind, NO_WARP};
pub use export::{
    chrome_trace_json, hotspot_summary, interval_csv, TraceReport, ICNT_STALL_TID, PROF_TID, RT_TID,
};
pub use observers::{CycleState, SmObservers};
pub use recorder::{SmTracer, TraceCollector};
pub use rt_analytics::{
    RayHistogram, RtReport, RtSmAnalytics, TraversalAnalytics, WarpCoherence, NUM_RT_SERIES,
    RAY_HIST_BUCKETS, WARP_OCC_BUCKETS,
};
pub use sampler::{IntervalRecord, IntervalSnapshot};
