//! Cycle-level SIMT GPU timing model (the GPGPU-Sim 4.0 stand-in).
//!
//! Models the architecture of paper Fig. 3: multiple SMs, each with warp
//! schedulers (greedy-then-oldest), a SIMT reconvergence mechanism, ALU/SFU
//! execution units, a per-SM L1 data cache, and one RT unit; all SMs share
//! an interconnect to the L2 + DRAM backend (`vksim-mem`).
//!
//! Execution is *execution-driven*: the functional interpreter
//! (`vksim-isa`) supplies each lane's next instruction, and the timing
//! model charges cycles for issue, execution-unit latency, memory and RT
//! traversal. Two divergence-handling modes are available (paper §IV-B):
//!
//! * [`simt::SimtEngine::stack`] — classic immediate-post-dominator SIMT
//!   stack with `SSY`/`SYNC` reconvergence markers;
//! * [`simt::SimtEngine::multipath`] — independent thread scheduling as a
//!   multi-path table, letting warp splits interleave (and overlap
//!   `traverseAS` latency).
//!
//! The `traverseAS` instruction routes the issuing warp (split) to the
//! SM's RT unit; its per-lane traversal scripts come from a
//! [`ScriptSource`] implemented by the simulator core.

pub mod config;
pub mod gpu;
pub mod simt;
pub mod sm;

pub use config::{DivergenceMode, GpuConfig, ENV_OVERRIDES};
pub use gpu::{GpuFault, GpuSim, GpuStats, LaunchDims, RunOutcome};
pub use simt::{CtxOutcome, Mask, SimtEngine, FULL_MASK};
pub use sm::TickReport;
pub use vksim_fault::{FaultPlan, HangClass, SimError, WorkerPanicSpec};

/// Supplies the per-thread traversal scripts recorded by the functional
/// model when `traverseAS` executed (the paper's transactions buffer,
/// §III-B4). Implemented by the simulator core's RT runtime.
pub trait ScriptSource {
    /// Takes (and clears) the script for thread `tid`'s most recent
    /// `traverseAS`.
    fn take_script(&mut self, tid: usize) -> Vec<vksim_rtunit::Step>;
}

/// Number of lanes per warp (paper Table III: warp size 32).
pub const WARP_SIZE: usize = 32;
