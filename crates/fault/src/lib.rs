//! Structured simulation faults, injection plans and post-mortem dumps.
//!
//! Long cycle-level runs must finish or fail *diagnosably* (GPGPU-Sim ships
//! a deadlock detector for exactly this reason). This crate is the
//! workspace-wide fault vocabulary:
//!
//! * [`SimError`] — the classified failure every engine layer converges on:
//!   an instruction-level execution fault, the cycle cap, a watchdog-detected
//!   hang ([`HangClass`]) or a contained worker panic.
//! * [`FaultPlan`] — deterministic fault-injection switches threaded through
//!   `GpuConfig` so tests can provoke each failure class on demand.
//! * [`dump`] — the post-mortem snapshot writer: a flat `name -> u64` JSON
//!   object (the same format as the golden-counter files, written and parsed
//!   by `vksim_testkit::json`) saved next to the error so a hung or faulted
//!   run leaves per-warp / per-queue state behind for inspection.
//!
//! The crate deliberately depends only on `vksim-testkit` (for the JSON
//! helpers); every simulator layer can therefore use it without dependency
//! cycles.

use std::fmt;

pub mod dump;

/// Why the forward-progress watchdog declared a hang.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HangClass {
    /// Every schedulable warp is waiting on the memory system and the
    /// memory system still has work queued: progress is possible but
    /// slower than the watchdog window (raise `watchdog_cycles`), or the
    /// backend is re-queueing the same requests forever.
    AllWarpsBlockedOnMemory,
    /// At least one warp context is `Ready` yet no instruction issued for
    /// the whole window: the scheduler can see the warp but never picks
    /// it, i.e. a SIMT-stack or scheduler livelock.
    SimtLivelock,
    /// Warps are waiting on memory or the RT unit but the memory backend
    /// is idle: a completion was lost (scoreboard/MSHR wedge) and no event
    /// can ever wake the waiters.
    ScoreboardWedge,
}

impl fmt::Display for HangClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            HangClass::AllWarpsBlockedOnMemory => "all-warps-blocked-on-memory",
            HangClass::SimtLivelock => "simt-livelock",
            HangClass::ScoreboardWedge => "scoreboard-wedge",
        };
        f.write_str(s)
    }
}

/// A classified, recoverable simulation failure.
///
/// Carried up from the faulting layer to `Simulator::run`; wrappers at each
/// level (`GpuFault`, `SimFailure`) attach the statistics accumulated so far
/// and the post-mortem dump path.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// An instruction faulted during issue (pc out of range after a
    /// truncated upload, RT instruction without a runtime, corrupt BVH...).
    Exec {
        /// SM that issued the faulting instruction.
        sm: usize,
        /// Warp id within the SM.
        warp: u32,
        /// Faulting lane within the warp.
        lane: usize,
        /// Program counter of the faulting instruction.
        pc: u32,
        /// Human-readable cause from the interpreter.
        detail: String,
    },
    /// The run exceeded `GpuConfig::max_cycles` while still making
    /// progress (a runaway shader loop, not an engine hang).
    MaxCycles {
        /// The configured cycle cap.
        limit: u64,
    },
    /// The forward-progress watchdog saw no instruction issue, no warp
    /// retire and no memory completion for a full window.
    Hang {
        /// The diagnosed hang class.
        class: HangClass,
        /// The configured watchdog window in cycles.
        window: u64,
        /// Cycle at which the hang was declared.
        cycle: u64,
    },
    /// An SM tick panicked inside the cycle loop; the panic was contained
    /// and converted instead of tearing down the process.
    WorkerPanicked {
        /// SM whose tick panicked.
        sm: usize,
        /// The panic payload, if it was a string.
        detail: String,
    },
    /// The configuration was rejected before the run started (degenerate
    /// queue depths, impossible knob combinations). Raised by
    /// `vksim_core::validate::validate_config`, never mid-run.
    InvalidConfig {
        /// Which knob was rejected and why.
        detail: String,
    },
    /// A checkpoint could not be resumed: the snapshot file is corrupt,
    /// from an incompatible format version, or was produced under a
    /// different configuration/workload than the one resuming it.
    /// Restoring anyway would silently compute garbage, so the mismatch
    /// is a structured refusal instead.
    SnapshotMismatch {
        /// What differed (fingerprint, version, payload layout, ...).
        detail: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Exec {
                sm,
                warp,
                lane,
                pc,
                detail,
            } => write!(f, "SM{sm} warp {warp} lane {lane} pc {pc}: {detail}"),
            SimError::MaxCycles { limit } => {
                write!(f, "simulation exceeded {limit} cycles")
            }
            SimError::Hang {
                class,
                window,
                cycle,
            } => write!(
                f,
                "no forward progress for {window} cycles (cycle {cycle}): {class}"
            ),
            SimError::WorkerPanicked { sm, detail } => {
                write!(f, "worker for SM{sm} panicked: {detail}")
            }
            SimError::InvalidConfig { detail } => {
                write!(f, "invalid configuration: {detail}")
            }
            SimError::SnapshotMismatch { detail } => {
                write!(f, "snapshot cannot be resumed: {detail}")
            }
        }
    }
}

impl std::error::Error for SimError {}

impl SimError {
    /// A small stable code for each error class, recorded in post-mortem
    /// dumps under `fault.kind` so dumps stay flat `name -> u64` maps.
    pub fn kind_code(&self) -> u64 {
        match self {
            SimError::Exec { .. } => 1,
            SimError::MaxCycles { .. } => 2,
            SimError::Hang {
                class: HangClass::AllWarpsBlockedOnMemory,
                ..
            } => 3,
            SimError::Hang {
                class: HangClass::SimtLivelock,
                ..
            } => 4,
            SimError::Hang {
                class: HangClass::ScoreboardWedge,
                ..
            } => 5,
            SimError::WorkerPanicked { .. } => 6,
            SimError::InvalidConfig { .. } => 7,
            SimError::SnapshotMismatch { .. } => 8,
        }
    }
}

/// Extracts a readable message from a caught panic payload (the engines
/// contain worker panics with `catch_unwind` and convert them into
/// [`SimError::WorkerPanicked`]).
pub fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A worker-panic injection point: panic while ticking `sm` at `cycle`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerPanicSpec {
    /// SM whose tick panics.
    pub sm: usize,
    /// Cycle at which the panic fires.
    pub cycle: u64,
}

/// Deterministic fault-injection switches, carried in `GpuConfig`.
///
/// All fields default to "no fault"; a default plan leaves every hot path
/// byte-identical to a build without injection (the golden suite pins this).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Silently drop the Nth (1-based) memory completion the shared memory
    /// system would deliver — models a lost MSHR wakeup.
    pub drop_nth_completion: Option<u64>,
    /// Never schedule this warp id even when `Ready` — crafts a SIMT
    /// livelock the watchdog must classify.
    pub stall_warp: Option<u32>,
    /// Panic inside one SM's tick — exercises panic containment.
    pub worker_panic: Option<WorkerPanicSpec>,
}

impl FaultPlan {
    /// `true` when no fault is injected (the production configuration).
    pub fn is_empty(&self) -> bool {
        *self == FaultPlan::default()
    }
}

/// Re-exported for convenience: the post-mortem writer.
pub use dump::{write_dump, write_dump_in, DUMP_DIR_ENV};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_class_and_location() {
        let e = SimError::Hang {
            class: HangClass::ScoreboardWedge,
            window: 10_000,
            cycle: 123_456,
        };
        let s = e.to_string();
        assert!(s.contains("scoreboard-wedge") && s.contains("10000"));
        let e = SimError::Exec {
            sm: 3,
            warp: 7,
            lane: 1,
            pc: 42,
            detail: "pc 42 out of range".into(),
        };
        assert!(e.to_string().contains("SM3 warp 7 lane 1 pc 42"));
    }

    #[test]
    fn kind_codes_are_distinct() {
        let errs = [
            SimError::Exec {
                sm: 0,
                warp: 0,
                lane: 0,
                pc: 0,
                detail: String::new(),
            },
            SimError::MaxCycles { limit: 1 },
            SimError::Hang {
                class: HangClass::AllWarpsBlockedOnMemory,
                window: 1,
                cycle: 1,
            },
            SimError::Hang {
                class: HangClass::SimtLivelock,
                window: 1,
                cycle: 1,
            },
            SimError::Hang {
                class: HangClass::ScoreboardWedge,
                window: 1,
                cycle: 1,
            },
            SimError::WorkerPanicked {
                sm: 0,
                detail: String::new(),
            },
            SimError::InvalidConfig {
                detail: String::new(),
            },
            SimError::SnapshotMismatch {
                detail: String::new(),
            },
        ];
        let mut codes: Vec<u64> = errs.iter().map(|e| e.kind_code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), errs.len());
    }

    #[test]
    fn default_plan_is_empty() {
        assert!(FaultPlan::default().is_empty());
        let p = FaultPlan {
            stall_warp: Some(0),
            ..FaultPlan::default()
        };
        assert!(!p.is_empty());
    }
}
