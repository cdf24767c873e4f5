//! The timeline event model.

use vksim_snapshot::{Dec, Enc, Snap, SnapError};

/// Warp field value for events not attributable to a warp (RT-unit memory
/// traffic, DRAM row activates).
pub const NO_WARP: u32 = u32::MAX;

/// One timeline event. The SM id is implicit — events live in per-SM
/// buffers and are tagged with their SM when merged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Core cycle the event occurred on.
    pub cycle: u64,
    /// Warp id within the SM, or [`NO_WARP`].
    pub warp: u32,
    /// What happened.
    pub kind: EventKind,
}

vksim_snapshot::snap_struct!(Event { cycle, warp, kind });

/// Event payloads. Span begin/end pairs (`StallBegin`/`StallEnd`,
/// `RtBusyBegin`/`RtBusyEnd`) are always properly nested per track; the
/// recorder closes open spans at end of run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A warp issued an instruction.
    Issue {
        /// Program counter of the issued instruction.
        pc: u32,
        /// Active lanes in the issue mask.
        lanes: u32,
    },
    /// A warp began stalling on memory.
    StallBegin,
    /// The stall ended; `cycles` is the stall length, which the recorder
    /// measures from the open span (a caller passes 0).
    StallEnd {
        /// Stall duration in cycles.
        cycles: u64,
    },
    /// A warp retired (all contexts exited).
    Retire,
    /// A branch split the active mask.
    Diverge {
        /// PC of the divergent branch.
        pc: u32,
    },
    /// A reconvergence point merged paths.
    Reconverge {
        /// PC of the reconvergence instruction.
        pc: u32,
    },
    /// The SM's RT unit went from idle to busy.
    RtBusyBegin,
    /// The SM's RT unit drained back to idle.
    RtBusyEnd,
    /// A warp's traversal job entered the RT unit.
    RtStart,
    /// A warp's traversal job completed after `latency` resident cycles.
    RtFinish {
        /// Resident latency in cycles.
        latency: u64,
    },
    /// An L1/RTC MSHR entry was allocated for a missing line.
    MshrAlloc {
        /// Line address.
        line: u64,
        /// Memory partition the line's fill is routed to.
        partition: u32,
    },
    /// A fill returned and released the MSHR entry.
    MshrFill {
        /// Line address.
        line: u64,
        /// Memory partition the fill came from.
        partition: u32,
    },
    /// A DRAM bank opened a row.
    DramRowActivate {
        /// Memory partition owning the channel.
        partition: u32,
        /// Global channel index (partition base + channel within the
        /// partition's group).
        channel: u32,
        /// Bank index within the channel.
        bank: u32,
    },
    /// The SM's issue stage stalled because the bounded interconnect
    /// refused a request (SM-wide: tagged [`NO_WARP`]).
    IcntStallBegin,
    /// The interconnect accepted the SM's backlog again; `cycles` is the
    /// stall length.
    IcntStallEnd {
        /// Stall duration in cycles.
        cycles: u64,
    },
}

impl EventKind {
    /// Stable numeric code for flat (post-mortem dump) encoding.
    pub fn code(&self) -> u64 {
        match self {
            EventKind::Issue { .. } => 0,
            EventKind::StallBegin => 1,
            EventKind::StallEnd { .. } => 2,
            EventKind::Retire => 3,
            EventKind::Diverge { .. } => 4,
            EventKind::Reconverge { .. } => 5,
            EventKind::RtBusyBegin => 6,
            EventKind::RtBusyEnd => 7,
            EventKind::RtStart => 8,
            EventKind::RtFinish { .. } => 9,
            EventKind::MshrAlloc { .. } => 10,
            EventKind::MshrFill { .. } => 11,
            EventKind::DramRowActivate { .. } => 12,
            EventKind::IcntStallBegin => 13,
            EventKind::IcntStallEnd { .. } => 14,
        }
    }

    /// Human-readable name (Chrome trace event name).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Issue { .. } => "issue",
            EventKind::StallBegin | EventKind::StallEnd { .. } => "stall",
            EventKind::Retire => "retire",
            EventKind::Diverge { .. } => "diverge",
            EventKind::Reconverge { .. } => "reconverge",
            EventKind::RtBusyBegin | EventKind::RtBusyEnd => "rt_busy",
            EventKind::RtStart => "rt_start",
            EventKind::RtFinish { .. } => "traversal",
            EventKind::MshrAlloc { .. } => "mshr_alloc",
            EventKind::MshrFill { .. } => "mshr_fill",
            EventKind::DramRowActivate { .. } => "row_activate",
            EventKind::IcntStallBegin | EventKind::IcntStallEnd { .. } => "icnt_stall",
        }
    }

    /// The two payload words for flat encoding (unused slots are 0).
    pub fn args(&self) -> (u64, u64) {
        match *self {
            EventKind::Issue { pc, lanes } => (pc as u64, lanes as u64),
            EventKind::StallEnd { cycles } => (cycles, 0),
            EventKind::Diverge { pc } | EventKind::Reconverge { pc } => (pc as u64, 0),
            EventKind::RtFinish { latency } => (latency, 0),
            EventKind::MshrAlloc { line, partition } | EventKind::MshrFill { line, partition } => {
                (line, partition as u64)
            }
            EventKind::DramRowActivate {
                partition,
                channel,
                bank,
            } => (((partition as u64) << 32) | channel as u64, bank as u64),
            EventKind::IcntStallEnd { cycles } => (cycles, 0),
            EventKind::StallBegin
            | EventKind::Retire
            | EventKind::RtBusyBegin
            | EventKind::RtBusyEnd
            | EventKind::RtStart
            | EventKind::IcntStallBegin => (0, 0),
        }
    }
}

/// Lossless (unlike [`EventKind::args`], which flattens payloads), with
/// [`EventKind::code`] as the variant tag.
impl Snap for EventKind {
    fn save(&self, e: &mut Enc) {
        e.u8(self.code() as u8);
        match *self {
            EventKind::Issue { pc, lanes } => {
                e.u32(pc);
                e.u32(lanes);
            }
            EventKind::StallEnd { cycles } | EventKind::IcntStallEnd { cycles } => e.u64(cycles),
            EventKind::Diverge { pc } | EventKind::Reconverge { pc } => e.u32(pc),
            EventKind::RtFinish { latency } => e.u64(latency),
            EventKind::MshrAlloc { line, partition } | EventKind::MshrFill { line, partition } => {
                e.u64(line);
                e.u32(partition);
            }
            EventKind::DramRowActivate {
                partition,
                channel,
                bank,
            } => {
                e.u32(partition);
                e.u32(channel);
                e.u32(bank);
            }
            EventKind::StallBegin
            | EventKind::Retire
            | EventKind::RtBusyBegin
            | EventKind::RtBusyEnd
            | EventKind::RtStart
            | EventKind::IcntStallBegin => {}
        }
    }

    fn load(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(match d.u8()? {
            0 => EventKind::Issue {
                pc: d.u32()?,
                lanes: d.u32()?,
            },
            1 => EventKind::StallBegin,
            2 => EventKind::StallEnd { cycles: d.u64()? },
            3 => EventKind::Retire,
            4 => EventKind::Diverge { pc: d.u32()? },
            5 => EventKind::Reconverge { pc: d.u32()? },
            6 => EventKind::RtBusyBegin,
            7 => EventKind::RtBusyEnd,
            8 => EventKind::RtStart,
            9 => EventKind::RtFinish { latency: d.u64()? },
            10 => EventKind::MshrAlloc {
                line: d.u64()?,
                partition: d.u32()?,
            },
            11 => EventKind::MshrFill {
                line: d.u64()?,
                partition: d.u32()?,
            },
            12 => EventKind::DramRowActivate {
                partition: d.u32()?,
                channel: d.u32()?,
                bank: d.u32()?,
            },
            13 => EventKind::IcntStallBegin,
            14 => EventKind::IcntStallEnd { cycles: d.u64()? },
            t => return Err(SnapError::bad_tag::<Self>(t)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_distinct_and_stable() {
        let kinds = [
            EventKind::Issue { pc: 1, lanes: 2 },
            EventKind::StallBegin,
            EventKind::StallEnd { cycles: 3 },
            EventKind::Retire,
            EventKind::Diverge { pc: 4 },
            EventKind::Reconverge { pc: 5 },
            EventKind::RtBusyBegin,
            EventKind::RtBusyEnd,
            EventKind::RtStart,
            EventKind::RtFinish { latency: 6 },
            EventKind::MshrAlloc {
                line: 7,
                partition: 0,
            },
            EventKind::MshrFill {
                line: 8,
                partition: 1,
            },
            EventKind::DramRowActivate {
                partition: 0,
                channel: 1,
                bank: 2,
            },
            EventKind::IcntStallBegin,
            EventKind::IcntStallEnd { cycles: 9 },
        ];
        let codes: std::collections::BTreeSet<u64> = kinds.iter().map(|k| k.code()).collect();
        assert_eq!(codes.len(), kinds.len());
        assert_eq!(codes.iter().copied().max(), Some(14));
    }

    #[test]
    fn args_round_payloads() {
        assert_eq!(EventKind::Issue { pc: 9, lanes: 32 }.args(), (9, 32));
        assert_eq!(EventKind::StallEnd { cycles: 77 }.args(), (77, 0));
        assert_eq!(
            EventKind::DramRowActivate {
                partition: 2,
                channel: 3,
                bank: 5
            }
            .args(),
            ((2 << 32) | 3, 5)
        );
        assert_eq!(
            EventKind::MshrAlloc {
                line: 0x1240,
                partition: 6
            }
            .args(),
            (0x1240, 6)
        );
        assert_eq!(EventKind::Retire.args(), (0, 0));
    }
}
