//! The timeline event model.

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
    /// Stable numeric code for flat (post-mortem dump) encoding: the
    /// snapshot tag.
    pub fn code(&self) -> u64 {
        self.snap_tag().into()
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

// Lossless (unlike `EventKind::args`, which flattens payloads); the tags
// are also the post-mortem codes.
vksim_snapshot::snap_enum!(EventKind {
    0 => Issue { pc, lanes },
    1 => StallBegin,
    2 => StallEnd { cycles },
    3 => Retire,
    4 => Diverge { pc },
    5 => Reconverge { pc },
    6 => RtBusyBegin,
    7 => RtBusyEnd,
    8 => RtStart,
    9 => RtFinish { latency },
    10 => MshrAlloc { line, partition },
    11 => MshrFill { line, partition },
    12 => DramRowActivate { partition, channel, bank },
    13 => IcntStallBegin,
    14 => IcntStallEnd { cycles },
});

#[cfg(test)]
mod tests {
    use super::*;

    /// One value of every variant.
    fn every_kind() -> Vec<EventKind> {
        vec![
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
        ]
    }

    #[test]
    fn codes_are_distinct_and_stable() {
        let kinds = every_kind();
        let codes: std::collections::BTreeSet<u64> = kinds.iter().map(|k| k.code()).collect();
        assert_eq!(codes.len(), kinds.len());
        assert_eq!(codes.iter().copied().max(), Some(14));
    }

    /// The encoding of every variant, pinned: the layout pins of whole
    /// checkpoints hold only the events live at their cycles.
    #[test]
    fn every_variant_layout_is_pinned() {
        assert_eq!(
            vksim_snapshot::layout_pin(&every_kind()),
            (0x65b8_dcf4_391b_04aa, 99)
        );
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
