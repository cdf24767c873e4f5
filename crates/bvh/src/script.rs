//! The RT unit's replay script: the paper's *transactions buffer*.
//!
//! [`traverse`](crate::traversal::traverse) appends one [`Step`] per node
//! fetch, short-stack spill and intersection-buffer access of a ray; the RT
//! unit timing model replays the script against the simulated memory
//! hierarchy (§III-B4).

/// One step of a thread's traversal script.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Step {
    /// Fetch `size` bytes at `addr`, then run `op` on the returned data.
    Fetch {
        /// Absolute address.
        addr: u64,
        /// Size in bytes (split into 32 B chunks internally).
        size: u32,
        /// BVH operation consuming the data.
        op: OpKind,
    },
    /// Fire-and-forget store (intersection-buffer entry, stack spill).
    Store {
        /// Absolute address.
        addr: u64,
        /// Size in bytes.
        size: u32,
    },
}

/// Which operation unit processes a fetched node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// Ray-box intersection tests against an internal node's children.
    Box {
        /// Number of child AABBs tested.
        tests: u8,
    },
    /// One ray-triangle intersection test.
    Triangle,
    /// A ray coordinate transformation (TLAS -> BLAS crossing).
    Transform,
    /// Raw data fetch with no BVH operation (stack refill, metadata).
    None,
}

vksim_snapshot::snap_enum!(OpKind {
    0 => Box { tests },
    1 => Triangle,
    2 => Transform,
    3 => None,
});

vksim_snapshot::snap_enum!(Step {
    0 => Fetch { addr, size, op },
    1 => Store { addr, size },
});

#[cfg(test)]
mod tests {
    use super::*;

    /// The encoding of every variant, pinned: the replay-script pins hold
    /// only the steps the Test scenes happen to record.
    #[test]
    fn every_variant_layout_is_pinned() {
        let ops = vec![
            OpKind::Box { tests: 6 },
            OpKind::Triangle,
            OpKind::Transform,
            OpKind::None,
        ];
        let fetches = ops.iter().zip(0..).map(|(&op, i)| Step::Fetch {
            addr: 0x1000 + 64 * i,
            size: 64,
            op,
        });
        let store = Step::Store {
            addr: 0x9000,
            size: 32,
        };
        let steps: Vec<Step> = fetches.chain([store]).collect();
        assert_eq!(
            vksim_snapshot::layout_pin(&(ops, steps)),
            (0x4e94_30e9_26ff_e7d5, 91)
        );
    }
}
