//! The RT unit's replay script: the paper's *transactions buffer*.
//!
//! [`traverse`](crate::traversal::traverse) appends one [`Step`] per node
//! fetch, short-stack spill and intersection-buffer access of a ray; the RT
//! unit timing model replays the script against the simulated memory
//! hierarchy (§III-B4).

use vksim_snapshot::{Dec, Enc, Snap, SnapError};

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

impl Snap for OpKind {
    fn save(&self, e: &mut Enc) {
        match *self {
            OpKind::Box { tests } => {
                e.u8(0);
                e.u8(tests);
            }
            OpKind::Triangle => e.u8(1),
            OpKind::Transform => e.u8(2),
            OpKind::None => e.u8(3),
        }
    }

    fn load(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(match d.u8()? {
            0 => OpKind::Box { tests: d.u8()? },
            1 => OpKind::Triangle,
            2 => OpKind::Transform,
            3 => OpKind::None,
            t => return Err(SnapError::bad_tag::<Self>(t)),
        })
    }
}

impl Snap for Step {
    fn save(&self, e: &mut Enc) {
        match *self {
            Step::Fetch { addr, size, op } => {
                e.u8(0);
                e.u64(addr);
                e.u32(size);
                op.save(e);
            }
            Step::Store { addr, size } => {
                e.u8(1);
                e.u64(addr);
                e.u32(size);
            }
        }
    }

    fn load(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(match d.u8()? {
            0 => Step::Fetch {
                addr: d.u64()?,
                size: d.u32()?,
                op: OpKind::load(d)?,
            },
            1 => Step::Store {
                addr: d.u64()?,
                size: d.u32()?,
            },
            t => return Err(SnapError::bad_tag::<Self>(t)),
        })
    }
}
