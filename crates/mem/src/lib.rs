//! Timing model of the GPU memory hierarchy.
//!
//! Reproduces the memory system the paper's GPU model inherits from
//! GPGPU-Sim 4.0 and extends for ray tracing:
//!
//! * [`cache::Cache`] — set-associative (or fully associative) LRU caches
//!   with MSHRs and miss classification (compulsory / capacity / conflict),
//!   feeding the Fig. 14 cache-breakdown experiment. Accesses are tagged
//!   with an [`AccessKind`] so shader loads and RT-unit loads can be
//!   reported separately.
//! * [`dram::Dram`] — banked DRAM with open-row policy, per-channel
//!   bandwidth, the efficiency/utilization statistics of Fig. 16, and two
//!   access schedulers ([`dram::DramSched`]): in-order FCFS and FR-FCFS
//!   with a bounded reorder window plus an age-cap starvation bound.
//! * [`system::SharedMemSystem`] — the partitioned L2 + interconnect +
//!   DRAM backend shared by all SMs: `num_partitions` independent memory
//!   partitions (L2 slice + DRAM channel group each); per-SM L1s forward
//!   misses into it. Larger requests are split into 32 B chunks by the
//!   producers (paper §III-C3).
//! * [`map::AddrMap`] — the backend's address map, its one address decoder.
//!
//! The hierarchy is event-driven: producers submit requests with the
//! current cycle, call [`system::SharedMemSystem::advance_to`] each cycle,
//! and receive completed request IDs.

pub mod cache;
pub mod dram;
pub mod map;
pub mod system;

pub use cache::{AccessKind, Cache, CacheConfig, CacheOutcome, Refusal};
pub use dram::{Dram, DramConfig, DramIssue, DramSched};
pub use map::{AddrMap, DramLoc};
pub use system::{MemRequest, MemSink, RequestQueue, SharedMemSystem, SystemConfig};
pub use vksim_snapshot::{FixedMap, FixedSet, FixedState};

/// Memory chunk size: larger requests are broken into 32 B pieces
/// (paper §III-C3).
pub const CHUNK_BYTES: u32 = 32;

/// Splits a byte range into 32 B-aligned chunk addresses.
///
/// # Example
///
/// ```
/// use vksim_mem::chunk_addresses;
/// assert_eq!(chunk_addresses(0x40, 64), vec![0x40, 0x60]);
/// assert_eq!(chunk_addresses(0x41, 32), vec![0x40, 0x60]); // straddles
/// ```
pub fn chunk_addresses(addr: u64, size: u32) -> Vec<u64> {
    let step = CHUNK_BYTES as u64;
    let first = addr / step * step;
    let last = (addr + size.max(1) as u64 - 1) / step * step;
    (0..)
        .map(|i| first + i * step)
        .take_while(|&a| a <= last)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunking_aligned_and_unaligned() {
        assert_eq!(chunk_addresses(0, 32), vec![0]);
        assert_eq!(chunk_addresses(0, 33), vec![0, 32]);
        assert_eq!(chunk_addresses(31, 2), vec![0, 32]);
        assert_eq!(chunk_addresses(128, 128), vec![128, 160, 192, 224]);
        assert_eq!(chunk_addresses(100, 1), vec![96]);
    }

    /// The snapshot codec writes hashed containers sorted by key, so the
    /// hasher never reaches the bytes.
    #[test]
    fn fixed_tables_encode_like_std_tables() {
        use std::collections::{HashMap, HashSet};
        use vksim_snapshot::{Enc, Snap};
        let encode = |v: &dyn Fn(&mut Enc)| {
            let mut e = Enc::new();
            v(&mut e);
            e.into_bytes()
        };
        let entries = (0..200u64).map(|i| (i * 32 * 7919 % 65_536, i));
        let fixed: FixedMap<u64, u64> = entries.clone().collect();
        let std: HashMap<u64, u64> = entries.collect();
        assert_eq!(encode(&|e| fixed.save(e)), encode(&|e| std.save(e)));
        let set: FixedSet<u64> = fixed.keys().copied().collect();
        let std_set: HashSet<u64> = std.keys().copied().collect();
        let as_map: HashMap<u64, ()> = std.keys().map(|&k| (k, ())).collect();
        assert_eq!(encode(&|e| set.save(e)), encode(&|e| std_set.save(e)));
        assert_eq!(encode(&|e| set.save(e)), encode(&|e| as_map.save(e)));
        let bytes = encode(&|e| std.save(e));
        let loaded = FixedMap::<u64, u64>::load(&mut vksim_snapshot::Dec::new(&bytes));
        assert_eq!(loaded.unwrap(), fixed);
    }
}
