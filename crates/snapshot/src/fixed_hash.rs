//! A fixed hasher for the simulator's integer-keyed lookup tables: the same
//! in every process, and far cheaper than SipHash on addresses and ids. It
//! lives here, below every stateful crate, because the [`crate::Snap`]
//! impls of hashed containers are generic over the hasher and write their
//! entries sorted, so the hasher never reaches snapshot bytes.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` under [`FixedState`].
pub type FixedMap<K, V> = HashMap<K, V, FixedState>;
/// `HashSet` under [`FixedState`].
pub type FixedSet<T> = HashSet<T, FixedState>;
/// Builds [`FixedHasher`]s.
pub type FixedState = BuildHasherDefault<FixedHasher>;

/// An Fx-style rotate-xor-multiply hash of machine words.
#[derive(Clone, Copy, Debug, Default)]
pub struct FixedHasher(u64);

impl Hasher for FixedHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b.into()));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    /// Buckets come from the low bits, the product's entropy sits in its high
    /// ones: without the rotate, line addresses (× 32) would leave them zero.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}
