//! Set-associative LRU cache with MSHRs and miss classification.

use crate::{FixedMap, FixedSet};
use vksim_snapshot::{load_fixed, Dec, Enc, Snap, SnapError};
use vksim_stats::Counters;

/// Who issued a memory access; drives the per-source breakdown of Fig. 14
/// ("Cache misses primarily result from shader loads with only a small
/// portion coming from RT unit accesses").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load issued by shader code on the SIMT core.
    ShaderLoad,
    /// A store issued by shader code.
    ShaderStore,
    /// A BVH/intersection-buffer access issued by the RT unit.
    RtUnit,
}

impl AccessKind {
    /// This source's `<kind>.<event>` counters, spelled out at compile
    /// time so that an access formats nothing: `hit`, `miss_pending`, then
    /// the miss classes `miss_compulsory`, `miss_conflict` and
    /// `miss_capacity`.
    const fn counters(self) -> [&'static str; 5] {
        macro_rules! names {
            ($kind:literal) => {
                [
                    concat!($kind, ".hit"),
                    concat!($kind, ".miss_pending"),
                    concat!($kind, ".miss_compulsory"),
                    concat!($kind, ".miss_conflict"),
                    concat!($kind, ".miss_capacity"),
                ]
            };
        }
        match self {
            AccessKind::ShaderLoad => names!("shader_load"),
            AccessKind::ShaderStore => names!("shader_store"),
            AccessKind::RtUnit => names!("rt_unit"),
        }
    }
}

impl Snap for AccessKind {
    fn save(&self, e: &mut Enc) {
        e.u8(match self {
            AccessKind::ShaderLoad => 0,
            AccessKind::ShaderStore => 1,
            AccessKind::RtUnit => 2,
        });
    }
    fn load(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(match d.u8()? {
            0 => AccessKind::ShaderLoad,
            1 => AccessKind::ShaderStore,
            2 => AccessKind::RtUnit,
            t => return Err(SnapError::bad_tag::<Self>(t)),
        })
    }
}

/// Cache geometry and timing.
#[derive(Clone, Debug, PartialEq)]
pub struct CacheConfig {
    /// Diagnostic name ("L1D", "L2", "RTC", ...).
    pub name: String,
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line size in bytes (32 to match the chunking granularity).
    pub line_bytes: u32,
    /// Associativity; 0 means fully associative (paper's L1D).
    pub assoc: u32,
    /// Hit latency in cycles.
    pub hit_latency: u32,
    /// Number of MSHR entries (distinct outstanding miss lines).
    pub mshr_entries: usize,
    /// Maximum requests merged into one MSHR entry.
    pub mshr_merge: usize,
}

impl CacheConfig {
    /// This cache's share when capacity is sliced over `n` memory
    /// partitions: `1/n` of the bytes and MSHR entries (floored at one
    /// line / one entry), same associativity and latency. `n = 1` is the
    /// identity, so single-partition configurations are bit-compatible
    /// with the unsliced cache.
    pub fn sliced(&self, n: u32) -> Self {
        let n = n.max(1);
        CacheConfig {
            size_bytes: (self.size_bytes / n as u64).max(self.line_bytes as u64),
            mshr_entries: (self.mshr_entries / n as usize).max(1),
            ..self.clone()
        }
    }

    /// The paper's baseline L1 data cache: 64 KB fully associative LRU,
    /// 20-cycle latency (Table III).
    pub fn l1d_baseline() -> Self {
        CacheConfig {
            name: "L1D".into(),
            size_bytes: 64 * 1024,
            line_bytes: 32,
            assoc: 0,
            hit_latency: 20,
            mshr_entries: 64,
            mshr_merge: 8,
        }
    }

    /// The paper's baseline L2: 3 MB, 16-way LRU, 160-cycle latency.
    pub fn l2_baseline() -> Self {
        CacheConfig {
            name: "L2".into(),
            size_bytes: 3 * 1024 * 1024,
            line_bytes: 32,
            assoc: 16,
            hit_latency: 160,
            mshr_entries: 256,
            mshr_merge: 16,
        }
    }

    fn num_lines(&self) -> u64 {
        self.size_bytes / self.line_bytes as u64
    }

    fn num_sets(&self) -> u64 {
        if self.assoc == 0 {
            1
        } else {
            (self.num_lines() / self.assoc as u64).max(1)
        }
    }
}

/// Outcome of a cache access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Line present; data available after `hit_latency`.
    Hit,
    /// Line absent; an MSHR entry was allocated — the caller must forward
    /// the miss down the hierarchy.
    MissToMemory,
    /// Line absent but an earlier miss on the same line is outstanding; the
    /// request was merged and completes with the earlier fill.
    MissMerged,
    /// No MSHR space (or merge slots): the access must be retried later.
    ReservationFail,
}

/// Which check of [`Cache::access`] turns a read into a
/// [`CacheOutcome::ReservationFail`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Refusal {
    /// The line has no MSHR entry and the file is full (`mshr.full`).
    MshrFull,
    /// The line's MSHR entry has no merge slot left (`mshr.merge_fail`).
    MergeFull,
}

impl Refusal {
    /// The counter a refusal by this check is counted under.
    pub fn counter(self) -> &'static str {
        match self {
            Refusal::MshrFull => "mshr.full",
            Refusal::MergeFull => "mshr.merge_fail",
        }
    }
}

// One set's LRU state: line tag -> last-use stamp.
#[derive(Default, Debug, Clone)]
struct LruSet {
    lines: FixedMap<u64, u64>,
}

// Snapshot encoding: (tag, stamp) pairs sorted by tag.
vksim_snapshot::snap_struct!(LruSet { lines });

impl LruSet {
    fn touch(&mut self, tag: u64, stamp: u64) -> bool {
        match self.lines.get_mut(&tag) {
            Some(s) => {
                *s = stamp;
                true
            }
            None => false,
        }
    }

    fn insert(&mut self, tag: u64, stamp: u64, capacity: usize) {
        if self.lines.len() >= capacity && !self.lines.contains_key(&tag) {
            // Evict the least recently used tag.
            if let Some((&victim, _)) = self.lines.iter().min_by_key(|(_, &s)| s) {
                self.lines.remove(&victim);
            }
        }
        self.lines.insert(tag, stamp);
    }
}

/// A cache with MSHR tracking and classified miss statistics.
///
/// # Example
///
/// ```
/// use vksim_mem::{Cache, CacheConfig, CacheOutcome, AccessKind};
/// let mut c = Cache::new(CacheConfig::l1d_baseline());
/// assert_eq!(c.access(0x80, AccessKind::ShaderLoad, 0), CacheOutcome::MissToMemory);
/// c.fill(0x80, 100);
/// assert_eq!(c.access(0x80, AccessKind::ShaderLoad, 101), CacheOutcome::Hit);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    sets: Vec<LruSet>,
    // MSHR: line address -> number of merged requesters.
    mshr: FixedMap<u64, usize>,
    // Shadow structures for miss classification.
    ever_seen: FixedSet<u64>,
    shadow_full: LruSet,
    stamp: u64,
    /// Classified statistics (hits/misses by [`AccessKind`]).
    pub stats: Counters,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the configured geometry is degenerate (zero lines).
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.num_lines() > 0, "cache must hold at least one line");
        let sets = (0..config.num_sets()).map(|_| LruSet::default()).collect();
        Cache {
            sets,
            mshr: FixedMap::default(),
            ever_seen: FixedSet::default(),
            shadow_full: LruSet::default(),
            stamp: 0,
            config,
            stats: Counters::new(),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Line-aligns an address.
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr / self.config.line_bytes as u64 * self.config.line_bytes as u64
    }

    /// The set `line`, an address as this cache is handed it, indexes.
    pub fn set_index(&self, line: u64) -> usize {
        ((line / self.config.line_bytes as u64) % self.config.num_sets()) as usize
    }

    fn ways(&self) -> usize {
        if self.config.assoc == 0 {
            self.config.num_lines() as usize
        } else {
            self.config.assoc as usize
        }
    }

    /// Performs a (read or write) access at `now`; write-through
    /// no-write-allocate semantics: stores that miss do not allocate.
    pub fn access(&mut self, addr: u64, kind: AccessKind, now: u64) -> CacheOutcome {
        let _ = now;
        self.stamp += 1;
        let line = self.line_of(addr);
        let set = self.set_index(line);
        let is_store = kind == AccessKind::ShaderStore;
        let [hit, pending, compulsory, conflict, capacity] = kind.counters();

        // Shadow bookkeeping for classification (reads only).
        let first_touch = !is_store && self.ever_seen.insert(line);
        let shadow_hit = !is_store && self.touch_shadow(line);

        if self.sets[set].touch(line, self.stamp) {
            self.stats.inc(hit);
            return CacheOutcome::Hit;
        }

        if is_store {
            // Write-through no-allocate: a store never waits on a fill.
            self.stats.inc("shader_store.write_through");
            return CacheOutcome::Hit;
        }

        // A fill for this line is already in flight: merge into the MSHR
        // (counted separately, not as a new classified miss).
        if let Some(cnt) = self.mshr.get_mut(&line) {
            if *cnt >= self.config.mshr_merge {
                self.stats.inc(Refusal::MergeFull.counter());
                return CacheOutcome::ReservationFail;
            }
            *cnt += 1;
            self.stats.inc("mshr.merged");
            self.stats.inc(pending);
            return CacheOutcome::MissMerged;
        }

        // Classify the demand miss.
        let class = if first_touch {
            compulsory
        } else if shadow_hit {
            // Fully associative shadow of the same capacity would have hit:
            // conflict miss.
            conflict
        } else {
            capacity
        };

        if self.mshr.len() >= self.config.mshr_entries {
            self.stats.inc(Refusal::MshrFull.counter());
            return CacheOutcome::ReservationFail;
        }
        self.stats.inc(class);
        self.mshr.insert(line, 1);
        CacheOutcome::MissToMemory
    }

    /// Touches `line` in the fully associative classification shadow at the
    /// current stamp, installing it (with LRU eviction) when absent; returns
    /// whether it was present.
    fn touch_shadow(&mut self, line: u64) -> bool {
        let hit = self.shadow_full.touch(line, self.stamp);
        if !hit {
            let cap = self.config.num_lines() as usize;
            self.shadow_full.insert(line, self.stamp, cap);
        }
        hit
    }

    /// The check that would refuse a read of `line` right now, or `None` if
    /// [`Cache::access`] would hit, merge or allocate. The answer can only
    /// change at the next [`Cache::fill`]: nothing else installs a line or
    /// frees an MSHR entry, a full file cannot allocate `line` an entry, and
    /// a merge count only grows.
    pub fn would_refuse(&self, line: u64) -> Option<Refusal> {
        if self.sets[self.set_index(line)].lines.contains_key(&line) {
            return None;
        }
        match self.mshr.get(&line) {
            Some(&cnt) => (cnt >= self.config.mshr_merge).then_some(Refusal::MergeFull),
            None => (self.mshr.len() >= self.config.mshr_entries).then_some(Refusal::MshrFull),
        }
    }

    /// Applies what `n` reads of `line`, refused before with no
    /// [`Cache::fill`] since, do besides their count: the LRU stamp
    /// advances by `n`, and one shadow touch at the final stamp leaves the
    /// shadow as `n` do (`ever_seen` holds the line already). The caller
    /// counts them under [`Cache::would_refuse`]'s [`Refusal::counter`].
    pub fn replay_refusals(&mut self, line: u64, n: u64) {
        if n == 0 {
            return;
        }
        debug_assert!(self.ever_seen.contains(&line) && self.would_refuse(line).is_some());
        self.stamp += n;
        self.touch_shadow(line);
    }

    /// Whether `line` is in the fully associative classification shadow.
    pub(crate) fn in_shadow(&self, line: u64) -> bool {
        self.shadow_full.lines.contains_key(&line)
    }

    /// Installs a line returned from the next level and frees its MSHR
    /// entry; returns how many merged requesters were waiting.
    pub fn fill(&mut self, addr: u64, now: u64) -> usize {
        let _ = now;
        self.stamp += 1;
        let line = self.line_of(addr);
        let set = self.set_index(line);
        let ways = self.ways();
        self.sets[set].insert(line, self.stamp, ways);
        self.mshr.remove(&line).unwrap_or(0)
    }

    /// Number of occupied MSHR entries.
    pub fn mshr_in_use(&self) -> usize {
        self.mshr.len()
    }

    /// Hit latency in cycles.
    pub fn hit_latency(&self) -> u32 {
        self.config.hit_latency
    }

    /// Total hits across sources.
    pub fn total_hits(&self) -> u64 {
        self.stats.get("shader_load.hit")
            + self.stats.get("shader_store.hit")
            + self.stats.get("rt_unit.hit")
    }

    /// Total classified read misses across sources. Pending (MSHR-merged)
    /// misses share the `miss_` prefix but are not new classified misses,
    /// so they are filtered out of the allocation-free prefix walk.
    pub fn total_misses(&self) -> u64 {
        ["shader_load.miss_", "rt_unit.miss_"]
            .iter()
            .flat_map(|p| self.stats.iter_prefix(p))
            .filter(|(k, _)| !k.ends_with("pending"))
            .map(|(_, v)| v)
            .sum()
    }
}

// The geometry is not written: the resuming run rebuilds it from its own
// (fingerprinted) configuration, and a set count that disagrees with it is
// a mismatched snapshot.
vksim_snapshot::snap_state!(Cache {
    sets: with(Snap::save, |sets, d| load_fixed(sets, d)),
    mshr,
    ever_seen,
    shadow_full,
    stamp,
    stats,
} skip { config });

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cache(lines: u64, assoc: u32) -> Cache {
        Cache::new(CacheConfig {
            name: "T".into(),
            size_bytes: lines * 32,
            line_bytes: 32,
            assoc,
            hit_latency: 1,
            mshr_entries: 4,
            mshr_merge: 2,
        })
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny_cache(4, 0);
        assert_eq!(
            c.access(0x40, AccessKind::ShaderLoad, 0),
            CacheOutcome::MissToMemory
        );
        assert_eq!(c.fill(0x40, 10), 1);
        assert_eq!(
            c.access(0x40, AccessKind::ShaderLoad, 11),
            CacheOutcome::Hit
        );
        assert_eq!(c.total_hits(), 1);
        assert_eq!(c.total_misses(), 1);
    }

    #[test]
    fn same_line_offsets_hit_together() {
        let mut c = tiny_cache(4, 0);
        c.access(0x40, AccessKind::ShaderLoad, 0);
        c.fill(0x40, 1);
        assert_eq!(c.access(0x5F, AccessKind::ShaderLoad, 2), CacheOutcome::Hit);
    }

    #[test]
    fn mshr_merging_and_capacity() {
        let mut c = tiny_cache(16, 0);
        assert_eq!(
            c.access(0x100, AccessKind::ShaderLoad, 0),
            CacheOutcome::MissToMemory
        );
        assert_eq!(
            c.access(0x100, AccessKind::ShaderLoad, 0),
            CacheOutcome::MissMerged
        );
        // merge limit = 2
        assert_eq!(
            c.access(0x100, AccessKind::ShaderLoad, 0),
            CacheOutcome::ReservationFail
        );
        // 4 entries total
        for i in 1..4 {
            assert_eq!(
                c.access(0x100 + i * 32, AccessKind::ShaderLoad, 0),
                CacheOutcome::MissToMemory
            );
        }
        assert_eq!(
            c.access(0x900, AccessKind::ShaderLoad, 0),
            CacheOutcome::ReservationFail
        );
        assert_eq!(c.mshr_in_use(), 4);
        assert_eq!(c.fill(0x100, 5), 2);
        assert_eq!(c.mshr_in_use(), 3);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny_cache(2, 0); // 2 lines, fully associative
        for a in [0x00u64, 0x20] {
            c.access(a, AccessKind::ShaderLoad, 0);
            c.fill(a, 0);
        }
        // Touch 0x00 so 0x20 becomes LRU.
        assert_eq!(c.access(0x00, AccessKind::ShaderLoad, 1), CacheOutcome::Hit);
        c.access(0x40, AccessKind::ShaderLoad, 2);
        c.fill(0x40, 3);
        assert_eq!(c.access(0x00, AccessKind::ShaderLoad, 4), CacheOutcome::Hit);
        // 0x20 was evicted; this is a non-compulsory miss.
        assert_ne!(c.access(0x20, AccessKind::ShaderLoad, 5), CacheOutcome::Hit);
        let cap = c.stats.get("shader_load.miss_capacity");
        let conf = c.stats.get("shader_load.miss_conflict");
        assert_eq!(
            cap + conf,
            1,
            "second 0x20 miss must be classified non-compulsory"
        );
    }

    #[test]
    fn conflict_miss_classification() {
        // Direct-mapped 4-line cache: two addresses mapping to the same set
        // conflict even though capacity is fine.
        let mut c = tiny_cache(4, 1);
        let a = 0x000u64;
        let b = 0x080; // 4 lines * 32B stride -> same set in direct-mapped
        for _ in 0..3 {
            for addr in [a, b] {
                if c.access(addr, AccessKind::ShaderLoad, 0) == CacheOutcome::MissToMemory {
                    c.fill(addr, 0);
                }
            }
        }
        assert!(
            c.stats.get("shader_load.miss_conflict") >= 2,
            "ping-pong on one set must classify as conflict: {:?}",
            c.stats
        );
        assert_eq!(c.stats.get("shader_load.miss_capacity"), 0);
    }

    #[test]
    fn compulsory_misses_counted_once_per_line() {
        let mut c = tiny_cache(8, 0);
        for i in 0..4u64 {
            c.access(i * 32, AccessKind::ShaderLoad, 0);
            c.fill(i * 32, 0);
        }
        assert_eq!(c.stats.get("shader_load.miss_compulsory"), 4);
        for i in 0..4u64 {
            assert_eq!(
                c.access(i * 32, AccessKind::ShaderLoad, 1),
                CacheOutcome::Hit
            );
        }
        assert_eq!(c.stats.get("shader_load.miss_compulsory"), 4);
    }

    #[test]
    fn stores_are_write_through_no_allocate() {
        let mut c = tiny_cache(4, 0);
        assert_eq!(
            c.access(0x200, AccessKind::ShaderStore, 0),
            CacheOutcome::Hit
        );
        // The store did not allocate: a later load misses.
        assert_eq!(
            c.access(0x200, AccessKind::ShaderLoad, 1),
            CacheOutcome::MissToMemory
        );
        assert_eq!(c.stats.get("shader_store.write_through"), 1);
    }

    #[test]
    fn rt_unit_accesses_tracked_separately() {
        let mut c = tiny_cache(8, 0);
        c.access(0x40, AccessKind::RtUnit, 0);
        c.fill(0x40, 1);
        c.access(0x40, AccessKind::RtUnit, 2);
        assert_eq!(c.stats.get("rt_unit.hit"), 1);
        assert_eq!(c.stats.get("rt_unit.miss_compulsory"), 1);
        assert_eq!(c.stats.get("shader_load.hit"), 0);
    }

    #[test]
    fn paper_configs_construct() {
        let l1 = Cache::new(CacheConfig::l1d_baseline());
        assert_eq!(l1.hit_latency(), 20);
        let l2 = Cache::new(CacheConfig::l2_baseline());
        assert_eq!(l2.hit_latency(), 160);
        assert_eq!(l2.config().num_sets(), 3 * 1024 * 1024 / 32 / 16);
    }

    #[test]
    fn fill_installs_the_whole_line() {
        // Fills are line-granular: after one fill, every byte offset within
        // the 32 B line hits, and the neighbouring lines stay absent.
        let mut c = tiny_cache(8, 0);
        assert_eq!(
            c.access(0x107, AccessKind::ShaderLoad, 0),
            CacheOutcome::MissToMemory
        );
        c.fill(0x107, 1);
        for offset in [0u64, 1, 13, 31] {
            assert_eq!(
                c.access(0x100 + offset, AccessKind::ShaderLoad, 2),
                CacheOutcome::Hit,
                "offset {offset} within the filled line must hit"
            );
        }
        assert_eq!(
            c.access(0x0E0, AccessKind::ShaderLoad, 3),
            CacheOutcome::MissToMemory
        );
        assert_eq!(
            c.access(0x120, AccessKind::ShaderLoad, 3),
            CacheOutcome::MissToMemory
        );
    }

    // -----------------------------------------------------------------
    // Property tests (vksim-testkit): randomized access streams against
    // the cache's accounting invariants.
    // -----------------------------------------------------------------

    mod properties {
        use super::*;
        use vksim_testkit::prop::{check, u32_in, u64_in, usize_in, vec_of};
        use vksim_testkit::{prop_assert, prop_assert_eq};

        fn build(lines: u64, assoc: u32, mshr_entries: usize, mshr_merge: usize) -> Cache {
            Cache::new(CacheConfig {
                name: "P".into(),
                size_bytes: lines * 32,
                line_bytes: 32,
                assoc,
                hit_latency: 1,
                mshr_entries,
                mshr_merge,
            })
        }

        /// Every access is accounted exactly once: the outcome tallies must
        /// reconcile with the classified statistics counters, and draining
        /// all outstanding fills must empty the MSHR file.
        #[test]
        fn outcome_tallies_reconcile_with_stats() {
            let stream = vec_of((u64_in(0, 2048), u32_in(0, 3)), 1, 300);
            let geometry = (u64_in(1, 32), u32_in(0, 5), usize_in(1, 8), usize_in(1, 4));
            check(
                &(geometry, stream),
                |((lines, assoc_raw, entries, merge), accs)| {
                    // assoc 0 = fully associative; otherwise clamp to line count.
                    let assoc = if *assoc_raw == 0 {
                        0
                    } else {
                        (*assoc_raw).min(*lines as u32)
                    };
                    let mut c = build(*lines, assoc, *entries, *merge);
                    let (mut hits, mut misses, mut merged, mut resfail) = (0u64, 0u64, 0u64, 0u64);
                    let mut stores = 0u64;
                    for (i, &(addr, kind_raw)) in accs.iter().enumerate() {
                        let kind = match kind_raw {
                            0 => AccessKind::ShaderLoad,
                            1 => AccessKind::ShaderStore,
                            _ => AccessKind::RtUnit,
                        };
                        if kind == AccessKind::ShaderStore {
                            stores += 1;
                        }
                        match c.access(addr, kind, i as u64) {
                            CacheOutcome::Hit => hits += 1,
                            CacheOutcome::MissToMemory => misses += 1,
                            CacheOutcome::MissMerged => merged += 1,
                            CacheOutcome::ReservationFail => {
                                resfail += 1;
                                // Model the SM's retry path: drain one fill so
                                // the stream can make progress.
                                let line = c.mshr.keys().min().copied();
                                if let Some(line) = line {
                                    c.fill(line, i as u64);
                                }
                            }
                        }
                    }
                    prop_assert_eq!(
                        hits + misses + merged + resfail,
                        accs.len() as u64,
                        "every access must have exactly one outcome"
                    );
                    // Store write-throughs report Hit without counting in the
                    // hit statistics; everything else must reconcile.
                    let wt = c.stats.get("shader_store.write_through");
                    prop_assert!(wt <= stores);
                    prop_assert_eq!(c.total_hits() + wt, hits);
                    prop_assert_eq!(c.total_misses(), misses);
                    prop_assert_eq!(c.stats.get("mshr.merged"), merged);
                    prop_assert_eq!(
                        c.stats.get("mshr.full") + c.stats.get("mshr.merge_fail"),
                        resfail
                    );
                    // Draining every outstanding fill empties the MSHR file.
                    let outstanding: Vec<u64> = c.mshr.keys().copied().collect();
                    prop_assert!(outstanding.len() <= *entries);
                    for line in outstanding {
                        prop_assert!(c.fill(line, u64::MAX) >= 1);
                    }
                    prop_assert_eq!(c.mshr_in_use(), 0);
                    Ok(())
                },
            );
        }

        /// Compulsory misses never exceed the number of distinct lines read,
        /// and re-reading a filled working set that fits in the cache hits
        /// on every line (LRU keeps a fitting working set resident).
        #[test]
        fn fitting_working_set_stays_resident() {
            let geometry = (u64_in(2, 32), usize_in(1, 32));
            check(
                &(geometry, u64_in(0, 1 << 20)),
                |&((lines, set_size), base)| {
                    let set_size = set_size.min(lines as usize);
                    let mut c = build(lines, 0, 64, 8);
                    let addrs: Vec<u64> = (0..set_size).map(|i| base + i as u64 * 32).collect();
                    for (i, &a) in addrs.iter().enumerate() {
                        match c.access(a, AccessKind::ShaderLoad, i as u64) {
                            CacheOutcome::MissToMemory => {
                                c.fill(a, i as u64);
                            }
                            CacheOutcome::Hit => {}
                            other => prop_assert!(false, "unexpected outcome {other:?}"),
                        }
                    }
                    let distinct = addrs
                        .iter()
                        .map(|a| a / 32)
                        .collect::<std::collections::HashSet<_>>();
                    prop_assert_eq!(
                        c.stats.get("shader_load.miss_compulsory"),
                        distinct.len() as u64
                    );
                    // Second pass: the whole set must be resident.
                    for (i, &a) in addrs.iter().enumerate() {
                        prop_assert_eq!(
                            c.access(a, AccessKind::ShaderLoad, (set_size + i) as u64),
                            CacheOutcome::Hit,
                            "warm line {a:#x} must still be resident"
                        );
                    }
                    Ok(())
                },
            );
        }

        /// Thrashing an over-capacity working set through a tiny cache
        /// evicts: the second pass classifies non-compulsory misses and
        /// never reports more hits than capacity allows.
        #[test]
        fn over_capacity_streams_evict_and_classify() {
            check(&(u64_in(1, 8), u64_in(2, 4)), |&(lines, over)| {
                let mut c = build(lines, 0, 64, 8);
                let n = (lines * over) as usize; // strictly larger than capacity
                let mut now = 0u64;
                for pass in 0..2u64 {
                    for i in 0..n {
                        now += 1;
                        let a = i as u64 * 32;
                        if c.access(a, AccessKind::ShaderLoad, now) == CacheOutcome::MissToMemory {
                            c.fill(a, now);
                        }
                        let _ = pass;
                    }
                }
                let compulsory = c.stats.get("shader_load.miss_compulsory");
                let capacity = c.stats.get("shader_load.miss_capacity");
                let conflict = c.stats.get("shader_load.miss_conflict");
                prop_assert_eq!(
                    compulsory,
                    n as u64,
                    "first touch of every line is compulsory"
                );
                prop_assert!(
                    capacity + conflict > 0,
                    "sequential over-capacity re-walk must evict and re-miss \
                     (lines {lines}, n {n}, capacity {capacity}, conflict {conflict})"
                );
                prop_assert_eq!(c.total_hits(), 0, "LRU sequential thrash cannot hit");
                Ok(())
            });
        }

        /// `replay_refusals(line, n)`, with the `n` counted under the
        /// refusing check, leaves the cache byte for byte as `n` refused
        /// reads of `line` do, under either check and after random traffic
        /// that churns the classification shadow.
        #[test]
        fn replayed_refusals_equal_refused_reads() {
            let traffic = vec_of((u64_in(0, 40), u32_in(0, 1)), 0, 60);
            check(
                &(traffic, u32_in(0, 1), u64_in(0, 5)),
                |(traffic, merge_full, n)| {
                    let mut c = build(8, 2, 3, 2);
                    for (i, &(line, fill)) in traffic.iter().enumerate() {
                        if fill == 1 {
                            c.fill(line * 32, i as u64);
                        } else {
                            c.access(line * 32, AccessKind::ShaderLoad, i as u64);
                        }
                    }
                    // Free the MSHR file, then fill the target's merge
                    // slots (`MergeFull`) or the whole file (`MshrFull`).
                    for line in c.mshr.keys().copied().collect::<Vec<_>>() {
                        c.fill(line, 0);
                    }
                    let target = 100 * 32;
                    let (setup, check) = if *merge_full == 1 {
                        (vec![target; 2], Refusal::MergeFull)
                    } else {
                        ((200..203).map(|l| l * 32).collect(), Refusal::MshrFull)
                    };
                    for addr in setup {
                        c.access(addr, AccessKind::ShaderLoad, 0);
                    }
                    prop_assert_eq!(
                        c.access(target, AccessKind::RtUnit, 0),
                        CacheOutcome::ReservationFail
                    );
                    prop_assert_eq!(c.would_refuse(target), Some(check));
                    let mut accessed = c.clone();
                    for _ in 0..*n {
                        prop_assert_eq!(
                            accessed.access(target, AccessKind::RtUnit, 0),
                            CacheOutcome::ReservationFail
                        );
                    }
                    c.replay_refusals(target, *n);
                    c.stats.add(check.counter(), *n);
                    prop_assert_eq!(c.stamp, accessed.stamp);
                    prop_assert!(c.stats == accessed.stats, "stats differ");
                    let bytes = |c: &Cache| {
                        let mut e = Enc::new();
                        c.save(&mut e);
                        e.into_bytes()
                    };
                    prop_assert!(bytes(&c) == bytes(&accessed), "snapshot bytes differ");
                    Ok(())
                },
            );
        }

        /// MSHR merge bookkeeping: k merged requesters on one line are all
        /// released by a single fill, and the merge cap bounds k.
        #[test]
        fn mshr_merge_released_by_one_fill() {
            check(
                &(usize_in(1, 8), usize_in(1, 12)),
                |&(merge_cap, requesters)| {
                    let mut c = build(16, 0, 4, merge_cap);
                    prop_assert_eq!(
                        c.access(0x40, AccessKind::ShaderLoad, 0),
                        CacheOutcome::MissToMemory
                    );
                    let mut merged = 0usize;
                    for i in 0..requesters {
                        match c.access(0x40, AccessKind::RtUnit, 1 + i as u64) {
                            CacheOutcome::MissMerged => merged += 1,
                            CacheOutcome::ReservationFail => {}
                            other => prop_assert!(false, "unexpected outcome {other:?}"),
                        }
                    }
                    prop_assert_eq!(merged, requesters.min(merge_cap - 1));
                    prop_assert_eq!(
                        c.fill(0x40, 100),
                        1 + merged,
                        "fill releases every requester"
                    );
                    prop_assert_eq!(c.mshr_in_use(), 0);
                    prop_assert_eq!(
                        c.access(0x40, AccessKind::ShaderLoad, 101),
                        CacheOutcome::Hit
                    );
                    Ok(())
                },
            );
        }
    }

    #[test]
    fn sliced_config_divides_capacity_and_mshrs() {
        let l2 = CacheConfig::l2_baseline();
        assert_eq!(l2.sliced(1), l2, "slice by 1 is the identity");
        let s = l2.sliced(8);
        assert_eq!(s.size_bytes, l2.size_bytes / 8);
        assert_eq!(s.mshr_entries, l2.mshr_entries / 8);
        assert_eq!(s.assoc, l2.assoc);
        assert_eq!(s.hit_latency, l2.hit_latency);
        // Degenerate slicing floors at one line / one MSHR.
        let tiny = CacheConfig {
            size_bytes: 64,
            mshr_entries: 2,
            ..l2
        }
        .sliced(16);
        assert_eq!(tiny.size_bytes, tiny.line_bytes as u64);
        assert_eq!(tiny.mshr_entries, 1);
    }
}
