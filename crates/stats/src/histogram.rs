//! Fixed-width-bin histogram.

use std::fmt;

/// A histogram with uniform bin width, used for warp-latency distributions
/// (paper Fig. 13) and RT-unit occupancy timelines (Fig. 18).
///
/// Bins grow on demand; values are non-negative.
///
/// # Example
///
/// ```
/// use vksim_stats::Histogram;
/// let mut h = Histogram::new(100.0);
/// for v in [10.0, 50.0, 150.0, 220.0] {
///     h.record(v);
/// }
/// assert_eq!(h.bin_count(0), 2);
/// assert_eq!(h.bin_count(1), 1);
/// assert_eq!(h.bin_count(2), 1);
/// assert_eq!(h.count(), 4);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Histogram {
    bin_width: f64,
    bins: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// Creates an empty histogram with the given bin width.
    ///
    /// # Panics
    ///
    /// Panics if `bin_width` is not strictly positive and finite.
    pub fn new(bin_width: f64) -> Self {
        assert!(
            bin_width > 0.0 && bin_width.is_finite(),
            "bin width must be positive and finite"
        );
        Histogram {
            bin_width,
            bins: Vec::new(),
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records a sample. Negative values clamp into the first bin.
    pub fn record(&mut self, value: f64) {
        let v = value.max(0.0);
        let idx = (v / self.bin_width) as usize;
        if idx >= self.bins.len() {
            self.bins.resize(idx + 1, 0);
        }
        self.bins[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest recorded sample (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Count in bin `idx` (0 for out-of-range bins).
    pub fn bin_count(&self, idx: usize) -> u64 {
        self.bins.get(idx).copied().unwrap_or(0)
    }

    /// Number of allocated bins.
    pub fn num_bins(&self) -> usize {
        self.bins.len()
    }

    /// The bin width this histogram was created with.
    pub fn bin_width(&self) -> f64 {
        self.bin_width
    }

    /// Approximate p-th percentile (`0.0..=1.0`) using bin upper edges,
    /// clamped to the recorded maximum (a bare upper edge would over-report
    /// by up to one bin width — e.g. `percentile(1.0)` past `max()`).
    ///
    /// Returns `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let p = p.clamp(0.0, 1.0);
        let target = (p * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.bins.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(((i as f64 + 1.0) * self.bin_width).min(self.max));
            }
        }
        Some((self.bins.len() as f64 * self.bin_width).min(self.max))
    }

    /// Merges another histogram into this one.
    ///
    /// # Panics
    ///
    /// Panics if the bin widths differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bin_width, other.bin_width,
            "bin width mismatch in merge"
        );
        if other.bins.len() > self.bins.len() {
            self.bins.resize(other.bins.len(), 0);
        }
        for (dst, src) in self.bins.iter_mut().zip(&other.bins) {
            *dst += src;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Iterates `(bin_lower_edge, count)` over non-empty bins.
    pub fn iter(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.bins
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(move |(i, &c)| (i as f64 * self.bin_width, c))
    }
}

// Snapshot encoding: the full state, empty trailing bins and the running
// min/max/sum included, so a restored histogram is indistinguishable from
// the original.
vksim_snapshot::snap_struct!(Histogram {
    bin_width,
    bins,
    count,
    sum,
    min,
    max
});

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "histogram (n={}, mean={:.2})", self.count, self.mean())?;
        for (edge, c) in self.iter() {
            writeln!(f, "  [{edge:>12.1}, {:>12.1}) {c}", edge + self.bin_width)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vksim_snapshot::Snap;

    #[test]
    fn records_into_correct_bins() {
        let mut h = Histogram::new(10.0);
        h.record(0.0);
        h.record(9.999);
        h.record(10.0);
        h.record(35.0);
        assert_eq!(h.bin_count(0), 2);
        assert_eq!(h.bin_count(1), 1);
        assert_eq!(h.bin_count(3), 1);
        assert_eq!(h.num_bins(), 4);
    }

    #[test]
    fn summary_statistics() {
        let mut h = Histogram::new(1.0);
        for v in [1.0, 2.0, 3.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.mean(), 2.0);
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(3.0));
    }

    #[test]
    fn empty_histogram_defaults() {
        let h = Histogram::new(5.0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), None);
        assert_eq!(h.percentile(0.5), None);
    }

    #[test]
    fn negative_values_clamp_to_first_bin() {
        let mut h = Histogram::new(10.0);
        h.record(-5.0);
        assert_eq!(h.bin_count(0), 1);
        assert_eq!(h.min(), Some(0.0));
    }

    #[test]
    fn percentile_monotone() {
        let mut h = Histogram::new(10.0);
        for i in 0..100 {
            h.record(i as f64);
        }
        let p50 = h.percentile(0.5).unwrap();
        let p95 = h.percentile(0.95).unwrap();
        let p100 = h.percentile(1.0).unwrap();
        assert!(p50 <= p95 && p95 <= p100);
        assert_eq!(p50, 50.0);
        assert_eq!(p100, 99.0, "p100 is the recorded max, not a bin edge");
    }

    #[test]
    fn p100_never_exceeds_max() {
        let mut h = Histogram::new(1000.0);
        for v in [12.0, 700.0, 701.5] {
            h.record(v);
        }
        assert_eq!(h.percentile(1.0), Some(701.5));
        assert_eq!(h.percentile(1.0), h.max());
    }

    #[test]
    fn single_sample_percentiles_report_the_sample() {
        // Regression: a lone 3.0 in a width-1000 histogram used to report
        // every percentile as the bin upper edge, 1000.0.
        let mut h = Histogram::new(1000.0);
        h.record(3.0);
        assert_eq!(h.percentile(0.0), Some(3.0));
        assert_eq!(h.percentile(0.5), Some(3.0));
        assert_eq!(h.percentile(1.0), Some(3.0));
    }

    #[test]
    #[should_panic(expected = "bin width")]
    fn zero_bin_width_panics() {
        let _ = Histogram::new(0.0);
    }

    #[test]
    fn snapshot_round_trip_preserves_everything() {
        let mut h = Histogram::new(10.0);
        for v in [1.0, 250.5, 3.25] {
            h.record(v);
        }
        let mut e = vksim_snapshot::Enc::new();
        h.save(&mut e);
        let bytes = e.into_bytes();
        let back = Histogram::load(&mut vksim_snapshot::Dec::new(&bytes)).unwrap();
        assert_eq!(back, h);
        // An empty histogram's infinite min/max round-trip through bits.
        let empty = Histogram::new(2.0);
        let mut e = vksim_snapshot::Enc::new();
        empty.save(&mut e);
        let bytes = e.into_bytes();
        let back = Histogram::load(&mut vksim_snapshot::Dec::new(&bytes)).unwrap();
        assert_eq!(back, empty);
        assert_eq!(back.min(), None);
    }

    #[test]
    fn iter_skips_empty_bins() {
        let mut h = Histogram::new(1.0);
        h.record(0.5);
        h.record(5.5);
        let bins: Vec<(f64, u64)> = h.iter().collect();
        assert_eq!(bins, vec![(0.0, 1), (5.0, 1)]);
    }
}
