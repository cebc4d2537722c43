//! Fixed-bin histograms with percentile queries.

/// A histogram over non-negative samples with uniform bin width, plus an
/// overflow bin. The tick profiler keeps one per section, for lap-time
/// percentiles: means hide the tail.
///
/// # Examples
///
/// ```
/// use utilbp_metrics::Histogram;
///
/// let mut h = Histogram::new(10.0, 20); // 20 bins of 10 s
/// for w in [5.0, 15.0, 15.0, 40.0, 250.0] {
///     h.record(w);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.overflow(), 1); // 250 s exceeds 20 × 10 s
/// assert!(h.percentile(50.0).unwrap() <= 20.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bin_width: f64,
    bins: Vec<u64>,
    overflow: u64,
    count: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` bins of `bin_width` each.
    ///
    /// # Panics
    ///
    /// Panics if `bin_width` is not strictly positive and finite, or if
    /// `bins` is zero.
    pub fn new(bin_width: f64, bins: usize) -> Self {
        assert!(
            bin_width.is_finite() && bin_width > 0.0,
            "bin_width must be positive"
        );
        assert!(bins > 0, "at least one bin required");
        Histogram {
            bin_width,
            bins: vec![0; bins],
            overflow: 0,
            count: 0,
        }
    }

    /// Records one sample. Negative samples clamp into the first bin.
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        let idx = (value.max(0.0) / self.bin_width).floor() as usize;
        if idx < self.bins.len() {
            self.bins[idx] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Total samples recorded.
    pub const fn count(&self) -> u64 {
        self.count
    }

    /// Samples beyond the last bin.
    pub const fn overflow(&self) -> u64 {
        self.overflow
    }

    /// The bin counts (without the overflow bin).
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// The bin width.
    pub const fn bin_width(&self) -> f64 {
        self.bin_width
    }

    /// The `p`-th percentile (0–100), as the upper edge of the bin where
    /// the cumulative count crosses `p`% — `None` if empty or if the
    /// percentile falls into the overflow bin.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0,100]");
        if self.count == 0 {
            return None;
        }
        let target = (p / 100.0 * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, &n) in self.bins.iter().enumerate() {
            cumulative += n;
            if cumulative >= target {
                return Some((i as f64 + 1.0) * self.bin_width);
            }
        }
        None // falls in the overflow bin
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_correct_bins() {
        let mut h = Histogram::new(10.0, 3);
        h.record(0.0);
        h.record(9.99);
        h.record(10.0);
        h.record(25.0);
        h.record(30.0); // exactly at the edge → overflow
        h.record(-5.0); // clamps to bin 0
        assert_eq!(h.bins(), &[3, 1, 1]);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(), 6);
    }

    #[test]
    fn percentiles_walk_the_cumulative_distribution() {
        let mut h = Histogram::new(1.0, 100);
        for i in 0..100 {
            h.record(i as f64 + 0.5);
        }
        assert_eq!(h.percentile(1.0), Some(1.0));
        assert_eq!(h.percentile(50.0), Some(50.0));
        assert_eq!(h.percentile(99.0), Some(99.0));
        assert_eq!(h.percentile(100.0), Some(100.0));
    }

    #[test]
    fn empty_and_overflow_percentiles() {
        let h = Histogram::new(10.0, 5);
        assert_eq!(h.percentile(50.0), None);

        let mut h = Histogram::new(10.0, 2);
        h.record(500.0);
        assert_eq!(h.percentile(50.0), None, "overflow has no upper edge");
    }

    #[test]
    #[should_panic(expected = "bin_width")]
    fn rejects_bad_bin_width() {
        let _ = Histogram::new(0.0, 3);
    }
}
