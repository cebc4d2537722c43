//! Fixed-bin histograms with percentile queries.

use serde::{Deserialize, Serialize};

/// A histogram over non-negative samples with uniform bin width, plus an
/// overflow bin. Designed for waiting-time distributions, where means hide
/// the tail that drivers actually complain about.
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

    /// Appends the histogram (geometry and counts) to a checkpoint
    /// stream.
    pub fn save_state(&self, writer: &mut utilbp_core::state::StateWriter) {
        writer.push_f64(self.bin_width);
        writer.push_usize(self.bins.len());
        for &n in &self.bins {
            writer.push(n);
        }
        writer.push(self.overflow);
        writer.push(self.count);
    }

    /// Reads a histogram written by [`save_state`](Self::save_state).
    ///
    /// # Errors
    ///
    /// [`StateError`](utilbp_core::state::StateError) when the stream
    /// is truncated or encodes an invalid geometry.
    pub fn load_state(
        reader: &mut utilbp_core::state::StateReader<'_>,
    ) -> Result<Self, utilbp_core::state::StateError> {
        let bin_width = reader.take_f64()?;
        if !(bin_width.is_finite() && bin_width > 0.0) {
            return Err(utilbp_core::state::StateError::Invalid {
                what: "histogram bin width",
                word: bin_width.to_bits(),
            });
        }
        let len = reader.take_len(1, "histogram bin count")?;
        if len == 0 {
            return Err(utilbp_core::state::StateError::Invalid {
                what: "histogram bin count",
                word: 0,
            });
        }
        let mut bins = Vec::with_capacity(len);
        for _ in 0..len {
            bins.push(reader.take()?);
        }
        Ok(Histogram {
            bin_width,
            bins,
            overflow: reader.take()?,
            count: reader.take()?,
        })
    }

    /// Merges another histogram with identical geometry.
    ///
    /// # Panics
    ///
    /// Panics if the bin widths or counts differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bin_width, other.bin_width, "bin width mismatch");
        assert_eq!(self.bins.len(), other.bins.len(), "bin count mismatch");
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.count += other.count;
    }

    /// Renders a compact ASCII bar chart of the distribution.
    pub fn render(&self, width: usize) -> String {
        let max = self.bins.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        for (i, &n) in self.bins.iter().enumerate() {
            let bar = "#".repeat((n as usize * width).div_ceil(max as usize).min(width));
            out.push_str(&format!(
                "{:>8.0}-{:<8.0} {:>7} |{}\n",
                i as f64 * self.bin_width,
                (i + 1) as f64 * self.bin_width,
                n,
                bar
            ));
        }
        if self.overflow > 0 {
            out.push_str(&format!("{:>17} {:>7} |(overflow)\n", ">", self.overflow));
        }
        out
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
    fn merge_adds_counts() {
        let mut a = Histogram::new(5.0, 4);
        a.record(2.0);
        a.record(7.0);
        let mut b = Histogram::new(5.0, 4);
        b.record(7.0);
        b.record(100.0);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.bins(), &[1, 2, 0, 0]);
        assert_eq!(a.overflow(), 1);
    }

    #[test]
    #[should_panic(expected = "bin width mismatch")]
    fn merge_rejects_mismatched_geometry() {
        let mut a = Histogram::new(5.0, 4);
        let b = Histogram::new(10.0, 4);
        a.merge(&b);
    }

    #[test]
    fn render_is_nonempty_and_marks_overflow() {
        let mut h = Histogram::new(10.0, 3);
        h.record(5.0);
        h.record(500.0);
        let s = h.render(20);
        assert!(s.contains('#'));
        assert!(s.contains("overflow"));
    }

    #[test]
    #[should_panic(expected = "bin_width")]
    fn rejects_bad_bin_width() {
        let _ = Histogram::new(0.0, 3);
    }

    #[test]
    fn crafted_huge_bin_count_is_an_error_not_an_abort() {
        use utilbp_core::state::{StateError, StateReader, StateWriter};
        let mut w = StateWriter::new();
        w.push_f64(10.0);
        w.push(u64::MAX / 2);
        w.push(0);
        assert!(matches!(
            Histogram::load_state(&mut StateReader::new(w.bytes())),
            Err(StateError::Invalid {
                what: "histogram bin count",
                ..
            })
        ));
    }
}
