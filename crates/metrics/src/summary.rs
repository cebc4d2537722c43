//! Streaming summary statistics (Welford's online algorithm).

/// Single-pass summary statistics over a stream of samples.
///
/// Uses Welford's online algorithm, so it is numerically stable for long
/// simulations and supports merging partial results from parallel runs.
///
/// # Examples
///
/// ```
/// use utilbp_metrics::SummaryStats;
///
/// let mut s = SummaryStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.record(x);
/// }
/// assert_eq!(s.count(), 8);
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.population_variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SummaryStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl SummaryStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        SummaryStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples recorded.
    pub const fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or 0 for an empty accumulator.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Minimum sample, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum sample, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Population variance (`σ²`), or 0 for fewer than one sample.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample variance (Bessel-corrected), or 0 for fewer than two samples.
    pub(crate) fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Appends the accumulator to a checkpoint stream, bit-exactly
    /// (floats via `to_bits`, so a restored accumulator continues the
    /// identical floating-point trajectory).
    pub fn save_state(&self, writer: &mut utilbp_core::state::StateWriter) {
        writer.push(self.count);
        writer.push_f64(self.mean);
        writer.push_f64(self.m2);
        writer.push_f64(self.min);
        writer.push_f64(self.max);
    }

    /// Reads an accumulator written by [`save_state`](Self::save_state).
    ///
    /// # Errors
    ///
    /// [`StateError`](utilbp_core::state::StateError) on a truncated
    /// stream.
    pub(crate) fn load_state(
        reader: &mut utilbp_core::state::StateReader<'_>,
    ) -> Result<Self, utilbp_core::state::StateError> {
        Ok(SummaryStats {
            count: reader.take_count("summary count")?,
            mean: reader.take_f64()?,
            m2: reader.take_f64()?,
            min: reader.take_f64()?,
            max: reader.take_f64()?,
        })
    }

    /// Merges another accumulator into this one (Chan's parallel update).
    /// Useful when aggregating per-thread partial statistics.
    pub fn merge(&mut self, other: &SummaryStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_accumulator_is_inert() {
        let s = SummaryStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.population_variance(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
    }

    #[test]
    fn single_sample_statistics() {
        let mut s = SummaryStats::new();
        s.record(42.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.min(), Some(42.0));
        assert_eq!(s.max(), Some(42.0));
        assert_eq!(s.population_variance(), 0.0);
        assert_eq!(s.sample_variance(), 0.0, "Bessel needs two samples");
    }

    #[test]
    fn matches_two_pass_computation() {
        let data = [1.5, -2.0, 3.25, 7.0, 0.0, -5.5, 2.125];
        let mut s = SummaryStats::new();
        for &x in &data {
            s.record(x);
        }
        let n = data.len() as f64;
        let mean = data.iter().sum::<f64>() / n;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.population_variance() - var).abs() < 1e-12);
        assert_eq!(s.min(), Some(-5.5));
        assert_eq!(s.max(), Some(7.0));
    }

    #[test]
    fn merge_equals_sequential() {
        let left = [1.0, 2.0, 3.0, 4.0];
        let right = [10.0, 20.0, 30.0];
        let mut a = SummaryStats::new();
        for &x in &left {
            a.record(x);
        }
        let mut b = SummaryStats::new();
        for &x in &right {
            b.record(x);
        }
        let mut merged = a;
        merged.merge(&b);

        let mut seq = SummaryStats::new();
        for &x in left.iter().chain(&right) {
            seq.record(x);
        }
        assert_eq!(merged.count(), seq.count());
        assert!((merged.mean() - seq.mean()).abs() < 1e-12);
        assert!((merged.population_variance() - seq.population_variance()).abs() < 1e-12);
        assert_eq!(merged.min(), seq.min());
        assert_eq!(merged.max(), seq.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = SummaryStats::new();
        a.record(5.0);
        let before = a;
        a.merge(&SummaryStats::new());
        assert_eq!(a, before);

        let mut empty = SummaryStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }
}
