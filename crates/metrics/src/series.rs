//! Named time series sampled at discrete ticks.

use utilbp_core::Tick;

use crate::SummaryStats;

/// A named sequence of `(tick, value)` samples, in non-decreasing tick
/// order.
///
/// # Examples
///
/// ```
/// use utilbp_core::Tick;
/// use utilbp_metrics::TimeSeries;
///
/// let mut queue_len = TimeSeries::new("queue length");
/// queue_len.push(Tick::new(0), 0.0);
/// queue_len.push(Tick::new(1), 3.0);
/// assert_eq!(queue_len.len(), 2);
/// assert_eq!(queue_len.points()[1], (Tick::new(1), 3.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    name: String,
    points: Vec<(Tick, f64)>,
}

impl TimeSeries {
    /// Creates an empty series with a display name.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// The series' display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics if `tick` precedes the last recorded tick (in every build
    /// profile: samples arrive on the gauge cadence, so the check is
    /// off the per-vehicle hot path).
    pub fn push(&mut self, tick: Tick, value: f64) {
        assert!(
            self.points.last().is_none_or(|&(t, _)| t <= tick),
            "time series samples must be pushed in tick order"
        );
        self.points.push((tick, value));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Iterates over `(tick, value)` samples in order.
    pub fn iter(&self) -> impl Iterator<Item = (Tick, f64)> + '_ {
        self.points.iter().copied()
    }

    /// The samples as a slice.
    pub fn points(&self) -> &[(Tick, f64)] {
        &self.points
    }

    /// Summary statistics over the values.
    pub(crate) fn stats(&self) -> SummaryStats {
        let mut s = SummaryStats::new();
        for &(_, v) in &self.points {
            s.record(v);
        }
        s
    }

    /// Mean of the values (0 if empty).
    pub fn mean(&self) -> f64 {
        self.stats().mean()
    }

    /// Maximum value, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        self.stats().max()
    }

    /// Keeps every `stride`-th sample (always keeping the first), returning
    /// a thinned copy — useful before plotting long runs.
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0`.
    #[must_use]
    pub fn decimate(&self, stride: usize) -> TimeSeries {
        assert!(stride > 0, "stride must be positive");
        TimeSeries {
            name: self.name.clone(),
            points: self.points.iter().step_by(stride).copied().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_query() {
        let mut s = TimeSeries::new("s");
        assert!(s.is_empty());
        s.push(Tick::new(0), 1.0);
        s.push(Tick::new(2), 5.0);
        s.push(Tick::new(2), 6.0); // equal ticks allowed
        assert_eq!(s.len(), 3);
        assert_eq!(s.points().last(), Some(&(Tick::new(2), 6.0)));
        assert_eq!(s.points()[1], (Tick::new(2), 5.0));
        assert_eq!(s.name(), "s");
    }

    #[test]
    #[should_panic(expected = "tick order")]
    fn rejects_out_of_order_ticks() {
        let mut s = TimeSeries::new("s");
        s.push(Tick::new(5), 1.0);
        s.push(Tick::new(4), 2.0);
    }

    #[test]
    fn stats_over_values() {
        let mut s = TimeSeries::new("s");
        for (i, v) in [2.0, 4.0, 6.0].into_iter().enumerate() {
            s.push(Tick::new(i as u64), v);
        }
        assert_eq!(s.mean(), 4.0);
        assert_eq!(s.max(), Some(6.0));
        assert_eq!(s.stats().count(), 3);
    }

    #[test]
    fn decimation_keeps_first_and_strides() {
        let mut s = TimeSeries::new("s");
        for i in 0..10 {
            s.push(Tick::new(i), i as f64);
        }
        let d = s.decimate(4);
        let ticks: Vec<u64> = d.iter().map(|(t, _)| t.index()).collect();
        assert_eq!(ticks, vec![0, 4, 8]);
        assert_eq!(d.name(), "s");
    }
}
