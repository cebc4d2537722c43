//! A registry of named gauges sampled on a fixed cadence into
//! [`TimeSeries`].

use utilbp_core::Tick;
use utilbp_metrics::TimeSeries;

/// Handle to one registered gauge. Cheap to copy; only valid for the
/// registry that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GaugeId(usize);

/// Named gauges sampled into per-gauge [`TimeSeries`] every `every`
/// ticks. The driver registers gauges up front, then on each tick asks
/// [`due`](Self::due) once and, when it answers `true`, pushes one
/// sample per gauge — so every series shares the same tick axis and
/// rendering them together needs no alignment.
///
/// # Examples
///
/// ```
/// use utilbp_core::Tick;
/// use utilbp_telemetry::GaugeRegistry;
///
/// let mut gauges = GaugeRegistry::new(10);
/// let backlog = gauges.register("backlog");
/// for t in 0..30 {
///     let tick = Tick::new(t);
///     if gauges.due(tick) {
///         gauges.sample(backlog, tick, t as f64);
///     }
/// }
/// assert_eq!(gauges.series()[0].points().len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct GaugeRegistry {
    every: u64,
    series: Vec<TimeSeries>,
}

impl GaugeRegistry {
    /// A registry sampling every `every` ticks (tick indices divisible
    /// by `every`, including tick 0).
    ///
    /// # Panics
    ///
    /// Panics if `every` is 0.
    pub fn new(every: u64) -> Self {
        assert!(every > 0, "gauge cadence must be at least 1 tick");
        GaugeRegistry {
            every,
            series: Vec::new(),
        }
    }

    /// Registers a gauge under `name` and returns its handle.
    pub fn register(&mut self, name: impl Into<String>) -> GaugeId {
        let id = GaugeId(self.series.len());
        self.series.push(TimeSeries::new(name));
        id
    }

    /// Whether `tick` is a sampling tick.
    pub fn due(&self, tick: Tick) -> bool {
        tick.index().is_multiple_of(self.every)
    }

    /// Appends one sample to `id`'s series.
    pub fn sample(&mut self, id: GaugeId, tick: Tick, value: f64) {
        self.series[id.0].push(tick, value);
    }

    /// All registered series, in registration order.
    pub fn series(&self) -> &[TimeSeries] {
        &self.series
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cadence_gates_sampling_ticks() {
        let gauges = GaugeRegistry::new(25);
        assert!(gauges.due(Tick::new(0)));
        assert!(!gauges.due(Tick::new(24)));
        assert!(gauges.due(Tick::new(25)));
        assert!(gauges.due(Tick::new(250)));
    }

    #[test]
    fn gauges_keep_registration_order() {
        let mut gauges = GaugeRegistry::new(1);
        let a = gauges.register("alpha");
        let b = gauges.register("beta");
        gauges.sample(b, Tick::new(0), 2.0);
        gauges.sample(a, Tick::new(0), 1.0);
        assert_eq!(gauges.series()[0].name(), "alpha");
        assert_eq!(gauges.series()[1].name(), "beta");
        assert_eq!(gauges.series()[0].points(), [(Tick::new(0), 1.0)]);
    }

    #[test]
    #[should_panic(expected = "cadence")]
    fn zero_cadence_is_rejected() {
        let _ = GaugeRegistry::new(0);
    }
}
