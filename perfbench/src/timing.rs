//! Outside-in timing for the traced run: a `SignalController` decorator
//! injected through the engine's controller factory, and the calibrated
//! cost of reading the clock.

use std::cell::RefCell;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use utilbp_core::state::{StateError, StateReader, StateWriter};
use utilbp_core::{IntersectionView, PhaseDecision, SignalController, Tick};

/// Per-controller `decide` totals. Each decorator owns one and is the
/// only writer (the engine calls it through `&mut self`), so the
/// counters are updated with a plain load and store; the benchmark reads
/// them between steps. `Relaxed` suffices: they publish no other data.
#[derive(Debug, Default)]
struct DecideStats {
    calls: AtomicU64,
    raw_ns: AtomicU64,
}

impl DecideStats {
    fn add(&self, ns: u64) {
        self.calls
            .store(self.calls.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        self.raw_ns
            .store(self.raw_ns.load(Ordering::Relaxed) + ns, Ordering::Relaxed);
    }
}

/// Times every `decide` of the controller it wraps; everything else is
/// forwarded untouched, so the run's decisions and checkpoints are those
/// of the bare controller.
struct TimedController {
    inner: Box<dyn SignalController>,
    stats: Arc<DecideStats>,
}

impl SignalController for TimedController {
    fn decide(&mut self, view: &IntersectionView<'_>, now: Tick) -> PhaseDecision {
        let start = Instant::now();
        let decision = self.inner.decide(view, now);
        self.stats.add(start.elapsed().as_nanos() as u64);
        decision
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn save_state(&self, writer: &mut StateWriter) {
        self.inner.save_state(writer);
    }

    fn load_state(&mut self, reader: &mut StateReader<'_>) -> Result<(), StateError> {
        self.inner.load_state(reader)
    }
}

/// Hands out timed controllers and sums their statistics.
#[derive(Default)]
pub struct DecideProbe {
    stats: RefCell<Vec<Arc<DecideStats>>>,
}

impl DecideProbe {
    /// Wraps `inner` in a timed decorator registered with this probe.
    pub fn wrap(&self, inner: Box<dyn SignalController>) -> Box<dyn SignalController> {
        let stats = Arc::new(DecideStats::default());
        self.stats.borrow_mut().push(Arc::clone(&stats));
        Box::new(TimedController { inner, stats })
    }

    /// Total `(calls, raw nanoseconds)` over every registered decorator.
    pub fn totals(&self) -> (u64, u64) {
        self.stats.borrow().iter().fold((0, 0), |(calls, ns), s| {
            (
                calls + s.calls.load(Ordering::Relaxed),
                ns + s.raw_ns.load(Ordering::Relaxed),
            )
        })
    }
}

/// The reading an empty `Instant::now()` … `elapsed()` interval gives,
/// in nanoseconds: the median over batches of the mean of many empty
/// intervals. Subtracted from each timed `decide`, whose own cost is
/// within a few multiples of it.
pub fn clock_cost_ns() -> f64 {
    const BATCH: u32 = 20_000;
    let mut means: Vec<f64> = (0..9)
        .map(|_| {
            let mut total = 0u128;
            for _ in 0..BATCH {
                let start = Instant::now();
                total += black_box(start.elapsed()).as_nanos();
            }
            total as f64 / f64::from(BATCH)
        })
        .collect();
    median(&mut means)
}

/// The median of `values` (sorted in place); `NaN` when empty.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;
    use utilbp_core::UtilBp;
    use utilbp_scenario::parse_scenario;

    #[test]
    fn timed_controllers_leave_the_run_unchanged() {
        let workload = Workload::Grid5IncidentOps;
        let text = workload.scenario_text(1, 2_000);
        let run = |factory: &dyn Fn(usize) -> Box<dyn SignalController>| {
            let spec = parse_scenario(&text).unwrap();
            let mut engine = workload.engine(spec, true, factory).unwrap();
            for _ in 0..600 {
                engine.step();
            }
            (engine.outcome(), engine.checkpoint())
        };
        let probe = DecideProbe::default();
        let timed = run(&|_| probe.wrap(Box::new(UtilBp::paper())));
        assert_eq!(timed, run(&|_| Box::new(UtilBp::paper())));
        let (calls, raw_ns) = probe.totals();
        assert_eq!(calls, 25 * 600, "one decide per intersection per tick");
        assert!(raw_ns > 0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&mut []).is_nan());
    }
}
