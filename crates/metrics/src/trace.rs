//! Run-length-compressed phase traces (the data behind the paper's
//! Figs. 3–4).

use utilbp_core::{PhaseDecision, Tick, Ticks};

/// Records which phase a controller applied at every tick, compressed as
/// runs of equal values.
///
/// Values follow the paper's plotting convention
/// ([`PhaseDecision::trace_value`]): 0 is the transition (amber) phase,
/// `1..=|C|` are the control phases `c1..`.
///
/// # Examples
///
/// ```
/// use utilbp_core::{PhaseDecision, PhaseId, Tick};
/// use utilbp_metrics::PhaseTrace;
///
/// let mut trace = PhaseTrace::new("top-right intersection");
/// trace.record(Tick::new(0), PhaseDecision::Control(PhaseId::new(0)));
/// trace.record(Tick::new(1), PhaseDecision::Control(PhaseId::new(0)));
/// trace.record(Tick::new(2), PhaseDecision::Transition);
/// assert_eq!(trace.num_switches(), 1);
/// assert_eq!(trace.expand(), [1, 1, 0]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseTrace {
    name: String,
    /// `(start_tick, trace_value)` for each run of equal values.
    runs: Vec<(Tick, u8)>,
    /// One past the last recorded tick.
    end: Tick,
}

impl PhaseTrace {
    /// Creates an empty trace with a display name.
    pub fn new(name: impl Into<String>) -> Self {
        PhaseTrace {
            name: name.into(),
            runs: Vec::new(),
            end: Tick::ZERO,
        }
    }

    /// The trace's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Records the decision applied during `[tick, tick+1)`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `tick` precedes the previously recorded
    /// tick (traces must be recorded in order).
    pub fn record(&mut self, tick: Tick, decision: PhaseDecision) {
        debug_assert!(
            tick + Ticks::ONE >= self.end,
            "phase trace must be recorded in tick order"
        );
        let value = decision.trace_value();
        match self.runs.last() {
            Some(&(_, last)) if last == value => {}
            _ => self.runs.push((tick, value)),
        }
        self.end = tick.next();
    }

    /// The run-length representation: `(start_tick, trace_value)` pairs.
    pub fn segments(&self) -> &[(Tick, u8)] {
        &self.runs
    }

    /// One past the last recorded tick.
    pub fn end(&self) -> Tick {
        self.end
    }

    /// Number of value changes (each paid transition *and* each phase
    /// activation counts as one change).
    pub fn num_switches(&self) -> usize {
        self.runs.len().saturating_sub(1)
    }

    /// Number of amber periods (runs with value 0).
    pub fn num_transitions(&self) -> usize {
        self.runs.iter().filter(|&&(_, v)| v == 0).count()
    }

    /// Total ticks spent at `value` within the recorded range.
    pub fn time_at(&self, value: u8) -> Ticks {
        let mut total = Ticks::ZERO;
        for (i, &(start, v)) in self.runs.iter().enumerate() {
            if v != value {
                continue;
            }
            let end = self.runs.get(i + 1).map(|&(s, _)| s).unwrap_or(self.end);
            total += end - start;
        }
        total
    }

    /// Durations of every run with `value`, in order — e.g. the green-time
    /// distribution of one phase.
    pub fn run_lengths(&self, value: u8) -> Vec<Ticks> {
        let mut out = Vec::new();
        for (i, &(start, v)) in self.runs.iter().enumerate() {
            if v != value {
                continue;
            }
            let end = self.runs.get(i + 1).map(|&(s, _)| s).unwrap_or(self.end);
            out.push(end - start);
        }
        out
    }

    /// Expands the trace into per-tick values over the recorded range.
    pub fn expand(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.end.index() as usize);
        for (i, &(start, v)) in self.runs.iter().enumerate() {
            let end = self.runs.get(i + 1).map(|&(s, _)| s).unwrap_or(self.end);
            for _ in start.index()..end.index() {
                out.push(v);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use utilbp_core::PhaseId;

    fn control(i: u8) -> PhaseDecision {
        PhaseDecision::Control(PhaseId::new(i))
    }

    #[test]
    fn compresses_runs() {
        let mut t = PhaseTrace::new("x");
        for k in 0..5 {
            t.record(Tick::new(k), control(0));
        }
        for k in 5..8 {
            t.record(Tick::new(k), PhaseDecision::Transition);
        }
        for k in 8..10 {
            t.record(Tick::new(k), control(2));
        }
        assert_eq!(t.segments().len(), 3);
        assert_eq!(t.segments()[0], (Tick::new(0), 1));
        assert_eq!(t.segments()[1], (Tick::new(5), 0));
        assert_eq!(t.segments()[2], (Tick::new(8), 3));
        assert_eq!(t.end(), Tick::new(10));
        assert_eq!(t.num_switches(), 2);
        assert_eq!(t.num_transitions(), 1);
    }

    #[test]
    fn value_lookup_and_durations() {
        let mut t = PhaseTrace::new("x");
        for k in 0..4 {
            t.record(Tick::new(k), control(1));
        }
        for k in 4..6 {
            t.record(Tick::new(k), PhaseDecision::Transition);
        }
        for k in 6..9 {
            t.record(Tick::new(k), control(1));
        }
        assert_eq!(t.expand(), [2, 2, 2, 2, 0, 0, 2, 2, 2]);
        assert_eq!(t.time_at(2), Ticks::new(7));
        assert_eq!(t.time_at(0), Ticks::new(2));
        assert_eq!(t.run_lengths(2), vec![Ticks::new(4), Ticks::new(3)]);
    }

    #[test]
    fn expand_reconstructs_per_tick_values() {
        let mut t = PhaseTrace::new("x");
        t.record(Tick::new(0), control(0));
        t.record(Tick::new(1), control(0));
        t.record(Tick::new(2), PhaseDecision::Transition);
        assert_eq!(t.expand(), vec![1, 1, 0]);
    }

    #[test]
    fn empty_trace_is_well_behaved() {
        let t = PhaseTrace::new("x");
        assert_eq!(t.segments().len(), 0);
        assert_eq!(t.num_switches(), 0);
        assert_eq!(t.expand(), Vec::<u8>::new());
    }
}
