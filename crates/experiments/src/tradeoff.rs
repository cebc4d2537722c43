//! Extension study (paper future work): the stabilization/utilization
//! trade-off, explored through the `α`/`β` penalty space.
//!
//! The paper fixes `α = −1, β = −2` and notes that "β can also be larger
//! than α, depending on the characteristics of the entire traffic network
//! and preference of the traffic control authority". This module sweeps
//! both orderings and magnitudes and reports the resulting queuing times,
//! total throughput, and amber counts.

use utilbp_core::standard::Approach;
use utilbp_core::{GainPenalties, UtilBpConfig};
use utilbp_metrics::TextTable;
use utilbp_netgen::{DemandSchedule, GridNetwork, GridSpec, Pattern};

use crate::options::ExperimentOptions;
use crate::runner::{run_many, Probe};
use crate::scenario::{ControllerKind, Scenario};

/// One penalty combination's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct TradeoffRow {
    /// The `α` penalty used.
    pub alpha: f64,
    /// The `β` penalty used.
    pub beta: f64,
    /// Average queuing time, seconds.
    pub(crate) avg_queuing_time_s: f64,
    /// Completed journeys.
    pub(crate) completed: u64,
    /// Amber activations at the probed (top-right) intersection.
    pub(crate) ambers: usize,
}

/// The trade-off sweep result.
#[derive(Debug, Clone, PartialEq)]
pub struct TradeoffResult {
    /// The pattern used.
    pub(crate) pattern: Pattern,
    /// One row per penalty combination.
    pub(crate) rows: Vec<TradeoffRow>,
}

impl TradeoffResult {
    /// Renders the sweep as a table.
    pub fn render(&self) -> String {
        let mut table = TextTable::new([
            "alpha",
            "beta",
            "Avg queuing [s]",
            "Completed",
            "Ambers @ top-right",
        ]);
        for row in &self.rows {
            table.push_row([
                format!("{}", row.alpha),
                format!("{}", row.beta),
                format!("{:.2}", row.avg_queuing_time_s),
                row.completed.to_string(),
                row.ambers.to_string(),
            ]);
        }
        format!(
            "Stability/utilization trade-off — α/β sweep, Pattern {}\n\n{}",
            self.pattern,
            table.render()
        )
    }

    /// The best (minimum queuing time) combination.
    pub fn best(&self) -> &TradeoffRow {
        self.rows
            .iter()
            .min_by(|a, b| a.avg_queuing_time_s.total_cmp(&b.avg_queuing_time_s))
            .expect("sweep is non-empty")
    }
}

/// The penalty combinations swept: the paper's default, magnitude
/// variations, and the reversed ordering the paper mentions.
pub(crate) fn penalty_grid() -> Vec<(f64, f64)> {
    vec![
        (-1.0, -2.0), // the paper's choice: full exits rank worst
        (-2.0, -1.0), // reversed: empty approaches rank worst
        (-0.5, -4.0), // strong full-exit aversion
        (-4.0, -0.5), // strong empty-approach aversion
        (-1.0, -1.0), // no discrimination
        (-10.0, -20.0), // same ordering, larger magnitudes (no effect on
                      // ranking vs ordinary links; sanity row)
    ]
}

/// Runs the trade-off sweep on `pattern`.
pub fn tradeoff(opts: &ExperimentOptions, pattern: Pattern) -> TradeoffResult {
    let scenario = Scenario::paper(
        DemandSchedule::constant(pattern, opts.hour),
        opts.backend,
        opts.seed,
    );
    let grid = GridNetwork::new(GridSpec::paper());
    let probe = Probe {
        phase_traces: vec![grid.top_right()],
        queue_series: vec![(grid.top_right(), Approach::East.incoming())],
        sample_every: 10,
    };
    let kinds: Vec<ControllerKind> = penalty_grid()
        .into_iter()
        .map(|(alpha, beta)| {
            ControllerKind::UtilBpWith(UtilBpConfig {
                penalties: GainPenalties::new(alpha, beta)
                    .expect("grid values are strictly negative"),
                ..UtilBpConfig::default()
            })
        })
        .collect();
    let results = run_many(&scenario, &kinds, &probe);
    TradeoffResult {
        pattern,
        rows: penalty_grid()
            .into_iter()
            .zip(results)
            .map(|((alpha, beta), r)| TradeoffRow {
                alpha,
                beta,
                avg_queuing_time_s: r.avg_queuing_time_s,
                completed: r.completed,
                ambers: r.phase_traces[0].num_transitions(),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use utilbp_core::Ticks;

    #[test]
    fn penalty_grid_is_valid_and_covers_both_orderings() {
        let grid = penalty_grid();
        assert!(grid.iter().all(|&(a, b)| a < 0.0 && b < 0.0));
        assert!(grid.iter().any(|&(a, b)| a > b), "paper ordering present");
        assert!(
            grid.iter().any(|&(a, b)| a < b),
            "reversed ordering present"
        );
    }

    #[test]
    fn tradeoff_runs_quick() {
        let mut opts = ExperimentOptions::quick();
        opts.hour = Ticks::new(240);
        let result = tradeoff(&opts, Pattern::I);
        assert_eq!(result.rows.len(), penalty_grid().len());
        assert!(result.render().contains("trade-off"));
        let best = result.best();
        assert!(best.avg_queuing_time_s >= 0.0);
    }
}
