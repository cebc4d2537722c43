//! Seed-robustness study: is the Table III conclusion an artifact of one
//! Poisson sample?
//!
//! The paper reports single simulation runs. This extension repeats the
//! UTIL-BP vs best-period CAP-BP comparison over several demand seeds and
//! reports the distribution of the improvement, using
//! [`SummaryStats`](utilbp_metrics::SummaryStats) to aggregate.

use utilbp_metrics::{SummaryStats, TextTable};
use utilbp_netgen::{DemandSchedule, Pattern};

use crate::comparison::compare;
use crate::options::ExperimentOptions;
use crate::scenario::Scenario;

/// Robustness outcome for one pattern.
#[derive(Debug, Clone)]
pub struct RobustnessResult {
    /// The pattern studied.
    pub pattern: Pattern,
    /// The seeds used.
    pub seeds: Vec<u64>,
    /// Improvement (%) of UTIL-BP over best-period CAP-BP, one per seed.
    pub improvements_pct: Vec<f64>,
    /// Aggregate statistics over the improvements.
    pub stats: SummaryStats,
}

impl RobustnessResult {
    /// Renders the per-seed improvements and their aggregate.
    pub fn render(&self) -> String {
        let mut table = TextTable::new(["Seed", "UTIL-BP improvement over CAP-BP"]);
        for (seed, imp) in self.seeds.iter().zip(&self.improvements_pct) {
            table.push_row([seed.to_string(), format!("{imp:+.1}%")]);
        }
        format!(
            "Seed robustness — Pattern {} ({} seeds)\n\n{}\nmean {:+.1}% | std {:.1} | min {:+.1}% | max {:+.1}%\n",
            self.pattern,
            self.seeds.len(),
            table.render(),
            self.stats.mean(),
            self.stats.sample_std_dev(),
            self.stats.min().unwrap_or(0.0),
            self.stats.max().unwrap_or(0.0),
        )
    }
}

/// Runs the robustness study: for each seed, sweep CAP-BP's period, take
/// its best, and compare UTIL-BP on the same demand.
pub fn robustness(opts: &ExperimentOptions, pattern: Pattern, seeds: &[u64]) -> RobustnessResult {
    let mut improvements = Vec::with_capacity(seeds.len());
    let mut stats = SummaryStats::new();
    for &seed in seeds {
        let scenario = Scenario::paper(
            DemandSchedule::constant(pattern, opts.hour),
            opts.backend,
            seed,
        );
        let improvement = compare(&scenario, &opts.periods).improvement_pct();
        improvements.push(improvement);
        stats.record(improvement);
    }
    RobustnessResult {
        pattern,
        seeds: seeds.to_vec(),
        improvements_pct: improvements,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use utilbp_core::Ticks;

    #[test]
    fn robustness_aggregates_across_seeds() {
        let mut opts = ExperimentOptions::quick();
        opts.hour = Ticks::new(240);
        opts.periods = vec![12, 20];
        let result = robustness(&opts, Pattern::II, &[1, 2, 3]);
        assert_eq!(result.improvements_pct.len(), 3);
        assert_eq!(result.stats.count(), 3);
        let rendered = result.render();
        assert!(rendered.contains("Seed robustness"));
        assert!(rendered.contains("mean"));
    }
}
