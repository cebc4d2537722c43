//! Table III — per-pattern comparison: best-period CAP-BP vs UTIL-BP.

use utilbp_metrics::TextTable;
use utilbp_netgen::{DemandSchedule, Pattern};

use crate::comparison::{compare, fig2, improvement_pct, Comparison};
use crate::options::ExperimentOptions;
use crate::scenario::Scenario;

/// One row of Table III.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Row {
    /// Pattern label (`I`–`IV` or `Mixed`).
    pub pattern: String,
    /// The CAP-BP period that minimized the average queuing time.
    pub best_period: u64,
    /// CAP-BP's average queuing time at that period, seconds.
    pub capbp_s: f64,
    /// UTIL-BP's average queuing time on the same demand, seconds.
    pub utilbp_s: f64,
}

impl Table3Row {
    /// The row for `pattern` summarizing one comparison: CAP-BP at its
    /// best period against UTIL-BP.
    pub(crate) fn new(pattern: &str, comparison: &Comparison) -> Self {
        let (best_period, capbp_s) = comparison.best_capbp();
        Table3Row {
            pattern: pattern.to_string(),
            best_period,
            capbp_s,
            utilbp_s: comparison.utilbp,
        }
    }

    /// UTIL-BP's improvement over best-period CAP-BP, percent.
    pub(crate) fn improvement_pct(&self) -> f64 {
        improvement_pct(self.capbp_s, self.utilbp_s)
    }
}

/// The data behind Table III.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Result {
    /// Rows for patterns I–IV and Mixed, in paper order.
    pub rows: Vec<Table3Row>,
    /// The Mixed row's whole comparison, which is Fig. 2.
    pub fig2: Comparison,
}

impl Table3Result {
    /// Mean improvement across all rows (the paper reports ~13 % on
    /// average).
    pub(crate) fn mean_improvement_pct(&self) -> f64 {
        self.rows.iter().map(|r| r.improvement_pct()).sum::<f64>() / self.rows.len() as f64
    }

    /// Renders the table in the paper's format.
    pub fn render(&self) -> String {
        let mut table = TextTable::new([
            "Pattern",
            "CAP-BP best period [s]",
            "CAP-BP avg queuing [s]",
            "UTIL-BP avg queuing [s]",
            "Improvement",
        ]);
        for row in &self.rows {
            table.push_row([
                row.pattern.clone(),
                row.best_period.to_string(),
                format!("{:.2}", row.capbp_s),
                format!("{:.2}", row.utilbp_s),
                format!("{:+.1}%", row.improvement_pct()),
            ]);
        }
        let mut out = String::new();
        out.push_str("Table III — comparison results for all traffic patterns\n\n");
        out.push_str(&table.render());
        out.push_str(&format!(
            "\nMean improvement of UTIL-BP over best-period CAP-BP: {:.1}%\n",
            self.mean_improvement_pct()
        ));
        out
    }
}

/// Computes Table III: patterns I–IV (one hour each) and the 4-hour mixed
/// pattern, each with a full CAP-BP period sweep. The mixed pattern's
/// sweep is kept whole as Fig. 2.
pub fn table3(opts: &ExperimentOptions) -> Table3Result {
    let mut rows: Vec<Table3Row> = Pattern::ALL
        .into_iter()
        .map(|pattern| {
            let schedule = DemandSchedule::constant(pattern, opts.hour);
            let scenario = Scenario::paper(schedule, opts.backend, opts.seed);
            Table3Row::new(&pattern.to_string(), &compare(&scenario, &opts.periods))
        })
        .collect();
    let fig2 = fig2(opts);
    rows.push(Table3Row::new("Mixed", &fig2));
    Table3Result { rows, fig2 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvement_math() {
        let row = Table3Row {
            pattern: "I".into(),
            best_period: 18,
            capbp_s: 102.87,
            utilbp_s: 97.97,
        };
        assert!((row.improvement_pct() - 4.763).abs() < 0.01);
    }

    #[test]
    fn render_contains_all_patterns() {
        let fig2 = Comparison {
            capbp: vec![(10, 131.0), (20, 120.71)],
            utilbp: 95.56,
        };
        let result = Table3Result {
            rows: vec![
                Table3Row {
                    pattern: "I".into(),
                    best_period: 18,
                    capbp_s: 102.87,
                    utilbp_s: 97.97,
                },
                Table3Row::new("Mixed", &fig2),
            ],
            fig2,
        };
        let rendered = result.render();
        assert!(rendered.contains("Mixed"));
        assert!(rendered.contains("102.87"));
        assert!(rendered.contains("Mean improvement"));
    }

    #[test]
    fn single_pattern_row_quick() {
        let mut opts = ExperimentOptions::quick();
        opts.hour = utilbp_core::Ticks::new(300);
        opts.periods = vec![14, 24];
        let schedule = DemandSchedule::constant(Pattern::I, opts.hour);
        let scenario = Scenario::paper(schedule, opts.backend, opts.seed);
        let r = Table3Row::new("I", &compare(&scenario, &opts.periods));
        assert!(opts.periods.contains(&r.best_period));
        assert!(r.capbp_s > 0.0);
        assert!(r.utilbp_s > 0.0);
    }
}
