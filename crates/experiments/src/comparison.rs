//! The paper's one comparison: UTIL-BP against CAP-BP's control-period
//! sweep on identical demand. Every Table III row is one [`Comparison`],
//! Fig. 2 is the Mixed row's (queuing time vs period, UTIL-BP as a flat
//! reference line), and the seed-robustness study repeats one per seed.

use utilbp_core::Tick;
use utilbp_metrics::{ascii_chart, TextTable, TimeSeries};
use utilbp_netgen::DemandSchedule;

use crate::options::ExperimentOptions;
use crate::runner::{run_many, Probe};
use crate::scenario::{ControllerKind, Scenario};

/// UTIL-BP's result and CAP-BP's whole period sweep on one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// `(period, avg queuing time)` for CAP-BP, in sweep order.
    pub capbp: Vec<(u64, f64)>,
    /// UTIL-BP's average queuing time (no period parameter).
    pub utilbp: f64,
}

impl Comparison {
    /// The sweep's best (minimum) CAP-BP point.
    pub(crate) fn best_capbp(&self) -> (u64, f64) {
        self.capbp
            .iter()
            .copied()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("sweep is non-empty")
    }

    /// UTIL-BP's improvement over the best CAP-BP point, in percent.
    pub(crate) fn improvement_pct(&self) -> f64 {
        improvement_pct(self.best_capbp().1, self.utilbp)
    }

    /// Renders the comparison as Fig. 2: a table plus an ASCII chart
    /// (period on the x-axis, queuing time on the y-axis, UTIL-BP as a
    /// flat reference line).
    pub fn render(&self) -> String {
        let mut curve = TimeSeries::new("CAP-BP (capacity-aware, fixed-length)");
        for &(p, avg) in &self.capbp {
            curve.push(Tick::new(p), avg);
        }
        let mut flat = TimeSeries::new("UTIL-BP (utilization-aware, adaptive)");
        if let (Some(&(first, _)), Some(&(last, _))) = (self.capbp.first(), self.capbp.last()) {
            flat.push(Tick::new(first), self.utilbp);
            flat.push(Tick::new(last), self.utilbp);
        }

        let mut table = TextTable::new(["Period [s]", "CAP-BP avg queuing time [s]"]);
        for &(p, avg) in &self.capbp {
            table.push_row([p.to_string(), format!("{avg:.2}")]);
        }
        let (best_p, best) = self.best_capbp();

        let mut out = String::new();
        out.push_str("Fig. 2 — avg queuing time vs control period (mixed pattern)\n\n");
        out.push_str(&ascii_chart(&[&curve, &flat], 64, 16));
        out.push('\n');
        out.push_str(&table.render());
        out.push_str(&format!(
            "\nUTIL-BP: {:.2} s | best CAP-BP: {best:.2} s at T={best_p} s | improvement: {:.1}%\n",
            self.utilbp,
            self.improvement_pct()
        ));
        out
    }
}

/// UTIL-BP's improvement over CAP-BP's `capbp` seconds, in percent.
pub(crate) fn improvement_pct(capbp: f64, utilbp: f64) -> f64 {
    (capbp - utilbp) / capbp * 100.0
}

/// Runs CAP-BP at every period of `periods`, and UTIL-BP, on `scenario`
/// (so every controller sees the same demand), and returns the whole
/// sweep.
pub(crate) fn compare(scenario: &Scenario, periods: &[u64]) -> Comparison {
    let mut kinds: Vec<ControllerKind> = periods
        .iter()
        .map(|&period| ControllerKind::CapBp { period })
        .collect();
    kinds.push(ControllerKind::UtilBp);
    let mut runs = run_many(scenario, &kinds, &Probe::none());
    let utilbp = runs.pop().expect("UTIL-BP ran").avg_queuing_time_s;
    let capbp = periods
        .iter()
        .zip(&runs)
        .map(|(&p, r)| (p, r.avg_queuing_time_s))
        .collect();
    Comparison { capbp, utilbp }
}

/// Computes Fig. 2: the comparison on the mixed pattern (Table III's
/// Mixed row).
pub fn fig2(opts: &ExperimentOptions) -> Comparison {
    let scenario = Scenario::paper(DemandSchedule::mixed(opts.hour), opts.backend, opts.seed);
    compare(&scenario, &opts.periods)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_runs_quick_and_has_shape() {
        let mut opts = ExperimentOptions::quick();
        opts.hour = utilbp_core::Ticks::new(300);
        opts.periods = vec![12, 20, 60];
        let result = fig2(&opts);
        assert_eq!(result.capbp.len(), 3);
        assert!(result.utilbp > 0.0);
        let rendered = result.render();
        assert!(rendered.contains("UTIL-BP"));
        assert!(rendered.contains("CAP-BP"));
        assert!(rendered.contains("Period"));
    }

    #[test]
    fn best_capbp_is_the_minimum() {
        let r = Comparison {
            capbp: vec![(10, 120.0), (20, 90.0), (30, 150.0)],
            utilbp: 80.0,
        };
        assert_eq!(r.best_capbp(), (20, 90.0));
        assert!((r.improvement_pct() - (90.0 - 80.0) / 90.0 * 100.0).abs() < 1e-12);
    }
}
