//! Ablation study: which of UTIL-BP's mechanisms buys what.
//!
//! DESIGN.md calls out four separable design choices in Algorithm 1:
//! per-movement pressure (Eq. 6 change (i)), the `α`/`β` special cases
//! (Eq. 8), the `g*` keep-phase hysteresis (Eq. 12), and varying-length
//! phases themselves. This module compares the full controller against one
//! variant per mechanism, on identical demand, and varies the plant's
//! lanes and detectors under the same demand ([`plant_studies`]).

use utilbp_core::{GStarPolicy, GainMode, UtilBpConfig};
use utilbp_metrics::TextTable;
use utilbp_microsim::LaneDiscipline;
use utilbp_netgen::{DemandSchedule, Pattern};

use crate::options::ExperimentOptions;
use crate::runner::{run, run_many, Probe};
use crate::scenario::{Backend, ControllerKind, Scenario};

/// One ablation row.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Variant label.
    pub variant: String,
    /// Average queuing time, seconds.
    pub(crate) avg_queuing_time_s: f64,
    /// Completed journeys.
    pub(crate) completed: u64,
}

/// The ablation comparison on one pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationResult {
    /// The demand pattern used.
    pub(crate) pattern: Pattern,
    /// One row per variant, full UTIL-BP first.
    pub rows: Vec<AblationRow>,
}

impl AblationResult {
    /// Renders the comparison as a table with deltas against the full
    /// controller.
    pub fn render(&self) -> String {
        let baseline = self
            .rows
            .first()
            .map(|r| r.avg_queuing_time_s)
            .unwrap_or(0.0);
        let mut table = TextTable::new(["Variant", "Avg queuing [s]", "vs UTIL-BP", "Completed"]);
        for row in &self.rows {
            let delta = if baseline > 0.0 {
                format!(
                    "{:+.1}%",
                    (row.avg_queuing_time_s - baseline) / baseline * 100.0
                )
            } else {
                "-".to_string()
            };
            table.push_row([
                row.variant.clone(),
                format!("{:.2}", row.avg_queuing_time_s),
                delta,
                row.completed.to_string(),
            ]);
        }
        format!(
            "Ablation — Pattern {} (positive deltas are degradations)\n\n{}",
            self.pattern,
            table.render()
        )
    }
}

/// The standard set of ablation variants.
pub(crate) fn variants() -> Vec<ControllerKind> {
    vec![
        ControllerKind::UtilBp,
        ControllerKind::UtilBpWith(UtilBpConfig {
            g_star: GStarPolicy::AlwaysReevaluate,
            ..UtilBpConfig::default()
        }),
        ControllerKind::UtilBpWith(UtilBpConfig {
            gain_mode: GainMode::PlainModified,
            ..UtilBpConfig::default()
        }),
        ControllerKind::UtilBpWith(UtilBpConfig {
            gain_mode: GainMode::PerRoadPressure,
            ..UtilBpConfig::default()
        }),
        ControllerKind::FixedLengthUtilBp { period: 16 },
    ]
}

/// Runs the ablation on the given pattern.
pub fn ablation(opts: &ExperimentOptions, pattern: Pattern) -> AblationResult {
    let scenario = Scenario::paper(
        DemandSchedule::constant(pattern, opts.hour),
        opts.backend,
        opts.seed,
    );
    let kinds = variants();
    let results = run_many(&scenario, &kinds, &Probe::none());
    AblationResult {
        pattern,
        rows: kinds
            .iter()
            .zip(results)
            .map(|(kind, r)| AblationRow {
                variant: kind.label(),
                avg_queuing_time_s: r.avg_queuing_time_s,
                completed: r.completed,
            })
            .collect(),
    }
}

/// Two extension studies of the plant's physical setup, run on the
/// microscopic plant whatever `opts.backend` says (the queueing plant has
/// neither lanes nor detectors):
///
/// - UTIL-BP with the paper's dedicated per-movement lanes against mixed
///   lanes with head-of-line blocking (Section IV, Q4);
/// - UTIL-BP and CAP-BP (T=16) with queue detectors of 30–200 m.
///
/// Returns both tables, rendered.
pub fn plant_studies(opts: &ExperimentOptions, pattern: Pattern) -> String {
    let paper = Scenario::paper(
        DemandSchedule::constant(pattern, opts.hour),
        Backend::Microscopic,
        opts.seed,
    );

    let mut lanes = TextTable::new([
        "Lane discipline",
        "Avg queuing [s]",
        "Completed",
        "Generated",
    ]);
    for (label, discipline) in [
        (
            "dedicated per movement (paper)",
            LaneDiscipline::DedicatedPerMovement,
        ),
        ("mixed lanes (HOL blocking)", LaneDiscipline::SharedMixed),
    ] {
        let mut scenario = paper.clone();
        scenario.micro.lane_discipline = discipline;
        let r = run(&scenario, &ControllerKind::UtilBp, &Probe::none());
        lanes.push_row([
            label.to_string(),
            format!("{:.2}", r.avg_queuing_time_s),
            r.completed.to_string(),
            r.generated.to_string(),
        ]);
    }

    let mut ranges = TextTable::new([
        "Detector range [m]",
        "UTIL-BP avg queuing [s]",
        "CAP-BP (T=16) avg queuing [s]",
    ]);
    let kinds = [ControllerKind::UtilBp, ControllerKind::CapBp { period: 16 }];
    for range in [30.0, 50.0, 100.0, 200.0] {
        let mut scenario = paper.clone();
        scenario.micro.detection_range_m = range;
        let mut row = vec![format!("{range}")];
        for r in run_many(&scenario, &kinds, &Probe::none()) {
            row.push(format!("{:.2}", r.avg_queuing_time_s));
        }
        ranges.push_row(row);
    }

    format!(
        "Head-of-line blocking study (UTIL-BP, Pattern {pattern})\n\n{}\n\
         Detector-range sensitivity (Pattern {pattern})\n\n{}",
        lanes.render(),
        ranges.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_set_is_distinctly_labeled() {
        let kinds = variants();
        let mut labels: Vec<String> = kinds.iter().map(|k| k.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), kinds.len(), "labels must be unique");
    }

    #[test]
    fn ablation_runs_quick() {
        let mut opts = ExperimentOptions::quick();
        opts.hour = utilbp_core::Ticks::new(300);
        let result = ablation(&opts, Pattern::I);
        assert_eq!(result.rows.len(), variants().len());
        assert_eq!(result.rows[0].variant, "UTIL-BP");
        let rendered = result.render();
        assert!(rendered.contains("Ablation"));
        assert!(rendered.contains("no hysteresis"));
    }

    #[test]
    fn plant_studies_run_quick() {
        let mut opts = ExperimentOptions::quick();
        opts.hour = utilbp_core::Ticks::new(120);
        let rendered = plant_studies(&opts, Pattern::I);
        assert!(rendered.contains("Head-of-line blocking study"));
        assert!(rendered.contains("mixed lanes (HOL blocking)"));
        assert!(rendered.contains("Detector-range sensitivity"));
        assert!(
            rendered.contains("| 200 "),
            "one row per range:\n{rendered}"
        );
    }
}
