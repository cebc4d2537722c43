//! Scenario sweeps: run scenario specs across controllers on both
//! substrates and render a comparison table.

use utilbp_metrics::TextTable;
use utilbp_scenario::{run_scenario, EngineConfig, ScenarioOutcome, ScenarioSpec};

use crate::scenario::{Backend, ControllerKind};

/// One rendered comparison row: a scenario × backend, with one outcome
/// per controller (input order).
#[derive(Debug, Clone)]
pub struct ScenarioRow {
    /// The scenario that ran.
    pub spec: ScenarioSpec,
    /// The substrate it ran on.
    pub backend: Backend,
    /// Outcomes per controller, in the order passed to
    /// [`scenario_comparison`].
    pub outcomes: Vec<ScenarioOutcome>,
}

/// The full sweep result.
#[derive(Debug, Clone)]
pub struct ScenarioComparison {
    /// Controller labels, column order.
    pub controllers: Vec<String>,
    /// One row per scenario × backend.
    pub rows: Vec<ScenarioRow>,
}

impl ScenarioComparison {
    /// Renders the comparison as an aligned table: one row per
    /// scenario × backend, one column per controller showing the mean
    /// queuing time (s) with completed/generated counts.
    pub fn render(&self) -> String {
        let mut headers = vec![
            "Scenario".to_string(),
            "Topology".to_string(),
            "Demand".to_string(),
            "Events".to_string(),
            "Backend".to_string(),
        ];
        headers.extend(self.controllers.iter().cloned());
        let mut table = TextTable::new(headers);
        for row in &self.rows {
            let mut cells = vec![
                row.spec.name.clone(),
                row.spec.topology.family().to_string(),
                row.spec.demand.label().to_string(),
                if row.spec.events.is_empty() {
                    "-".to_string()
                } else {
                    row.spec.events.len().to_string()
                },
                row.backend.to_string(),
            ];
            for outcome in &row.outcomes {
                let mut cell = format!(
                    "{:.1}s ({}/{})",
                    outcome.avg_queuing_time_s, outcome.completed, outcome.generated
                );
                // Routing-response counters, when the scenario has any:
                // the determinism matrix diffs these tables byte-for-byte,
                // so the replanning machinery is covered by the diff.
                if outcome.diverted > 0 || outcome.restored > 0 {
                    cell.push_str(&format!(" d{} r{}", outcome.diverted, outcome.restored));
                }
                // Watchdog counters, when a fallback ever activated.
                if outcome.fallback_activations > 0 {
                    cell.push_str(&format!(
                        " w{}/{}",
                        outcome.fallback_activations, outcome.ticks_degraded
                    ));
                }
                cells.push(cell);
            }
            table.push_row(cells);
        }
        table.render()
    }
}

/// Runs every scenario on every backend under every controller
/// (scenario × backend rows run on parallel threads; controllers within a
/// row run sequentially so each row is one unit of work).
///
/// `horizon_cap` trims each scenario's horizon (quick/CI runs); closure
/// and fault events past a trimmed horizon are dropped with the trim.
/// Results are bit-identical across repeats (the substrate determinism
/// contract), which CI checks by diffing two rendered tables.
///
/// # Panics
///
/// Panics if a scenario fails validation — built-ins always pass; caller
/// supplied files should be validated first.
pub fn scenario_comparison(
    specs: &[ScenarioSpec],
    backends: &[Backend],
    controllers: &[ControllerKind],
    horizon_cap: Option<u64>,
) -> ScenarioComparison {
    let mut jobs: Vec<(ScenarioSpec, Backend)> = Vec::new();
    for spec in specs {
        let mut spec = spec.clone();
        if let Some(cap) = horizon_cap {
            let cap = cap.max(1);
            if spec.horizon.count() > cap {
                // Drops closure/reopen events past the cap with the trim.
                spec.set_horizon(utilbp_core::Ticks::new(cap));
            }
        }
        for &backend in backends {
            jobs.push((spec.clone(), backend));
        }
    }

    let rows: Vec<ScenarioRow> = std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .iter()
            .map(|(spec, backend)| {
                scope.spawn(move || {
                    let outcomes: Vec<ScenarioOutcome> = controllers
                        .iter()
                        .map(|kind| {
                            let config = EngineConfig::new(*backend);
                            run_scenario(spec.clone(), config, &|_| kind.build())
                                .unwrap_or_else(|e| panic!("scenario {}: {e}", spec.name))
                        })
                        .collect();
                    ScenarioRow {
                        spec: spec.clone(),
                        backend: *backend,
                        outcomes,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("scenario thread must not panic"))
            .collect()
    });

    ScenarioComparison {
        controllers: controllers.iter().map(|k| k.label()).collect(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use utilbp_scenario::builtin;

    #[test]
    fn comparison_runs_and_renders() {
        let specs = vec![
            builtin("paper-grid").unwrap(),
            builtin("ring-pulse").unwrap(),
        ];
        let comparison = scenario_comparison(
            &specs,
            &[Backend::Queueing],
            &[
                ControllerKind::UtilBp,
                ControllerKind::FixedTime { period: 20 },
            ],
            Some(150),
        );
        assert_eq!(comparison.rows.len(), 2);
        for row in &comparison.rows {
            assert_eq!(row.outcomes.len(), 2);
            for outcome in &row.outcomes {
                assert!(outcome.generated > 0);
            }
        }
        let rendered = comparison.render();
        assert!(rendered.contains("paper-grid"));
        assert!(rendered.contains("ring-pulse"));
        assert!(rendered.contains("UTIL-BP"));
        assert!(rendered.contains("queueing"));
    }

    #[test]
    fn replanning_counters_surface_in_the_rendered_table() {
        let comparison = scenario_comparison(
            &[builtin("grid-incident-recover").unwrap()],
            &[Backend::Queueing],
            &[ControllerKind::UtilBp],
            Some(200),
        );
        let rendered = comparison.render();
        let outcome = &comparison.rows[0].outcomes[0];
        assert!(outcome.diverted > 0 && outcome.restored > 0);
        assert!(
            rendered.contains(&format!("d{} r{}", outcome.diverted, outcome.restored)),
            "diverted/restored counters render into the diffable table:\n{rendered}"
        );
    }

    #[test]
    fn horizon_cap_trims_and_drops_late_closures() {
        let spec = builtin("grid-incident").unwrap();
        let comparison = scenario_comparison(
            &[spec],
            &[Backend::Queueing],
            &[ControllerKind::UtilBp],
            Some(100),
        );
        // Close at 150 is past the 100-tick cap, so the event is gone and
        // the run still validates.
        assert!(comparison.rows[0].spec.events.is_empty());
        assert_eq!(comparison.rows[0].spec.horizon.count(), 100);
    }
}
