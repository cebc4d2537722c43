//! Shared experiment options (durations, sweep ranges, backend).

use utilbp_core::Ticks;

use crate::scenario::Backend;

/// Knobs shared by all experiments. `ExperimentOptions::paper()`
/// reproduces the paper's Section V setup; [`ExperimentOptions::quick`] is
/// a scaled version for CI and debug runs.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentOptions {
    /// Simulation substrate (the paper used SUMO → our microscopic
    /// substitute).
    pub backend: Backend,
    /// Demand RNG seed.
    pub seed: u64,
    /// Duration of one pattern "hour" in ticks (paper: 3600 s).
    pub hour: Ticks,
    /// Horizon of the Pattern I trace experiments, Figs. 3–5 (paper:
    /// 2000 s).
    pub trace_horizon: Ticks,
    /// CAP-BP control periods to sweep, in ticks (paper Fig. 2: 10–80 s).
    pub periods: Vec<u64>,
    /// CAP-BP period used for the Figs. 3/5 trace comparison (the paper
    /// uses Pattern I's optimal period, 18 s per Table III).
    pub(crate) trace_capbp_period: u64,
}

impl ExperimentOptions {
    /// The paper's full-scale setup.
    pub(crate) fn paper() -> Self {
        ExperimentOptions {
            backend: Backend::Microscopic,
            seed: 2020,
            hour: Ticks::new(3600),
            trace_horizon: Ticks::new(2000),
            periods: (10..=80).step_by(5).collect(),
            trace_capbp_period: 18,
        }
    }

    /// A scaled-down setup for fast runs (shorter horizons, fewer sweep
    /// points, mesoscopic substrate).
    pub fn quick() -> Self {
        ExperimentOptions {
            backend: Backend::Queueing,
            seed: 2020,
            hour: Ticks::new(600),
            trace_horizon: Ticks::new(600),
            periods: vec![10, 16, 22, 30, 50, 80],
            trace_capbp_period: 16,
        }
    }

    /// Reads options from the environment: `UTILBP_QUICK=1` selects
    /// [`quick`](Self::quick), `UTILBP_BACKEND=queueing|micro` overrides
    /// the substrate, `UTILBP_HOUR=<secs>` the hour length, and
    /// `UTILBP_SEED=<n>` the seed.
    ///
    /// # Errors
    ///
    /// Returns a message naming the variable when a set value is not
    /// understood: an unknown backend, or an hour or seed that is not a
    /// whole number (the hour must also be at least 1).
    pub fn from_env() -> Result<Self, String> {
        let mut opts = if std::env::var("UTILBP_QUICK").is_ok_and(|v| v == "1") {
            ExperimentOptions::quick()
        } else {
            ExperimentOptions::paper()
        };
        if let Ok(backend) = std::env::var("UTILBP_BACKEND") {
            opts.backend = match backend.as_str() {
                "queueing" => Backend::Queueing,
                "micro" | "microscopic" => Backend::Microscopic,
                other => {
                    return Err(format!(
                        "UTILBP_BACKEND: unknown backend `{other}` (queueing|micro|microscopic)"
                    ))
                }
            };
        }
        if let Ok(hour) = std::env::var("UTILBP_HOUR") {
            opts.hour = match hour.parse::<u64>() {
                Ok(secs) if secs > 0 => Ticks::new(secs),
                _ => {
                    return Err(format!(
                        "UTILBP_HOUR: expected a positive number of seconds, got `{hour}`"
                    ))
                }
            };
        }
        if let Ok(seed) = std::env::var("UTILBP_SEED") {
            opts.seed = seed.parse().map_err(|_| {
                format!("UTILBP_SEED: expected a non-negative integer, got `{seed}`")
            })?;
        }
        Ok(opts)
    }
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        ExperimentOptions::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_options_match_section_v() {
        let o = ExperimentOptions::paper();
        assert_eq!(o.hour, Ticks::new(3600));
        assert_eq!(o.trace_horizon, Ticks::new(2000));
        assert_eq!(o.backend, Backend::Microscopic);
        assert_eq!(*o.periods.first().unwrap(), 10);
        assert_eq!(*o.periods.last().unwrap(), 80);
        assert_eq!(o.trace_capbp_period, 18, "Table III Pattern I optimum");
    }

    #[test]
    fn quick_options_are_smaller() {
        let q = ExperimentOptions::quick();
        let p = ExperimentOptions::paper();
        assert!(q.hour < p.hour);
        assert!(q.periods.len() < p.periods.len());
    }
}
