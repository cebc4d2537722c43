//! Scenario and controller descriptions (serializable experiment recipes).

use utilbp_baselines::{
    Actuated, ActuatedConfig, CapBp, FixedLengthUtilBp, FixedTime, LongestQueueFirst, OriginalBp,
    AMBER,
};
use utilbp_core::{GStarPolicy, GainMode, SignalController, Ticks, UtilBp, UtilBpConfig};
use utilbp_microsim::MicroSimConfig;
use utilbp_netgen::{DemandSchedule, GridSpec, TurningProbabilities};

// The substrate selector lives in `utilbp-scenario` (the scenario engine
// needs it below this crate in the dependency graph); re-exported here so
// every experiment keeps addressing `utilbp_experiments::Backend`.
pub use utilbp_scenario::Backend;

/// A controller recipe: enough to build one fresh controller instance per
/// intersection. This is the one place a controller's parameters are
/// chosen: the baselines take only their period (every slot controller
/// uses the paper's [`AMBER`]), UTIL-BP its [`UtilBpConfig`].
#[derive(Debug, Clone, PartialEq)]
pub enum ControllerKind {
    /// The paper's Algorithm 1 with its Section V parameters.
    UtilBp,
    /// UTIL-BP with an explicit configuration (ablations).
    UtilBpWith(UtilBpConfig),
    /// CAP-BP (the paper's reference \[4\]) with the given fixed period
    /// (in ticks).
    CapBp {
        /// Green period in ticks.
        period: u64,
    },
    /// Original back-pressure (the paper's reference \[3\]) with the
    /// given fixed period.
    OriginalBp {
        /// Green period in ticks.
        period: u64,
    },
    /// Pre-timed round-robin.
    FixedTime {
        /// Green period in ticks.
        period: u64,
    },
    /// Greedy longest-queue-first.
    LongestQueueFirst {
        /// Green period in ticks.
        period: u64,
    },
    /// UTIL-BP's gain on fixed-length slots (ablation).
    FixedLengthUtilBp {
        /// Green period in ticks.
        period: u64,
    },
    /// Vehicle-actuated gap-out/max-out control (industry baseline).
    Actuated {
        /// Minimum green in ticks.
        min_green: u64,
        /// Maximum green in ticks.
        max_green: u64,
    },
}

impl ControllerKind {
    /// Builds one controller instance.
    pub fn build(&self) -> Box<dyn SignalController> {
        match *self {
            ControllerKind::UtilBp => Box::new(UtilBp::paper()),
            ControllerKind::UtilBpWith(config) => Box::new(UtilBp::new(config)),
            ControllerKind::CapBp { period } => Box::new(CapBp::new(Ticks::new(period))),
            ControllerKind::OriginalBp { period } => Box::new(OriginalBp::new(Ticks::new(period))),
            ControllerKind::FixedTime { period } => {
                Box::new(FixedTime::new(Ticks::new(period), AMBER))
            }
            ControllerKind::LongestQueueFirst { period } => {
                Box::new(LongestQueueFirst::new(Ticks::new(period)))
            }
            ControllerKind::FixedLengthUtilBp { period } => {
                Box::new(FixedLengthUtilBp::new(Ticks::new(period)))
            }
            ControllerKind::Actuated {
                min_green,
                max_green,
            } => Box::new(Actuated::with_config(ActuatedConfig {
                min_green: Ticks::new(min_green),
                max_green: Ticks::new(max_green),
                transition: AMBER,
            })),
        }
    }

    /// Builds `n` controller instances (one per intersection).
    pub fn build_n(&self, n: usize) -> Vec<Box<dyn SignalController>> {
        (0..n).map(|_| self.build()).collect()
    }

    /// A display label including the period where applicable.
    pub fn label(&self) -> String {
        match *self {
            ControllerKind::UtilBp => "UTIL-BP".to_string(),
            ControllerKind::UtilBpWith(config) => match (config.gain_mode, config.g_star) {
                (GainMode::UtilizationAware, GStarPolicy::AlwaysReevaluate) => {
                    "UTIL-BP (no hysteresis)".to_string()
                }
                (GainMode::PlainModified, _) => "UTIL-BP (no special cases)".to_string(),
                (GainMode::PerRoadPressure, _) => "UTIL-BP (per-road pressure)".to_string(),
                _ => "UTIL-BP (custom)".to_string(),
            },
            ControllerKind::CapBp { period } => format!("CAP-BP (T={period}s)"),
            ControllerKind::OriginalBp { period } => format!("BP (T={period}s)"),
            ControllerKind::FixedTime { period } => format!("fixed-time (T={period}s)"),
            ControllerKind::LongestQueueFirst { period } => format!("LQF (T={period}s)"),
            ControllerKind::FixedLengthUtilBp { period } => {
                format!("UTIL-BP fixed (T={period}s)")
            }
            ControllerKind::Actuated {
                min_green,
                max_green,
            } => format!("actuated ({min_green}-{max_green}s)"),
        }
    }
}

/// A complete experiment scenario: network, demand, substrate, and seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Grid network parameters.
    pub grid: GridSpec,
    /// Arrival schedule (Table II pattern or the mixed sequence).
    pub schedule: DemandSchedule,
    /// Turning probabilities (Table I).
    pub turning: TurningProbabilities,
    /// Demand RNG seed.
    pub seed: u64,
    /// Simulation substrate.
    pub backend: Backend,
    /// Microscopic parameters (used when `backend` is
    /// [`Backend::Microscopic`]).
    pub micro: MicroSimConfig,
}

impl Scenario {
    /// The paper's setup for the given schedule on the chosen backend.
    pub fn paper(schedule: DemandSchedule, backend: Backend, seed: u64) -> Self {
        Scenario {
            grid: GridSpec::paper(),
            schedule,
            turning: TurningProbabilities::PAPER,
            seed,
            backend,
            micro: MicroSimConfig::default(),
        }
    }

    /// The scheduled horizon in ticks.
    pub fn horizon(&self) -> Ticks {
        self.schedule.total_duration()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use utilbp_netgen::Pattern;

    #[test]
    fn controller_kinds_build_and_label() {
        let kinds = [
            ControllerKind::UtilBp,
            ControllerKind::CapBp { period: 16 },
            ControllerKind::OriginalBp { period: 20 },
            ControllerKind::FixedTime { period: 15 },
            ControllerKind::LongestQueueFirst { period: 10 },
            ControllerKind::FixedLengthUtilBp { period: 16 },
        ];
        for kind in &kinds {
            let c = kind.build();
            assert!(!c.name().is_empty());
            assert!(!kind.label().is_empty());
        }
        assert_eq!(kinds[1].label(), "CAP-BP (T=16s)");
        assert_eq!(ControllerKind::UtilBp.label(), "UTIL-BP");
        assert_eq!(ControllerKind::UtilBp.build_n(9).len(), 9);
    }

    #[test]
    fn ablation_labels_are_distinct() {
        let no_hyst = ControllerKind::UtilBpWith(UtilBpConfig {
            g_star: GStarPolicy::AlwaysReevaluate,
            ..UtilBpConfig::default()
        });
        let no_special = ControllerKind::UtilBpWith(UtilBpConfig {
            gain_mode: GainMode::PlainModified,
            ..UtilBpConfig::default()
        });
        assert_ne!(no_hyst.label(), no_special.label());
        assert!(no_hyst.label().contains("hysteresis"));
    }

    #[test]
    fn scenario_horizon_follows_schedule() {
        let s = Scenario::paper(
            DemandSchedule::constant(Pattern::I, Ticks::new(3600)),
            Backend::Queueing,
            1,
        );
        assert_eq!(s.horizon(), Ticks::new(3600));
        let mixed = Scenario::paper(
            DemandSchedule::mixed(Ticks::new(3600)),
            Backend::Microscopic,
            1,
        );
        assert_eq!(mixed.horizon(), Ticks::new(14_400));
    }
}
