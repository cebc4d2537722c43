//! The built-in scenario library: ready-made specs covering every
//! topology family, time-varying demand, closures, sensor/actuator
//! fault windows, and watchdog-guarded degradation.

use utilbp_core::{Tick, Ticks};
use utilbp_netgen::{ArterialSpec, AsymmetricGridSpec, GridSpec, Pattern, RingSpec};

use crate::spec::{DemandProfile, ReplanPolicy, ScenarioEvent, ScenarioSpec, TopologySpec};

/// The straight-biased 3×3 grid `grid-incident-recover` runs on: heavy
/// north–south demand and 80% through-traffic at every approach, so a
/// mid-network closure strictly degrades the through routes (the
/// precondition for reopen-restore to have anything to rewrite back).
fn recover_grid() -> AsymmetricGridSpec {
    AsymmetricGridSpec {
        // Heavy north/south entries (Pattern I-like), light east/west.
        inter_arrival_s: [3.0, 9.0, 3.0, 9.0],
        turning: utilbp_netgen::TurningProbabilities::new([(0.1, 0.1); 4])
            .expect("0.1 right + 0.1 left per side is a valid table"),
        ..AsymmetricGridSpec::default()
    }
}

/// All built-in scenarios, in presentation order:
///
/// | Name | Topology | Demand | Events |
/// |---|---|---|---|
/// | `paper-grid` | 3×3 grid | constant (Pattern II) | — |
/// | `arterial-rush-hour` | 5-junction arterial | rush-hour ramp | — |
/// | `ring-pulse` | 6-junction ring | pulse | — |
/// | `asym-bottleneck` | 3×3 asymmetric grid | constant | — |
/// | `grid-incident` | 3×3 grid | constant | closure + reopening |
/// | `grid-incident-replan` | 3×3 grid | constant | mid-network closure + reopening, en-route replanning on |
/// | `grid-incident-recover` | 3×3 straight-biased asym. grid | constant + surge | compressed closure + reopening, divert **and** restore inside a short horizon |
/// | `grid-congestion-replan` | 3×3 grid | constant + surge | periodic congestion-aware replanning, no closures |
/// | `arterial-sensor-dropout` | 5-junction arterial | day profile | sensor-fault window |
/// | `grid-actuator-fault` | 3×3 grid | constant | actuator/comms fault window (stuck, dropped, delayed commands) |
/// | `grid-degraded-recovery` | 3×3 grid | constant | frozen-counter sensor window + per-intersection watchdog fallback |
///
/// `grid-incident-replan` closes a road two hops into the network (the
/// center intersection's southbound arm) with
/// [`ReplanPolicy::AtNextJunction`], so upstream vehicles that have not
/// yet committed to the closed segment divert instead of queueing into
/// the spill-back. `grid-incident-recover` runs the same center-south
/// incident on a *straight-biased* asymmetric grid (80% through-traffic,
/// so detours are strictly worse than the through route) on a compressed
/// timeline (close at 100, reopen at 130): both halves of the policy —
/// diversion *and* reopen-restore — fire even under aggressive CI
/// horizon caps. `grid-congestion-replan` has no incident at all: a
/// demand surge saturates the heavily loaded north–south axis and the
/// [`ReplanPolicy::Congestion`] monitor diverts journeys around roads
/// whose occupancy crosses the threshold — the endogenous, queue-state-
/// driven routing regime.
///
/// The two fault-plane builtins exercise the CPS failure modes beyond
/// sensing: `grid-actuator-fault` opens an actuation window over the
/// loaded grid (phases jam, commands drop and arrive late — the
/// controller computes correctly but the plant executes something else);
/// `grid-degraded-recovery` freezes every detector counter mid-run with
/// a watchdog installed, so each intersection's monitor flags the frozen
/// stream, hands control to its fixed-time fallback
/// (`fallback_activations > 0`), and hands it back with hysteresis once
/// the window closes and readings go live again (`ticks_degraded` stops
/// growing — full recovery).
pub fn builtin_scenarios() -> Vec<ScenarioSpec> {
    let paper_grid = TopologySpec::Grid {
        spec: GridSpec::paper(),
        pattern: Pattern::II,
    };
    // The road `grid-incident` closes: the first internal road of the
    // paper grid (deterministic by construction order). Built from the
    // bare grid topology — no route enumeration needed for a road lookup.
    let incident_road = {
        let grid = utilbp_netgen::GridNetwork::new(GridSpec::paper());
        let topo = grid.topology();
        let road = topo
            .road_ids()
            .find(|&r| topo.road(r).is_internal())
            .expect("the paper grid has internal roads");
        road
    };
    // The road `grid-incident-replan` closes: the center intersection's
    // southbound road. It sits two hops deep, so when it closes there is
    // real upstream traffic that has *not* yet committed to it — exactly
    // the population en-route replanning can divert. (The first internal
    // road above is committed at every crossing route's first hop, which
    // would leave the replanner nothing to rewrite.)
    let deep_incident_road = {
        use utilbp_core::standard::Approach;
        let grid = utilbp_netgen::GridNetwork::new(GridSpec::paper());
        let center = grid.intersection_at(utilbp_netgen::GridPos::new(1, 1));
        grid.topology()
            .intersection(center)
            .outgoing_road(Approach::South.outgoing())
    };
    // The same center-southbound incident for `grid-incident-recover`,
    // on its straight-biased asymmetric grid.
    let recover_incident_road = {
        use utilbp_core::standard::Approach;
        let net = TopologySpec::AsymmetricGrid(recover_grid()).build();
        // Row-major intersection ids: the center of a 3×3 grid is 4.
        net.topology()
            .intersection(utilbp_netgen::IntersectionId::new(4))
            .outgoing_road(Approach::South.outgoing())
    };

    vec![
        ScenarioSpec {
            name: "paper-grid".to_string(),
            seed: 2020,
            horizon: Ticks::new(600),
            topology: paper_grid.clone(),
            demand: DemandProfile::Constant,
            events: Vec::new(),
            replan: ReplanPolicy::Off,
            watchdog: None,
        },
        ScenarioSpec {
            name: "arterial-rush-hour".to_string(),
            seed: 2020,
            horizon: Ticks::new(900),
            topology: TopologySpec::Arterial(ArterialSpec::default()),
            demand: DemandProfile::RushHour {
                ramp: 200,
                peak: 300,
                peak_factor: 2.5,
            },
            events: Vec::new(),
            replan: ReplanPolicy::Off,
            watchdog: None,
        },
        ScenarioSpec {
            name: "ring-pulse".to_string(),
            seed: 2020,
            horizon: Ticks::new(700),
            topology: TopologySpec::Ring(RingSpec::default()),
            demand: DemandProfile::Pulse {
                from: 200,
                len: 150,
                factor: 3.0,
            },
            events: Vec::new(),
            replan: ReplanPolicy::Off,
            watchdog: None,
        },
        ScenarioSpec {
            name: "asym-bottleneck".to_string(),
            seed: 2020,
            horizon: Ticks::new(600),
            topology: TopologySpec::AsymmetricGrid(AsymmetricGridSpec::default()),
            demand: DemandProfile::Constant,
            events: Vec::new(),
            replan: ReplanPolicy::Off,
            watchdog: None,
        },
        ScenarioSpec {
            name: "grid-incident".to_string(),
            seed: 2020,
            horizon: Ticks::new(700),
            topology: paper_grid,
            demand: DemandProfile::Constant,
            events: vec![
                ScenarioEvent::CloseRoad {
                    road: incident_road,
                    at: Tick::new(150),
                },
                ScenarioEvent::ReopenRoad {
                    road: incident_road,
                    at: Tick::new(400),
                },
            ],
            replan: ReplanPolicy::Off,
            watchdog: None,
        },
        ScenarioSpec {
            name: "grid-incident-replan".to_string(),
            seed: 2020,
            horizon: Ticks::new(700),
            // Pattern I loads the north/south axis, so the center
            // column's southbound closure has real upstream traffic to
            // divert.
            topology: TopologySpec::Grid {
                spec: GridSpec::paper(),
                pattern: Pattern::I,
            },
            demand: DemandProfile::Constant,
            events: vec![
                ScenarioEvent::CloseRoad {
                    road: deep_incident_road,
                    at: Tick::new(150),
                },
                ScenarioEvent::ReopenRoad {
                    road: deep_incident_road,
                    at: Tick::new(450),
                },
            ],
            replan: ReplanPolicy::AtNextJunction,
            watchdog: None,
        },
        ScenarioSpec {
            name: "grid-incident-recover".to_string(),
            seed: 2020,
            horizon: Ticks::new(600),
            // A *straight-biased* grid (the asymmetric-grid family carries
            // the turning table): with 80% through-traffic, every detour
            // is strictly worse than the through route, so the reopening
            // strictly dominates the detours and reopen-restore has a real
            // population to rewrite back. (On the paper turning table a
            // right-turn detour often ties the through route exactly —
            // correct behavior, but nothing to restore.) The timeline is
            // compressed so the reopening lands while diverted vehicles
            // are still upstream of their detour turn, even when CI caps
            // the horizon.
            topology: TopologySpec::AsymmetricGrid(recover_grid()),
            demand: DemandProfile::Constant,
            events: vec![
                ScenarioEvent::Surge {
                    factor: 2.5,
                    from: Tick::new(0),
                    until: Tick::new(600),
                },
                ScenarioEvent::CloseRoad {
                    road: recover_incident_road,
                    at: Tick::new(100),
                },
                ScenarioEvent::ReopenRoad {
                    road: recover_incident_road,
                    at: Tick::new(130),
                },
            ],
            replan: ReplanPolicy::AtNextJunction,
            watchdog: None,
        },
        ScenarioSpec {
            name: "grid-congestion-replan".to_string(),
            seed: 2020,
            horizon: Ticks::new(700),
            // Pattern I again: the north–south axis carries 3× the
            // east–west load, so the surge saturates the central column
            // first and the congestion monitor has asymmetry to exploit.
            topology: TopologySpec::Grid {
                spec: GridSpec::paper(),
                pattern: Pattern::I,
            },
            demand: DemandProfile::Constant,
            events: vec![ScenarioEvent::Surge {
                factor: 4.0,
                from: Tick::new(40),
                until: Tick::new(400),
            }],
            // The threshold is calibrated to *internal* roads: boundary
            // entry roads saturate first under the surge, but an entry
            // road can never appear in a route suffix, so only internal
            // congestion is divertible (and it builds more slowly than
            // the entry backlog).
            replan: ReplanPolicy::Congestion {
                period: 20,
                threshold: 0.2,
                hysteresis: 0.04,
            },
            watchdog: None,
        },
        ScenarioSpec {
            name: "arterial-sensor-dropout".to_string(),
            seed: 2020,
            horizon: Ticks::new(700),
            topology: TopologySpec::Arterial(ArterialSpec::default()),
            demand: DemandProfile::Day { peak_factor: 2.0 },
            events: vec![ScenarioEvent::SensorFault {
                config: utilbp_baselines::SensorFaultConfig {
                    dropout: 0.3,
                    freeze: 0.1,
                    ..utilbp_baselines::SensorFaultConfig::NONE
                },
                from: Tick::new(150),
                until: Tick::new(450),
            }],
            replan: ReplanPolicy::Off,
            watchdog: None,
        },
        ScenarioSpec {
            name: "grid-actuator-fault".to_string(),
            seed: 2020,
            horizon: Ticks::new(600),
            topology: TopologySpec::Grid {
                spec: GridSpec::paper(),
                pattern: Pattern::II,
            },
            demand: DemandProfile::Constant,
            events: vec![ScenarioEvent::ActuationFault {
                config: utilbp_baselines::ActuationFaultConfig {
                    stuck: 0.05,
                    stuck_ticks: 40,
                    drop: 0.2,
                    delay: 0.15,
                    delay_ticks: 4,
                },
                from: Tick::new(100),
                until: Tick::new(400),
            }],
            replan: ReplanPolicy::Off,
            watchdog: None,
        },
        ScenarioSpec {
            name: "grid-degraded-recovery".to_string(),
            seed: 2020,
            horizon: Ticks::new(600),
            topology: TopologySpec::Grid {
                spec: GridSpec::paper(),
                pattern: Pattern::II,
            },
            demand: DemandProfile::Constant,
            // frozen = 1.0: every detector latches at its tick-100 truth
            // for the whole window. The loaded grid has non-empty queues
            // by then, so each watchdog sees a frozen, non-empty stream,
            // degrades to fixed-time, and recovers (with hysteresis)
            // once the window closes at 250 and counters go live again.
            events: vec![ScenarioEvent::SensorFault {
                config: utilbp_baselines::SensorFaultConfig {
                    frozen: 1.0,
                    ..utilbp_baselines::SensorFaultConfig::NONE
                },
                from: Tick::new(100),
                until: Tick::new(250),
            }],
            replan: ReplanPolicy::Off,
            watchdog: Some(utilbp_baselines::WatchdogConfig::default()),
        },
    ]
}

/// Looks up a built-in scenario by name.
pub fn builtin(name: &str) -> Option<ScenarioSpec> {
    builtin_scenarios().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_covers_the_required_axes() {
        let all = builtin_scenarios();
        assert!(all.len() >= 11, "at least eleven built-ins");
        assert!(
            all.iter()
                .any(|s| s.replan == ReplanPolicy::AtNextJunction && s.has_closures()),
            "a replanning incident scenario"
        );
        assert!(
            all.iter()
                .any(|s| matches!(s.replan, ReplanPolicy::Congestion { .. }) && !s.has_closures()),
            "a congestion-replanning scenario with no incident"
        );
        let non_grid = all
            .iter()
            .filter(|s| !matches!(s.topology, TopologySpec::Grid { .. }))
            .count();
        assert!(non_grid >= 3, "at least three non-grid topologies");
        let time_varying = all.iter().filter(|s| s.demand.is_time_varying()).count();
        assert!(time_varying >= 2, "at least two time-varying profiles");
        assert!(all.iter().any(|s| s.has_closures()), "a closure scenario");
        assert!(
            all.iter().any(|s| s.sensor_fault().is_some()),
            "a sensor-fault scenario"
        );
        assert!(
            all.iter().any(|s| s.actuation_fault().is_some()),
            "an actuation-fault scenario"
        );
        assert!(
            all.iter()
                .any(|s| s.watchdog.is_some() && s.sensor_fault().is_some()),
            "a watchdog-guarded degradation scenario"
        );
    }

    #[test]
    fn every_builtin_validates() {
        for spec in builtin_scenarios() {
            spec.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        }
    }

    #[test]
    fn builtin_lookup_by_name() {
        assert!(builtin("paper-grid").is_some());
        assert!(builtin("ring-pulse").is_some());
        assert!(builtin("grid-incident-replan").is_some());
        assert!(builtin("grid-incident-recover").is_some());
        assert!(builtin("grid-congestion-replan").is_some());
        assert!(builtin("grid-actuator-fault").is_some());
        assert!(builtin("grid-degraded-recovery").is_some());
        assert!(builtin("no-such-scenario").is_none());
    }
}
