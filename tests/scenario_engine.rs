//! Scenario-engine guarantees: determinism across repeated runs
//! (including runs with mid-run disruption events), and closure events
//! that provably block and reroute traffic.

use adaptive_backpressure::core::{SignalController, Tick, Ticks, UtilBp};
use adaptive_backpressure::scenario::{
    builtin, builtin_scenarios, parse_scenario, run_scenario, Backend, DemandProfile, EngineConfig,
    ReplanPolicy, ScenarioEngine, ScenarioEvent, ScenarioOutcome, ScenarioSpec, TopologySpec,
};

fn util_factory() -> impl Fn(usize) -> Box<dyn SignalController> {
    |_| Box::new(UtilBp::paper()) as Box<dyn SignalController>
}

fn run(spec: &ScenarioSpec, backend: Backend) -> ScenarioOutcome {
    run_scenario(spec.clone(), EngineConfig::new(backend), &util_factory()).expect("spec validates")
}

/// The incident scenario trimmed to a fast horizon that still covers the
/// closure and the reopening.
fn incident_spec() -> ScenarioSpec {
    let mut spec = builtin("grid-incident").expect("builtin exists");
    spec.horizon = Ticks::new(500);
    spec
}

/// The replanning incident scenario trimmed to a fast horizon that still
/// covers the closure and the reopening.
fn replan_spec() -> ScenarioSpec {
    let mut spec = builtin("grid-incident-replan").expect("builtin exists");
    assert_eq!(spec.replan, ReplanPolicy::AtNextJunction);
    spec.horizon = Ticks::new(500);
    spec
}

/// The recover scenario (early closure + reopening, replanning on)
/// trimmed to a fast horizon that still covers both events.
fn recover_spec() -> ScenarioSpec {
    let mut spec = builtin("grid-incident-recover").expect("builtin exists");
    assert_eq!(spec.replan, ReplanPolicy::AtNextJunction);
    spec.horizon = Ticks::new(400);
    spec
}

/// The congestion-replanning scenario trimmed to a fast horizon that
/// still covers the surge.
fn congestion_spec() -> ScenarioSpec {
    let mut spec = builtin("grid-congestion-replan").expect("builtin exists");
    assert!(matches!(spec.replan, ReplanPolicy::Congestion { .. }));
    spec.horizon = Ticks::new(400);
    spec
}

#[test]
fn same_scenario_and_seed_is_bit_identical_across_parallelism_and_repeats() {
    // Includes the closure/reopen scenarios — with and without en-route
    // replanning — plus the reopen-restore and congestion-replanning
    // builtins: events, periodic monitor reads, and route rewriting must
    // not disturb determinism.
    let specs = [
        incident_spec(),
        replan_spec(),
        recover_spec(),
        congestion_spec(),
        {
            let mut s = builtin("ring-pulse").expect("builtin exists");
            s.horizon = Ticks::new(300);
            s
        },
    ];
    for spec in &specs {
        for backend in Backend::ALL {
            let first = run(spec, backend);
            let repeat = run(spec, backend);
            // Bit-identical: f64 metrics compared exactly, not within eps.
            assert_eq!(first, repeat, "{} repeat on {backend}", spec.name);
            assert!(first.generated > 0, "{} on {backend}", spec.name);
        }
    }
}

#[test]
fn scenario_files_reproduce_in_memory_specs() {
    // Spec → text → spec → run must equal running the original spec.
    let spec = incident_spec();
    let reparsed = parse_scenario(&spec.to_text()).expect("rendered spec parses");
    assert_eq!(reparsed, spec);
    let a = run(&spec, Backend::Queueing);
    let b = run(&reparsed, Backend::Queueing);
    assert_eq!(a, b, "a round-tripped file runs identically");
}

#[test]
fn closure_blocks_the_road_and_demand_reroutes_around_it() {
    let spec = incident_spec();
    let (closed_road, close_at, reopen_at) = {
        let mut close = None;
        let mut reopen = None;
        for e in &spec.events {
            match *e {
                ScenarioEvent::CloseRoad { road, at } => close = Some((road, at)),
                ScenarioEvent::ReopenRoad { at, .. } => reopen = Some(at),
                _ => {}
            }
        }
        let (road, at) = close.expect("incident closes a road");
        (road, at, reopen.expect("incident reopens the road"))
    };

    for backend in Backend::ALL {
        let mut engine =
            ScenarioEngine::new(spec.clone(), EngineConfig::new(backend), &util_factory())
                .expect("spec validates");

        while engine.now() < close_at {
            engine.step();
        }
        let mut max_occupancy_while_closed = 0u32;
        let mut drained = false;
        while engine.now() < reopen_at {
            engine.step();
            let occ = engine.road_occupancy(closed_road);
            drained |= occ == 0;
            if drained {
                max_occupancy_while_closed = max_occupancy_while_closed.max(occ);
            }
        }
        // Blocked: once the closed road drained, nothing re-entered it.
        assert!(drained, "{backend}: the closed road must drain");
        assert_eq!(
            max_occupancy_while_closed, 0,
            "{backend}: no vehicle enters a closed road"
        );
        // Rerouted: traffic kept flowing through the rest of the network
        // during the closure (journeys still complete).
        let completed_during_closure = engine.ledger().completed();
        assert!(
            completed_during_closure > 0,
            "{backend}: traffic reroutes around the closure"
        );
        // And after the reopening the road carries vehicles again.
        let mut reopened_traffic = false;
        while engine.now().index() < engine.spec().horizon.count() {
            engine.step();
            reopened_traffic |= engine.road_occupancy(closed_road) > 0;
        }
        assert!(reopened_traffic, "{backend}: the reopened road is used");
    }
}

#[test]
fn replanning_diverts_upstream_vehicles_onto_detour_roads() {
    let spec = replan_spec();
    let (closed_road, close_at, reopen_at) = {
        let mut close = None;
        let mut reopen = None;
        for e in &spec.events {
            match *e {
                ScenarioEvent::CloseRoad { road, at } => close = Some((road, at)),
                ScenarioEvent::ReopenRoad { at, .. } => reopen = Some(at),
                _ => {}
            }
        }
        let (road, at) = close.expect("incident closes a road");
        (road, at, reopen.expect("incident reopens the road"))
    };

    for backend in Backend::ALL {
        let mut engine =
            ScenarioEngine::new(spec.clone(), EngineConfig::new(backend), &util_factory())
                .expect("spec validates");
        while engine.now() < close_at {
            engine.step();
        }
        assert_eq!(
            engine.vehicles_diverted(),
            0,
            "{backend}: nothing diverts early"
        );
        // Step across the closure event.
        engine.step();
        let diverted = engine.vehicles_diverted();
        assert!(
            diverted > 0,
            "{backend}: a loaded grid must have upstream vehicles to divert"
        );
        let detours: Vec<_> = engine.detour_roads().to_vec();
        assert!(
            !detours.is_empty(),
            "{backend}: diversions add detour roads"
        );
        assert!(
            !detours.contains(&closed_road),
            "{backend}: the closed road is never a detour"
        );
        let entered_before: Vec<u64> = detours.iter().map(|&r| engine.road_entered(r)).collect();

        // Run out the closure window: the diverted vehicles must actually
        // land on their detour roads, and the closed road must drain and
        // stay empty.
        let mut drained = false;
        let mut reentered = false;
        while engine.now() < reopen_at {
            engine.step();
            let occ = engine.road_occupancy(closed_road);
            reentered |= drained && occ > 0;
            drained |= occ == 0;
        }
        assert!(drained, "{backend}: the closed road must drain");
        assert!(!reentered, "{backend}: nothing re-enters a closed road");
        let landings: u64 = detours
            .iter()
            .zip(&entered_before)
            .map(|(&r, &before)| engine.road_entered(r) - before)
            .sum();
        assert!(
            landings > 0,
            "{backend}: diverted vehicles must land on detour roads"
        );
        // No diversions fire after the single closure event.
        assert_eq!(engine.vehicles_diverted(), diverted, "{backend}");
    }
}

#[test]
fn replanning_off_and_on_agree_until_the_closure() {
    // The same incident timeline with replanning off (`grid-incident`
    // uses reopen=400, so compare against a copy of the replan spec with
    // the policy switched off): identical demand stream, identical
    // everything — except the diverted counter and the post-closure
    // traffic pattern.
    let on = replan_spec();
    let mut off = on.clone();
    off.replan = ReplanPolicy::Off;
    for backend in Backend::ALL {
        let outcome_on =
            run_scenario(on.clone(), EngineConfig::new(backend), &util_factory()).unwrap();
        let outcome_off =
            run_scenario(off.clone(), EngineConfig::new(backend), &util_factory()).unwrap();
        assert!(outcome_on.diverted > 0, "{backend}");
        assert_eq!(outcome_off.diverted, 0, "{backend}");
        // Demand generation is upstream of replanning: both runs see the
        // same arrival process.
        assert_eq!(outcome_on.generated, outcome_off.generated, "{backend}");
        assert_eq!(outcome_on.suppressed, outcome_off.suppressed, "{backend}");
    }
}

#[test]
fn surge_and_fault_scenarios_stay_deterministic_with_events_applied() {
    let spec = ScenarioSpec {
        name: "events-determinism".to_string(),
        seed: 99,
        horizon: Ticks::new(300),
        topology: TopologySpec::Arterial(Default::default()),
        demand: DemandProfile::Pulse {
            from: 50,
            len: 100,
            factor: 2.0,
        },
        events: vec![
            ScenarioEvent::Surge {
                factor: 2.0,
                from: Tick::new(100),
                until: Tick::new(200),
            },
            ScenarioEvent::SensorFault {
                config: adaptive_backpressure::baselines::SensorFaultConfig {
                    dropout: 0.25,
                    freeze: 0.1,
                    ..adaptive_backpressure::baselines::SensorFaultConfig::NONE
                },
                from: Tick::new(80),
                until: Tick::new(220),
            },
            ScenarioEvent::ActuationFault {
                config: adaptive_backpressure::baselines::ActuationFaultConfig {
                    stuck: 0.05,
                    stuck_ticks: 20,
                    drop: 0.2,
                    delay: 0.1,
                    delay_ticks: 3,
                },
                from: Tick::new(120),
                until: Tick::new(260),
            },
        ],
        replan: ReplanPolicy::Off,
        watchdog: Some(adaptive_backpressure::baselines::WatchdogConfig::default()),
        fidelity: adaptive_backpressure::microsim::Fidelity::Exact,
    };
    for backend in Backend::ALL {
        let a = run(&spec, backend);
        let b = run(&spec, backend);
        assert_eq!(a, b, "events + faults stay deterministic on {backend}");
    }
}

#[test]
fn mid_run_fault_switch_toggling_stays_deterministic_across_parallelism() {
    // The timeline normally drives the fault switches; here an external
    // supervisor toggles them between steps — open, shut, open again.
    // Outcomes must stay bit-identical across repeats: the switch
    // is read once per decision, and gated decorators draw nothing
    // while inactive.
    let spec = ScenarioSpec {
        name: "switch-toggle".to_string(),
        seed: 17,
        horizon: Ticks::new(240),
        topology: TopologySpec::Grid {
            spec: adaptive_backpressure::netgen::GridSpec::paper(),
            pattern: adaptive_backpressure::netgen::Pattern::II,
        },
        demand: DemandProfile::Constant,
        // Windowless fault events would never open the switches; give
        // the spec both fault configs with inert timelines so the
        // engine installs the gated decorators, then drive the switches
        // by hand.
        events: vec![
            ScenarioEvent::SensorFault {
                config: adaptive_backpressure::baselines::SensorFaultConfig {
                    frozen: 0.8,
                    dropout: 0.2,
                    ..adaptive_backpressure::baselines::SensorFaultConfig::NONE
                },
                from: Tick::new(230),
                until: Tick::new(235),
            },
            ScenarioEvent::ActuationFault {
                config: adaptive_backpressure::baselines::ActuationFaultConfig {
                    stuck: 0.1,
                    stuck_ticks: 15,
                    drop: 0.25,
                    delay: 0.2,
                    delay_ticks: 2,
                },
                from: Tick::new(230),
                until: Tick::new(235),
            },
        ],
        replan: ReplanPolicy::Off,
        watchdog: None,
        fidelity: adaptive_backpressure::microsim::Fidelity::Exact,
    };
    let toggled_run = |backend: Backend| -> ScenarioOutcome {
        let config = EngineConfig::new(backend);
        let mut engine =
            ScenarioEngine::new(spec.clone(), config, &util_factory()).expect("spec validates");
        let sensors = engine.sensor_fault_switch();
        let actuators = engine.actuation_fault_switch();
        while engine.now().index() < engine.spec().horizon.count() {
            match engine.now().index() {
                40 => sensors.set_active(true),
                90 => {
                    sensors.set_active(false);
                    actuators.set_active(true);
                }
                140 => sensors.set_active(true),
                190 => {
                    sensors.set_active(false);
                    actuators.set_active(false);
                }
                _ => {}
            }
            engine.step();
        }
        engine.outcome()
    };
    for backend in Backend::ALL {
        let first = toggled_run(backend);
        let repeat = toggled_run(backend);
        assert_eq!(first, repeat, "{backend}: repeat determinism");
        assert!(first.generated > 0, "{backend}");
    }
}

#[test]
fn reopening_restores_diverted_vehicles_with_exact_counters() {
    let spec = recover_spec();
    let (closed_road, close_at, reopen_at) = {
        let mut close = None;
        let mut reopen = None;
        for e in &spec.events {
            match *e {
                ScenarioEvent::CloseRoad { road, at } => close = Some((road, at)),
                ScenarioEvent::ReopenRoad { at, .. } => reopen = Some(at),
                _ => {}
            }
        }
        let (road, at) = close.expect("recover closes a road");
        (road, at, reopen.expect("recover reopens the road"))
    };

    for backend in Backend::ALL {
        let mut engine =
            ScenarioEngine::new(spec.clone(), EngineConfig::new(backend), &util_factory())
                .expect("spec validates");
        // Step across the closure: upstream traffic diverts.
        while engine.now() <= close_at {
            engine.step();
        }
        let diverted = engine.vehicles_diverted();
        assert!(diverted > 0, "{backend}: the closure diverts traffic");
        assert_eq!(
            engine.vehicles_restored(),
            0,
            "{backend}: nothing restores early"
        );

        // Step across the reopening: diverted vehicles still en route are
        // rewritten back onto the (strictly better) reopened corridor.
        let entered_at_reopen = engine.road_entered(closed_road);
        while engine.now() <= reopen_at {
            engine.step();
        }
        let restored = engine.vehicles_restored();
        assert!(
            restored > 0,
            "{backend}: the reopening must restore diverted vehicles"
        );
        assert!(
            restored <= diverted,
            "{backend}: only diverted vehicles can restore ({restored} vs {diverted})"
        );
        // The reopening itself diverts nobody new in this scenario (there
        // is no other closure to route around).
        assert_eq!(
            engine.vehicles_diverted(),
            diverted,
            "{backend}: a reopening with no remaining closures diverts nobody"
        );

        // Run out the horizon: restored vehicles actually return — the
        // reopened road carries traffic again.
        engine.run_to_end();
        assert!(
            engine.road_entered(closed_road) > entered_at_reopen,
            "{backend}: the reopened road must carry traffic again"
        );
        let outcome = engine.outcome();
        assert_eq!(outcome.diverted, engine.vehicles_diverted(), "{backend}");
        assert_eq!(outcome.restored, engine.vehicles_restored(), "{backend}");
        assert_eq!(
            engine.congestion_reroutes(),
            0,
            "{backend}: no congestion policy, no congestion reroutes"
        );
    }
}

#[test]
fn congestion_policy_reroutes_under_load_and_is_free_off_threshold() {
    let spec = congestion_spec();
    for backend in Backend::ALL {
        // Under the surge the monitored axis saturates and the periodic
        // pass reroutes journeys around it.
        let mut engine =
            ScenarioEngine::new(spec.clone(), EngineConfig::new(backend), &util_factory())
                .expect("spec validates");
        engine.run_to_end();
        assert!(
            engine.congestion_reroutes() > 0,
            "{backend}: the surge must trigger congestion reroutes"
        );
        assert_eq!(
            engine.vehicles_diverted(),
            engine.congestion_reroutes(),
            "{backend}: no closures, so every diversion is congestion-driven"
        );
        assert_eq!(engine.vehicles_restored(), 0, "{backend}");
        assert!(
            engine.congestion_transitions() > 0,
            "{backend}: roads crossed the threshold"
        );
        let outcome = engine.outcome();
        assert!(outcome.diverted > 0, "{backend}");

        // With a threshold no road can reach, the policy's off-path cost
        // is exactly zero: bit-identical to running with replanning off.
        let mut never = spec.clone();
        never.replan = ReplanPolicy::Congestion {
            period: 20,
            threshold: 1e6,
            hysteresis: 0.1,
        };
        let mut off = spec.clone();
        off.replan = ReplanPolicy::Off;
        let never_outcome =
            run_scenario(never, EngineConfig::new(backend), &util_factory()).unwrap();
        let off_outcome = run_scenario(off, EngineConfig::new(backend), &util_factory()).unwrap();
        assert_eq!(
            never_outcome, off_outcome,
            "{backend}: an untriggered congestion policy changes nothing"
        );
        assert_eq!(never_outcome.diverted, 0, "{backend}");
    }
}

#[test]
fn congestion_diverted_vehicles_restore_once_the_congested_set_clears() {
    // A surge on the straight-biased asymmetric grid (80%
    // through-traffic, so congestion detours are strictly worse by
    // turning weight — the same precondition reopen-restore needs)
    // saturates the north–south axis and the monitor diverts journeys
    // around it. Once every suffix-eligible road leaves the hysteresis
    // band, the engine offers each tracked congestion-diverted vehicle
    // its restore — the mirror image of reopen-restore for the
    // endogenous congestion regime.
    let spec = ScenarioSpec {
        name: "congestion-restore".to_string(),
        seed: 2020,
        horizon: Ticks::new(600),
        topology: TopologySpec::AsymmetricGrid(adaptive_backpressure::netgen::AsymmetricGridSpec {
            inter_arrival_s: [5.0, 12.0, 5.0, 12.0],
            turning: adaptive_backpressure::netgen::TurningProbabilities::new([(0.1, 0.1); 4])
                .expect("0.1 right + 0.1 left per side is a valid table"),
            ..adaptive_backpressure::netgen::AsymmetricGridSpec::default()
        }),
        demand: DemandProfile::Constant,
        events: vec![ScenarioEvent::Surge {
            factor: 5.0,
            from: Tick::new(40),
            until: Tick::new(100),
        }],
        replan: ReplanPolicy::Congestion {
            period: 10,
            threshold: 0.2,
            hysteresis: 0.04,
        },
        watchdog: None,
        fidelity: adaptive_backpressure::microsim::Fidelity::Exact,
    };
    for backend in Backend::ALL {
        let mut engine =
            ScenarioEngine::new(spec.clone(), EngineConfig::new(backend), &util_factory())
                .expect("spec validates");
        engine.run_to_end();
        assert!(
            engine.congestion_reroutes() > 0,
            "{backend}: the surge must trigger congestion reroutes"
        );
        let restores = engine.congestion_restores();
        assert!(
            restores > 0,
            "{backend}: clearing congestion must restore tracked detours"
        );
        assert_eq!(
            engine.vehicles_restored(),
            restores,
            "{backend}: no closures, so every restore is congestion-driven"
        );
        assert!(
            restores <= engine.congestion_reroutes(),
            "{backend}: only diverted vehicles can restore"
        );
        let outcome = engine.outcome();
        assert_eq!(outcome.restored, restores, "{backend}");
    }
}

#[test]
fn hysteresis_prevents_congested_set_churn_when_occupancy_hovers() {
    use adaptive_backpressure::scenario::CongestionMonitor;
    // Occupancy hovering around the threshold: with a hysteresis band the
    // road enters the congested set once and stays; with no band it
    // toggles on every crossing (the churn the band exists to prevent).
    let hovering = [0.45, 0.52, 0.48, 0.51, 0.46, 0.50, 0.44, 0.53, 0.42, 0.55];
    let mut banded = CongestionMonitor::new(0.5, 0.1, 1);
    let mut bare = CongestionMonitor::new(0.5, 0.0, 1);
    for &ratio in &hovering {
        banded.update(&[ratio]);
        bare.update(&[ratio]);
    }
    assert_eq!(
        banded.transitions(),
        1,
        "one onset, zero churn: every hovering ratio stays above the clear level"
    );
    assert!(
        bare.transitions() > 2,
        "without the band the set flips on every crossing ({} transitions)",
        bare.transitions()
    );
    // Falling well below the band releases the road.
    banded.update(&[0.2]);
    assert_eq!(banded.transitions(), 2);
    assert!(!banded.update(&[0.2]));
}

#[test]
fn builtin_library_meets_the_coverage_floor() {
    let all = builtin_scenarios();
    assert!(all.len() >= 7);
    let non_grid = all
        .iter()
        .filter(|s| !matches!(s.topology, TopologySpec::Grid { .. }))
        .count();
    assert!(non_grid >= 3);
    assert!(all.iter().filter(|s| s.demand.is_time_varying()).count() >= 2);
    assert!(all.iter().any(|s| s.has_closures()));
    assert!(all.iter().any(|s| s.sensor_fault().is_some()));
    assert!(all.iter().any(|s| s.actuation_fault().is_some()));
    assert!(all.iter().any(|s| s.watchdog.is_some()));
    assert!(all
        .iter()
        .any(|s| s.replan == ReplanPolicy::AtNextJunction && s.has_closures()));
    assert!(all
        .iter()
        .any(|s| matches!(s.replan, ReplanPolicy::Congestion { .. })));
}
