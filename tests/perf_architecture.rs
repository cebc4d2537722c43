//! Integration tests of the performance architecture: twin runs must be
//! bit-identical step for step, the incrementally maintained sensor
//! counters must never diverge from a from-scratch rescan, the decide
//! phase's skip of controllers at rest must change nothing, and the SoA
//! vehicle-arena hot loop must reproduce the legacy array-of-structs
//! implementation bit for bit (golden oracle below).
//! The steady-state allocation bound lives in `tests/perf_alloc.rs`,
//! which needs a process-exclusive counting allocator.

use adaptive_backpressure::core::state::{StateError, StateReader, StateWriter};
use adaptive_backpressure::core::{
    IntersectionLayout, IntersectionView, PhaseDecision, SignalController, Tick, Ticks, UtilBp,
};
use adaptive_backpressure::microsim::{MicroSim, MicroSimConfig};
use adaptive_backpressure::netgen::{
    Arrival, DemandConfig, DemandGenerator, DemandSchedule, GridNetwork, GridSpec, Network, Pattern,
};
use adaptive_backpressure::queueing::{QueueSim, QueueSimConfig};
use adaptive_backpressure::scenario::{
    builtin_scenarios, Backend, CheckpointPolicy, EngineConfig, NetworkDemand, RateSchedule,
    ScenarioEngine, ScenarioOutcome,
};
use adaptive_backpressure::substrate::{build_substrate, SubstrateScratch, TrafficSubstrate};

fn controllers(n: usize) -> Vec<Box<dyn SignalController>> {
    (0..n)
        .map(|_| Box::new(UtilBp::paper()) as Box<dyn SignalController>)
        .collect()
}

fn grid() -> GridNetwork {
    GridNetwork::new(GridSpec::with_size(3, 3))
}

fn demand(grid: &GridNetwork, horizon: u64) -> DemandGenerator {
    DemandGenerator::new(
        grid,
        DemandConfig::new(DemandSchedule::constant(Pattern::I, Ticks::new(horizon))),
        42,
    )
}

/// Drives two identically seeded demand streams, one per twin run.
fn tick_arrivals(gen: &mut DemandGenerator, grid: &GridNetwork, k: u64) -> Vec<Arrival> {
    gen.poll(grid, Tick::new(k))
}

#[test]
fn microsim_twin_runs_are_step_identical() {
    const HORIZON: u64 = 500;
    let g = grid();
    let n = g.topology().num_intersections();
    let build = || {
        MicroSim::new(
            g.topology().clone(),
            controllers(n),
            MicroSimConfig::default(),
        )
    };
    let (mut first, mut twin) = (build(), build());
    let mut demand_a = demand(&g, HORIZON);
    let mut demand_b = demand(&g, HORIZON);

    for k in 0..HORIZON {
        let a = first.step(tick_arrivals(&mut demand_a, &g, k));
        let b = twin.step(tick_arrivals(&mut demand_b, &g, k));
        assert_eq!(a, b, "step reports diverged at tick {k}");
    }
    assert!(first.total_crossings() > 0, "traffic must actually flow");
    assert_eq!(first.total_crossings(), twin.total_crossings());
    assert_eq!(first.vehicles_in_network(), twin.vehicles_in_network());
    assert_eq!(first.backlog_len(), twin.backlog_len());
    assert_eq!(first.fleet_digest(), twin.fleet_digest());
    // Final ledgers agree on every aggregate.
    let (la, lb) = (first.ledger(), twin.ledger());
    assert_eq!(la.completed(), lb.completed());
    assert_eq!(la.active(), lb.active());
    assert_eq!(la.waiting_stats().mean(), lb.waiting_stats().mean());
    assert_eq!(la.journey_stats().mean(), lb.journey_stats().mean());
    assert_eq!(
        first.mean_waiting_including_active(),
        twin.mean_waiting_including_active()
    );
}

#[test]
fn queueing_twin_runs_are_step_identical() {
    const HORIZON: u64 = 500;
    let g = grid();
    let n = g.topology().num_intersections();
    let build = || {
        QueueSim::new(
            g.topology().clone(),
            controllers(n),
            QueueSimConfig::default(),
        )
    };
    let (mut first, mut twin) = (build(), build());
    let mut demand_a = demand(&g, HORIZON);
    let mut demand_b = demand(&g, HORIZON);

    for k in 0..HORIZON {
        let a = first.step(tick_arrivals(&mut demand_a, &g, k));
        let b = twin.step(tick_arrivals(&mut demand_b, &g, k));
        assert_eq!(a, b, "step reports diverged at tick {k}");
    }
    assert!(first.total_served() > 0, "traffic must actually flow");
    assert_eq!(first.total_served(), twin.total_served());
    assert_eq!(first.backlog_len(), twin.backlog_len());
    let (la, lb) = (first.ledger(), twin.ledger());
    assert_eq!(la.completed(), lb.completed());
    assert_eq!(la.active(), lb.active());
    assert_eq!(la.waiting_stats().mean(), lb.waiting_stats().mean());
    assert_eq!(la.journey_stats().mean(), lb.journey_stats().mean());
    assert_eq!(
        first.mean_waiting_including_active(),
        twin.mean_waiting_including_active()
    );
}

#[test]
fn microsim_incremental_sensors_match_rescan_every_tick() {
    const HORIZON: u64 = 200;
    let g = grid();
    let n = g.topology().num_intersections();
    // Dawdling on (the default) so speeds fluctuate across the halt
    // threshold, exercising both counter directions.
    let mut sim = MicroSim::new(
        g.topology().clone(),
        controllers(n),
        MicroSimConfig::default(),
    );
    let mut gen = demand(&g, HORIZON);
    for k in 0..HORIZON {
        sim.step(tick_arrivals(&mut gen, &g, k));
        sim.verify_sensors()
            .unwrap_or_else(|msg| panic!("tick {k}: {msg}"));
    }
    assert!(
        sim.vehicles_in_network() > 50,
        "the run must build real queues for the check to mean anything"
    );
}

#[test]
fn queueing_incremental_sensors_match_rescan_every_tick() {
    const HORIZON: u64 = 200;
    let g = grid();
    let n = g.topology().num_intersections();
    let mut sim = QueueSim::new(
        g.topology().clone(),
        controllers(n),
        QueueSimConfig::default(),
    );
    let mut gen = demand(&g, HORIZON);
    for k in 0..HORIZON {
        sim.step(tick_arrivals(&mut gen, &g, k));
        sim.verify_sensors()
            .unwrap_or_else(|msg| panic!("tick {k}: {msg}"));
    }
    assert!(sim.total_served() > 0);
}

/// Forwards everything to the controller it wraps except the at-rest
/// opt-in, which keeps the default `false`: the decide phase calls it
/// every tick.
struct NeverAtRest(Box<dyn SignalController>);

impl SignalController for NeverAtRest {
    fn decide(&mut self, view: &IntersectionView<'_>, now: Tick) -> PhaseDecision {
        self.0.decide(view, now)
    }
    fn reset(&mut self) {
        self.0.reset();
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn save_state(&self, writer: &mut StateWriter) {
        self.0.save_state(writer);
    }
    fn load_state(&mut self, reader: &mut StateReader<'_>) -> Result<(), StateError> {
        self.0.load_state(reader)
    }
    fn check_state(&self, layout: &IntersectionLayout) -> Result<(), StateError> {
        self.0.check_state(layout)
    }
}

/// A built-in run under the observe guard, recording and profiling,
/// with a checkpoint (and its size and CRC in the event stream) every 32
/// ticks: the outcome, the event stream, the final capture and the
/// decide calls per tick.
fn recorded_run(
    spec: &adaptive_backpressure::scenario::ScenarioSpec,
    backend: Backend,
    skip: bool,
) -> (ScenarioOutcome, String, Vec<u8>, f64) {
    let factory = |_: usize| -> Box<dyn SignalController> {
        let controller = Box::new(UtilBp::paper());
        if skip {
            controller
        } else {
            Box::new(NeverAtRest(controller))
        }
    };
    let config = EngineConfig::new(backend).observed();
    let mut engine = ScenarioEngine::new(spec.clone(), config, &factory).expect("a builtin");
    engine.enable_recording(1 << 16);
    engine.enable_checkpoints(CheckpointPolicy::every(32));
    engine.enable_profiling();
    engine.run_to_end();
    let calls = engine.profiler().and_then(|p| p.decide_calls_per_tick());
    (
        engine.outcome(),
        engine.events_jsonl(),
        engine.checkpoint(),
        calls.expect("profiled ticks"),
    )
}

#[test]
fn skipping_controllers_at_rest_changes_no_bit_on_any_builtin() {
    // Every built-in scenario on both plants, once with bare UTIL-BP
    // controllers (skipped while at rest on unchanged readings) and
    // once with each behind a decorator that never opts in (called every
    // tick): outcomes, event streams and checkpoint bytes agree.
    let mut calls = (0.0, 0.0);
    for spec in builtin_scenarios() {
        for backend in [Backend::Queueing, Backend::Microscopic] {
            let skipped = recorded_run(&spec, backend, true);
            let called = recorded_run(&spec, backend, false);
            calls.0 += skipped.3;
            calls.1 += called.3;
            assert_eq!(skipped.0, called.0, "{} on {backend:?}: outcome", spec.name);
            assert!(
                skipped.1 == called.1,
                "{} on {backend:?}: event stream",
                spec.name
            );
            assert!(skipped.1.contains("\"kind\":\"checkpoint\""));
            assert!(
                skipped.2 == called.2,
                "{} on {backend:?}: final capture",
                spec.name
            );
        }
    }
    assert!(calls.0 < 0.95 * calls.1, "the skip took effect: {calls:?}");
}

#[test]
fn a_restore_over_a_running_plant_decides_afresh() {
    // Two empty plants rest on different phases: one never saw a
    // vehicle, the other drained after a loaded run. The first loads the
    // second's capture. Its readings are unchanged (all zero), but a
    // slot's decision is not state, so every controller must decide
    // again, and the plant then steps exactly as the drained run.
    let grid = grid();
    for backend in [Backend::Queueing, Backend::Microscopic] {
        let build = || {
            build_substrate(
                backend,
                grid.topology().clone(),
                controllers(9),
                MicroSimConfig::default(),
            )
        };
        let (mut drained, mut idle) = (build(), build());
        let (mut scratch_a, mut scratch_b) = (SubstrateScratch::new(), SubstrateScratch::new());
        let mut gen = demand(&grid, 2000);
        let mut held = (Vec::new(), Vec::new());
        for k in 0..1000 {
            let mut arrivals = if k < 200 {
                tick_arrivals(&mut gen, &grid, k)
            } else {
                Vec::new()
            };
            held.0 = drained
                .step_into(&mut arrivals, &mut scratch_a, None)
                .to_vec();
            held.1 = idle
                .step_into(&mut Vec::new(), &mut scratch_b, None)
                .to_vec();
        }
        assert_eq!(drained.ledger().active(), 0, "{backend:?}: drained");
        assert_ne!(held.0, held.1, "{backend:?}: different phases held");
        let capture = |plant: &dyn TrafficSubstrate| {
            let mut writer = StateWriter::new();
            plant.save_state(&mut writer);
            writer.bytes().to_vec()
        };
        idle.load_state(&mut StateReader::new(&capture(&*drained)))
            .expect("an intact capture");
        for k in 1000..1200 {
            let arrivals = tick_arrivals(&mut gen, &grid, k);
            let a = drained.step_into(&mut arrivals.clone(), &mut scratch_a, None);
            let b = idle.step_into(&mut arrivals.clone(), &mut scratch_b, None);
            assert_eq!(a, b, "{backend:?}: decisions at k={k}");
        }
        assert!(
            capture(&*drained) == capture(&*idle),
            "{backend:?}: state after the resumed run"
        );
    }
}

#[test]
fn step_into_reuses_buffers_and_matches_step() {
    // The allocation-free path must produce the same reports as the
    // allocating convenience wrapper.
    const HORIZON: u64 = 300;
    let g = grid();
    let n = g.topology().num_intersections();
    let mut a = MicroSim::new(
        g.topology().clone(),
        controllers(n),
        MicroSimConfig::default(),
    );
    let mut b = MicroSim::new(
        g.topology().clone(),
        controllers(n),
        MicroSimConfig::default(),
    );
    let mut demand_a = demand(&g, HORIZON);
    let mut demand_b = demand(&g, HORIZON);

    let mut arrivals = Vec::new();
    let mut report = adaptive_backpressure::microsim::StepReport::empty();
    for k in 0..HORIZON {
        let wrapped = a.step(tick_arrivals(&mut demand_a, &g, k));
        arrivals.clear();
        demand_b.poll_into(&g, Tick::new(k), &mut arrivals);
        b.step_into(&mut arrivals, &mut report, None);
        assert_eq!(wrapped, report, "reports diverged at tick {k}");
        assert!(arrivals.is_empty(), "step_into must drain the arrivals");
    }
}

/// Legacy-semantics oracle: these constants were produced by the
/// pre-arena implementation (`VecDeque<Vehicle>` per lane, ledger-side
/// waiting accumulation) on the identical seeded run — 5×5 grid,
/// UTIL-BP, Pattern I demand (seed 77), microsim seed 0. The SoA
/// arena, per-vehicle wait accumulators, and query-time ledger fold must
/// reproduce every number bit for bit, including the f64 position/speed
/// sums (same operations in the same order).
#[test]
fn arena_matches_legacy_oracle_on_seeded_5x5_run() {
    struct Golden {
        tick: u64,
        crossings: u64,
        completed: u64,
        active: usize,
        in_network: usize,
        backlog: usize,
        digest: (usize, usize, f64, f64),
        wait_mean: f64,
        wait_inc: f64,
        journey: f64,
    }
    let goldens = [
        Golden {
            tick: 299,
            crossings: 3048,
            completed: 291,
            active: 944,
            in_network: 942,
            backlog: 2,
            digest: (910, 32, 182945.353260837, 6016.231170764876),
            wait_mean: 15.996563573883163,
            wait_inc: 27.54736842105263,
            journey: 163.68041237113405,
        },
        Golden {
            tick: 599,
            crossings: 7579,
            completed: 1188,
            active: 1234,
            in_network: 1086,
            backlog: 148,
            digest: (1035, 51, 206771.5661903171, 5327.037561466268),
            wait_mean: 49.741582491582506,
            wait_inc: 61.77208918249381,
            journey: 229.6952861952861,
        },
    ];

    let g = GridNetwork::new(GridSpec::with_size(5, 5));
    let n = g.topology().num_intersections();
    let mut sim = MicroSim::new(
        g.topology().clone(),
        controllers(n),
        MicroSimConfig::default(),
    );
    let mut gen = DemandGenerator::new(
        &g,
        DemandConfig::new(DemandSchedule::constant(Pattern::I, Ticks::new(600))),
        77,
    );
    let mut next = goldens.iter();
    let mut expect = next.next();
    for k in 0..600u64 {
        sim.step(gen.poll(&g, Tick::new(k)));
        if let Some(golden) = expect {
            if k == golden.tick {
                assert_eq!(sim.total_crossings(), golden.crossings, "tick {k}");
                assert_eq!(sim.ledger().completed(), golden.completed, "tick {k}");
                assert_eq!(sim.ledger().active(), golden.active, "tick {k}");
                assert_eq!(sim.vehicles_in_network(), golden.in_network, "tick {k}");
                assert_eq!(sim.backlog_len(), golden.backlog, "tick {k}");
                assert_eq!(sim.fleet_digest(), golden.digest, "tick {k}");
                assert_eq!(
                    sim.ledger().waiting_stats().mean(),
                    golden.wait_mean,
                    "tick {k}"
                );
                assert_eq!(
                    sim.mean_waiting_including_active(),
                    golden.wait_inc,
                    "tick {k}"
                );
                assert_eq!(
                    sim.ledger().journey_stats().mean(),
                    golden.journey,
                    "tick {k}"
                );
                expect = next.next();
            }
        }
    }
    assert!(expect.is_none(), "all golden ticks must be reached");
}

/// One full disruption scenario (mid-run closure + reopen + demand surge)
/// driven over the arena layout; returns every aggregate worth
/// comparing.
fn disruption_run() -> (u64, u64, usize, (usize, usize, f64, f64), f64) {
    const HORIZON: u64 = 400;
    let g = grid();
    let net = Network::from_grid(&g, Pattern::I);
    let n = g.topology().num_intersections();
    let mut sim = MicroSim::new(
        g.topology().clone(),
        controllers(n),
        MicroSimConfig::default(),
    );
    let mut demand = NetworkDemand::new(&net, RateSchedule::flat(), 1.0, 21);
    let closed = net
        .topology()
        .road_ids()
        .find(|&r| net.topology().road(r).is_internal())
        .expect("grid has internal roads");
    let mut arrivals = Vec::new();
    let mut report = adaptive_backpressure::microsim::StepReport::empty();
    for k in 0..HORIZON {
        if k == 100 {
            sim.set_road_closed(closed, true);
            demand.set_road_closed(&net, closed, true);
        }
        if k == 150 {
            demand.set_surge(3.0);
        }
        if k == 220 {
            sim.set_road_closed(closed, false);
            demand.set_road_closed(&net, closed, false);
        }
        if k == 280 {
            demand.set_surge(1.0);
        }
        arrivals.clear();
        demand.poll_into(&net, Tick::new(k), &mut arrivals);
        sim.step_into(&mut arrivals, &mut report, None);
        if k % 50 == 0 {
            sim.verify_sensors()
                .unwrap_or_else(|msg| panic!("tick {k}: {msg}"));
        }
    }
    (
        sim.total_crossings(),
        sim.ledger().completed(),
        sim.backlog_len(),
        sim.fleet_digest(),
        sim.mean_waiting_including_active(),
    )
}

#[test]
fn arena_is_deterministic_across_modes_under_disruption_events() {
    let first = disruption_run();
    let repeat = disruption_run();
    assert_eq!(first, repeat, "repeated runs diverged under events");
    assert!(first.0 > 0, "traffic must actually flow");
}

/// Mixed-lane golden: the same seeded 5×5 run under
/// `LaneDiscipline::SharedMixed`, whose per-(road, link) movement
/// counters the dedicated-lane oracle above never exercises. The
/// constants were produced by the per-lane follower kernel; every later
/// kernel must reproduce them bit for bit, f64 sums included.
#[test]
fn shared_mixed_matches_golden_on_seeded_5x5_run() {
    use adaptive_backpressure::microsim::LaneDiscipline;
    type Digest = (usize, usize, f64, f64);
    let goldens: [(u64, u64, u64, Digest); 3] = [
        (
            199,
            952,
            37,
            (772, 8, 191529.09255695026, 1969.4178018451207),
        ),
        (
            399,
            1114,
            58,
            (1579, 1, 352385.8364029437, 773.2202369130949),
        ),
        (
            599,
            1182,
            66,
            (2117, 1, 425942.00391249487, 338.1097217554258),
        ),
    ];
    let g = GridNetwork::new(GridSpec::with_size(5, 5));
    let n = g.topology().num_intersections();
    let mut sim = MicroSim::new(
        g.topology().clone(),
        controllers(n),
        MicroSimConfig {
            lane_discipline: LaneDiscipline::SharedMixed,
            ..MicroSimConfig::default()
        },
    );
    let mut gen = DemandGenerator::new(
        &g,
        DemandConfig::new(DemandSchedule::constant(Pattern::I, Ticks::new(600))),
        77,
    );
    let mut next = goldens.iter();
    let mut expect = next.next();
    for k in 0..600u64 {
        sim.step(gen.poll(&g, Tick::new(k)));
        if let Some(&(tick, crossings, completed, digest)) = expect {
            if k == tick {
                sim.verify_sensors()
                    .unwrap_or_else(|msg| panic!("tick {k}: {msg}"));
                assert_eq!(sim.total_crossings(), crossings, "tick {k}");
                assert_eq!(sim.ledger().completed(), completed, "tick {k}");
                assert_eq!(sim.fleet_digest(), digest, "tick {k}");
                expect = next.next();
            }
        }
    }
    assert!(expect.is_none(), "all golden ticks must be reached");
}
