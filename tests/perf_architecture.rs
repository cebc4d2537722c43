//! Integration tests of the performance architecture: twin runs must be
//! bit-identical step for step, the incrementally maintained sensor
//! counters must never diverge from a from-scratch rescan, and the SoA vehicle-arena hot loop must reproduce the legacy
//! array-of-structs implementation bit for bit (golden oracle below).
//! The steady-state allocation bound lives in `tests/perf_alloc.rs`,
//! which needs a process-exclusive counting allocator.

use adaptive_backpressure::core::{SignalController, Tick, Ticks, UtilBp};
use adaptive_backpressure::microsim::{MicroSim, MicroSimConfig};
use adaptive_backpressure::netgen::{
    Arrival, DemandConfig, DemandGenerator, DemandSchedule, GridNetwork, GridSpec, Network, Pattern,
};
use adaptive_backpressure::queueing::{QueueSim, QueueSimConfig};
use adaptive_backpressure::scenario::{NetworkDemand, RateSchedule};

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
