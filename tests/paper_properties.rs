//! End-to-end checks of the properties the paper claims in Section IV,
//! exercised across crates on live networks.

use adaptive_backpressure::baselines::{CapBp, OriginalBp};
use adaptive_backpressure::core::standard::{self, Approach, Turn};
use adaptive_backpressure::core::{
    IntersectionView, PhaseDecision, SignalController, Tick, Ticks, UtilBp,
};
use adaptive_backpressure::metrics::VehicleId;
use adaptive_backpressure::microsim::{MicroSim, MicroSimConfig};
use adaptive_backpressure::netgen::{
    Arrival, DemandConfig, DemandGenerator, DemandSchedule, GridNetwork, GridSpec, Pattern,
    RouteChoice,
};
use adaptive_backpressure::queueing::{QueueSim, QueueSimConfig};

fn util_controllers(n: usize) -> Vec<Box<dyn SignalController>> {
    (0..n)
        .map(|_| Box::new(UtilBp::paper()) as Box<dyn SignalController>)
        .collect()
}

/// A controller pinned to one phase forever (test scaffolding).
struct HoldPhase(adaptive_backpressure::core::PhaseId);

impl SignalController for HoldPhase {
    fn decide(&mut self, _view: &IntersectionView<'_>, _now: Tick) -> PhaseDecision {
        PhaseDecision::Control(self.0)
    }
    fn reset(&mut self) {}
    fn name(&self) -> &'static str {
        "hold-phase"
    }
}

/// Section IV, Q2 — work conservation down to the mini-slot, on the
/// paper-exact substrate, across several seeds and patterns.
#[test]
fn utilbp_is_work_conserving_across_seeds() {
    let grid = GridNetwork::new(GridSpec::paper());
    for (seed, pattern) in [(1u64, Pattern::II), (2, Pattern::III), (3, Pattern::IV)] {
        let mut sim = QueueSim::new(
            grid.topology().clone(),
            util_controllers(9),
            QueueSimConfig::paper_exact(),
        );
        let mut demand = DemandGenerator::new(
            &grid,
            DemandConfig::new(DemandSchedule::constant(pattern, Ticks::new(600))),
            seed,
        );
        for k in 0..600u64 {
            let servable: Vec<bool> = grid
                .topology()
                .intersection_ids()
                .map(|i| {
                    let obs = sim.observe(i);
                    let layout = grid.topology().intersection(i).layout();
                    let view = IntersectionView::new(layout, &obs).unwrap();
                    layout.link_ids().any(|l| view.link_servable(l))
                })
                .collect();
            let report = sim.step(demand.poll(&grid, Tick::new(k)));
            let active_servable = grid
                .topology()
                .intersection_ids()
                .any(|i| servable[i.index()] && !report.decisions[i.index()].is_transition());
            if active_servable {
                assert!(
                    report.served > 0,
                    "seed {seed} pattern {pattern} tick {k}: no service despite demand"
                );
            }
        }
    }
}

/// Section IV, Q1/Q3 — UTIL-BP serves links with *negative* pressure
/// difference (the original policy would idle them).
#[test]
fn utilbp_allows_flow_on_negative_pressure_difference() {
    let grid = GridNetwork::new(GridSpec::with_size(1, 1));
    let mut sim = QueueSim::new(
        grid.topology().clone(),
        util_controllers(1),
        QueueSimConfig::paper_exact(),
    );
    // Three westbound vehicles; everything else empty. The exit road is
    // a boundary sink whose queue reads 0 — but even so, inject enough
    // vehicles downstream-free that the pressure difference at decision
    // time is ≥ 0 initially; the interesting case is mid-drain, when the
    // movement queue (e.g. 1) stays *below* any loaded exit. Force it:
    // pre-load the exit road by sending vehicles through first.
    let entry = grid
        .entries()
        .iter()
        .copied()
        .find(|e| e.side == Approach::East)
        .unwrap();
    let mut id = 0u64;
    let mut make = |n: usize| -> Vec<Arrival> {
        (0..n)
            .map(|_| {
                let a = Arrival {
                    vehicle: VehicleId::new(id),
                    tick: Tick::ZERO,
                    route: std::sync::Arc::new(grid.route(&entry, RouteChoice::Straight)),
                };
                id += 1;
                a
            })
            .collect()
    };
    sim.step(make(3));
    for _ in 0..120 {
        sim.step(Vec::new());
    }
    assert_eq!(sim.ledger().completed(), 3, "light traffic drains fully");

    // The discriminating case needs the *observed* downstream queue to
    // exceed the upstream movement queue while service continues. Build
    // it on a 1×2 grid whose downstream junction never serves the
    // west-straight flow (pinned to c2), so the internal road's queue
    // grows while the upstream junction keeps feeding it.
    let grid = GridNetwork::new(GridSpec::with_size(1, 2));
    let controllers: Vec<Box<dyn SignalController>> = vec![
        Box::new(UtilBp::paper()),
        Box::new(HoldPhase(standard::phase_id(2))),
    ];
    let mut sim = QueueSim::new(
        grid.topology().clone(),
        controllers,
        QueueSimConfig::paper_exact(),
    );
    let entry = grid
        .entries()
        .iter()
        .copied()
        .find(|e| e.side == Approach::West && e.slot == 0)
        .unwrap();
    let i0 = grid.intersection_at(adaptive_backpressure::netgen::GridPos::new(0, 0));
    let node = grid.topology().intersection(i0);
    let link = standard::link_id(Approach::West, Turn::Straight);
    let internal = node.outgoing_road(Turn::Straight.exit_from(Approach::West).outgoing());

    let mut id = 100u64;
    let mut served_with_negative_diff = false;
    for k in 0..240u64 {
        let batch = if k % 2 == 0 {
            id += 1;
            vec![Arrival {
                vehicle: VehicleId::new(id),
                tick: Tick::ZERO,
                route: std::sync::Arc::new(grid.route(&entry, RouteChoice::Straight)),
            }]
        } else {
            Vec::new()
        };
        let q_mov = sim.movement_queue_len(i0, link);
        let q_out = sim.road_queue(internal);
        let report = sim.step(batch);
        if q_mov > 0 && q_out > q_mov && report.served > 0 {
            served_with_negative_diff = true;
        }
    }
    assert!(
        served_with_negative_diff,
        "UTIL-BP must keep serving while the observed downstream queue \
         exceeds the upstream movement queue (negative pressure difference)"
    );
}

/// Section IV contrast — the original back-pressure policy stalls on
/// balanced queues (not work-conserving), measured end-to-end.
#[test]
fn original_bp_underserves_balanced_networks() {
    let grid = GridNetwork::new(GridSpec::paper());
    let horizon = 900u64;
    let run = |controllers: Vec<Box<dyn SignalController>>| -> u64 {
        let mut sim = QueueSim::new(
            grid.topology().clone(),
            controllers,
            QueueSimConfig::paper_exact(),
        );
        let mut demand = DemandGenerator::new(
            &grid,
            DemandConfig::new(DemandSchedule::constant(Pattern::II, Ticks::new(horizon))),
            7,
        );
        for k in 0..horizon {
            sim.step(demand.poll(&grid, Tick::new(k)));
        }
        sim.ledger().completed()
    };
    let util = run(util_controllers(9));
    let original = run((0..9)
        .map(|_| Box::new(OriginalBp::new(Ticks::new(16))) as Box<dyn SignalController>)
        .collect());
    assert!(
        util > original,
        "UTIL-BP ({util}) must complete more journeys than original BP ({original})"
    );
}

/// Section IV, Q1 — UTIL-BP gives up idealized back-pressure's maximum
/// stability guarantee (transition phases, finite capacities,
/// negative-pressure flow). What remains in practice at sub-critical
/// demand is a bounded, flat network queue: over an hour of Pattern II
/// on the paper-exact substrate, the last quarter's mean total occupancy
/// stays within 1.5× the second quarter's (the first quarter holds the
/// fill from an empty network) and never peaks past 400 vehicles.
/// Original BP, which idles balanced queues, drifts upward and fails both
/// bounds, so the check can fail.
#[test]
fn network_queue_stays_bounded_at_sub_critical_demand() {
    let grid = GridNetwork::new(GridSpec::paper());
    let horizon = 3600u64;
    // (second-quarter mean, last-quarter mean, peak) of the total occupancy.
    let run = |make: &dyn Fn() -> Box<dyn SignalController>| -> (f64, f64, u64) {
        let mut sim = QueueSim::new(
            grid.topology().clone(),
            (0..9).map(|_| make()).collect(),
            QueueSimConfig::paper_exact(),
        );
        let mut demand = DemandGenerator::new(
            &grid,
            DemandConfig::new(DemandSchedule::constant(Pattern::II, Ticks::new(horizon))),
            2020,
        );
        let (mut second, mut last, mut peak) = (0u64, 0u64, 0u64);
        for k in 0..horizon {
            sim.step(demand.poll(&grid, Tick::new(k)));
            let occupancy: u64 = grid
                .topology()
                .road_ids()
                .map(|r| sim.road_occupancy(r) as u64)
                .sum();
            peak = peak.max(occupancy);
            match k * 4 / horizon {
                1 => second += occupancy,
                3 => last += occupancy,
                _ => {}
            }
        }
        let quarter = (horizon / 4) as f64;
        (second as f64 / quarter, last as f64 / quarter, peak)
    };
    let bounded = |(second, last, peak): (f64, f64, u64)| (last <= 1.5 * second, peak <= 400);

    let util = run(&|| Box::new(UtilBp::paper()));
    assert_eq!(bounded(util), (true, true), "UTIL-BP: {util:?}");
    let cap = run(&|| Box::new(CapBp::new(Ticks::new(16))));
    assert_eq!(bounded(cap), (true, true), "CAP-BP: {cap:?}");
    let original = run(&|| Box::new(OriginalBp::new(Ticks::new(16))));
    assert_eq!(bounded(original), (false, false), "BP: {original:?}");
}

/// Section IV, Q4 — dedicated turning lanes rule out head-of-line
/// blocking: right-turners flow even when the straight lane of the same
/// road is long.
#[test]
fn no_head_of_line_blocking_with_dedicated_lanes() {
    let grid = GridNetwork::new(GridSpec::with_size(1, 1));
    // Pin the signal to c2 (north/south right turns): the straight lane
    // never gets green and just accumulates.
    let controllers: Vec<Box<dyn SignalController>> =
        vec![Box::new(HoldPhase(standard::phase_id(2)))];
    let mut sim = MicroSim::new(
        grid.topology().clone(),
        controllers,
        MicroSimConfig::deterministic(),
    );
    let entry = grid
        .entries()
        .iter()
        .copied()
        .find(|e| e.side == Approach::North)
        .unwrap();
    let mut id = 0u64;
    for k in 0..300u64 {
        let mut batch = Vec::new();
        if k % 6 == 0 {
            // Alternate right-turners and straight-goers from the north.
            let choice = if (k / 6) % 2 == 0 {
                RouteChoice::TurnAt {
                    turn: Turn::Right,
                    path_index: 0,
                }
            } else {
                RouteChoice::Straight
            };
            batch.push(Arrival {
                vehicle: VehicleId::new(id),
                tick: Tick::ZERO,
                route: std::sync::Arc::new(grid.route(&entry, choice)),
            });
            id += 1;
        }
        sim.step(batch);
    }
    // Right-turners complete; straight-goers are all still stored.
    let completed = sim.ledger().completed();
    assert!(
        completed >= 20,
        "right-turners must flow despite the blocked straight lane, got {completed}"
    );
    assert!(
        sim.vehicles_in_network() >= 20,
        "straight-goers must still be queued"
    );
}

/// Finite capacities bound every road's occupancy at all times (both
/// substrates), even under a controller that ignores downstream state.
#[test]
fn capacities_bound_occupancy_under_stress() {
    let spec = GridSpec {
        capacity: 10,
        ..GridSpec::with_size(2, 2)
    };
    let grid = GridNetwork::new(spec);
    let n = grid.topology().num_intersections();
    let mut sim = QueueSim::new(
        grid.topology().clone(),
        (0..n)
            .map(|_| Box::new(OriginalBp::new(Ticks::new(12))) as Box<dyn SignalController>)
            .collect(),
        QueueSimConfig::paper_exact(),
    );
    let mut demand = DemandGenerator::new(
        &grid,
        DemandConfig::new(DemandSchedule::constant(Pattern::I, Ticks::new(900))),
        5,
    );
    for k in 0..900u64 {
        sim.step(demand.poll(&grid, Tick::new(k)));
        for r in grid.topology().road_ids() {
            assert!(
                sim.road_occupancy(r) <= 10,
                "tick {k}: road {r} exceeded its capacity"
            );
        }
    }
}
