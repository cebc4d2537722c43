//! Analytic validation: scenarios simple enough that the right answer is
//! known in closed form, checked end-to-end through controller + substrate.

use adaptive_backpressure::core::standard::{self, Approach, Turn};
use adaptive_backpressure::core::{SignalController, Tick, UtilBp};
use adaptive_backpressure::metrics::VehicleId;
use adaptive_backpressure::netgen::{Arrival, GridNetwork, GridSpec, RouteChoice};
use adaptive_backpressure::queueing::{QueueSim, QueueSimConfig};
use adaptive_backpressure::substrate::TrafficSubstrate;

fn single_junction() -> (GridNetwork, QueueSim) {
    let grid = GridNetwork::new(GridSpec::with_size(1, 1));
    let sim = QueueSim::new(
        grid.topology().clone(),
        vec![Box::new(UtilBp::paper()) as Box<dyn SignalController>],
        QueueSimConfig::paper_exact(),
    );
    (grid, sim)
}

fn arrival(grid: &GridNetwork, side: Approach, id: u64, choice: RouteChoice) -> Arrival {
    let entry = grid
        .entries()
        .iter()
        .copied()
        .find(|e| e.side == side)
        .expect("side exists on a 1x1 grid");
    Arrival {
        vehicle: VehicleId::new(id),
        tick: Tick::ZERO,
        route: std::sync::Arc::new(grid.route(&entry, choice)),
    }
}

/// One movement, arrivals slower than the service rate: once the
/// controller locks onto the right phase, *nobody waits* in the paper's
/// store-and-forward model — each vehicle is served the mini-slot after it
/// joins the queue. Total waiting is bounded by the handful of vehicles
/// that arrive during the single initial amber.
#[test]
fn undersaturated_single_movement_has_near_zero_waiting() {
    let (grid, mut sim) = single_junction();
    let mut id = 0u64;
    let horizon = 600u64;
    for k in 0..horizon {
        let batch = if k % 4 == 0 {
            id += 1;
            vec![arrival(&grid, Approach::North, id, RouteChoice::Straight)]
        } else {
            Vec::new()
        };
        sim.step(batch);
    }
    // Drain what's left.
    for _ in 0..60 {
        sim.step(Vec::new());
    }
    let ledger = sim.ledger();
    assert_eq!(ledger.completed(), id, "every vehicle must complete");
    // At most the first ~2 vehicles (arriving before/during the initial
    // phase selection) wait a few ticks; the steady state waits zero.
    assert!(
        ledger.waiting_stats().mean() < 1.0,
        "mean waiting {} should be near zero in the undersaturated case",
        ledger.waiting_stats().mean()
    );
    assert_eq!(
        ledger.waiting_stats().max().unwrap_or(0.0).min(20.0),
        ledger.waiting_stats().max().unwrap_or(0.0),
        "worst case bounded by the initial amber"
    );
}

/// Two conflicting movements at combined demand well under capacity:
/// throughput must equal demand (work conservation end-to-end), and the
/// served split must match the demand split.
#[test]
fn conflicting_demands_are_both_served_in_full() {
    let (grid, mut sim) = single_junction();
    let mut id = 0u64;
    let horizon = 900u64;
    let mut north = 0u64;
    let mut east = 0u64;
    for k in 0..horizon {
        let mut batch = Vec::new();
        if k % 6 == 0 {
            id += 1;
            north += 1;
            batch.push(arrival(&grid, Approach::North, id, RouteChoice::Straight));
        }
        if k % 9 == 0 {
            id += 1;
            east += 1;
            batch.push(arrival(&grid, Approach::East, id, RouteChoice::Straight));
        }
        sim.step(batch);
    }
    for _ in 0..120 {
        sim.step(Vec::new());
    }
    assert_eq!(
        sim.ledger().completed(),
        north + east,
        "both conflicting flows must be served completely"
    );
    // With 1/6 + 1/9 veh/s demand against 1 veh/s per green link, waits
    // stay modest: bounded by a few phase alternations.
    assert!(
        sim.ledger().waiting_stats().mean() < 30.0,
        "mean waiting {} too high for this demand",
        sim.ledger().waiting_stats().mean()
    );
}

/// A right-turn-only demand must pull the right-turn phase (c2), even
/// though it is a 2-link phase — the per-movement pressure at work.
#[test]
fn right_turn_demand_attracts_the_right_turn_phase() {
    let (grid, mut sim) = single_junction();
    let mut id = 0u64;
    let mut c2_green = 0u64;
    for k in 0..300u64 {
        let batch = if k % 5 == 0 {
            id += 1;
            vec![arrival(
                &grid,
                Approach::North,
                id,
                RouteChoice::TurnAt {
                    turn: Turn::Right,
                    path_index: 0,
                },
            )]
        } else {
            Vec::new()
        };
        let report = sim.step(batch);
        if report.decisions[0].phase() == Some(standard::phase_id(2)) {
            c2_green += 1;
        }
    }
    assert!(
        c2_green > 200,
        "the right-turn phase must dominate green time, got {c2_green}/300"
    );
    assert!(sim.ledger().completed() > 40);
}
