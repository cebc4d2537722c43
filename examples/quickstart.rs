//! Quickstart: run the paper's UTIL-BP controller on a single signalized
//! intersection for ten simulated minutes and print what happened.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use adaptive_backpressure::core::{SignalController, Tick, Ticks, UtilBp};
use adaptive_backpressure::netgen::{
    DemandConfig, DemandGenerator, DemandSchedule, GridNetwork, GridSpec, Pattern,
};
use adaptive_backpressure::queueing::{QueueSim, QueueSimConfig};
use adaptive_backpressure::substrate::TrafficSubstrate;

fn main() {
    // A 1×1 "grid" is exactly the paper's Fig. 1 intersection with four
    // boundary entries and four exits (W = 120, µ = 1 vehicle/s).
    let grid = GridNetwork::new(GridSpec::with_size(1, 1));

    // One decentralized controller per intersection — here, just one.
    let controllers: Vec<Box<dyn SignalController>> = vec![Box::new(UtilBp::paper())];

    // The paper-exact store-and-forward substrate (Eq. 2 dynamics).
    let mut sim = QueueSim::new(
        grid.topology().clone(),
        controllers,
        QueueSimConfig::paper_exact(),
    );

    // Pattern I demand: heavy from the north (3 s inter-arrival), lighter
    // from the other sides, with the paper's Table I turning mix.
    let horizon = Ticks::new(600);
    let mut demand = DemandGenerator::new(
        &grid,
        DemandConfig::new(DemandSchedule::constant(Pattern::I, horizon)),
        42,
    );

    let mut served = 0u64;
    for k in 0..horizon.count() {
        let arrivals = demand.poll(&grid, Tick::new(k));
        let report = sim.step(arrivals);
        served += report.served as u64;
    }

    let ledger = sim.ledger();
    println!("— quickstart: UTIL-BP on one intersection, Pattern I, 600 s —");
    println!("vehicles generated : {}", demand.generated());
    println!("junction services  : {served}");
    println!("journeys completed : {}", ledger.completed());
    println!(
        "avg queuing time   : {:.1} s (including vehicles still queued)",
        sim.mean_waiting_including_active()
    );
    println!(
        "avg journey time   : {:.1} s over completed vehicles",
        ledger.journey_stats().mean()
    );
}
