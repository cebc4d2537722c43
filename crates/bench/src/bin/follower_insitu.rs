//! One-number probe: in-situ follower-phase cost in ns/vehicle at 10×10.
//!
//! Steps the 10×10 grid exactly like the `sim_throughput` grid rows
//! (Pattern I, seed 7, 300 warmup ticks) but accumulates the
//! car-following phase seconds *and* the vehicle-tick count over the
//! measured window, so the quotient is the honest per-vehicle cost of
//! the phase — the number ROADMAP item 1 tracks.

use utilbp_core::{SignalController, Tick, Ticks, UtilBp};
use utilbp_microsim::{MicroSim, MicroSimConfig, PhaseTimings, StepReport};
use utilbp_netgen::{
    DemandConfig, DemandGenerator, DemandSchedule, GridNetwork, GridSpec, Pattern,
};

fn main() {
    let ticks: u64 = std::env::var("PROBE_TICKS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(600);
    let grid = GridNetwork::new(GridSpec::with_size(10, 10));
    let n = grid.topology().num_intersections();
    let controllers: Vec<Box<dyn SignalController>> = (0..n)
        .map(|_| Box::new(UtilBp::paper()) as Box<dyn SignalController>)
        .collect();
    let mut sim = MicroSim::new(
        grid.topology().clone(),
        controllers,
        MicroSimConfig::default(),
    );
    let mut gen = DemandGenerator::new(
        &grid,
        DemandConfig::new(DemandSchedule::constant(
            Pattern::I,
            Ticks::new(u64::MAX / 2),
        )),
        7,
    );
    let mut k = 0u64;
    let mut arrivals = Vec::new();
    let mut report = StepReport::empty();
    for _ in 0..300 {
        arrivals.clear();
        gen.poll_into(&grid, Tick::new(k), &mut arrivals);
        sim.step_into(&mut arrivals, &mut report);
        k += 1;
    }
    let mut phases = PhaseTimings::default();
    let mut vehicle_ticks = 0u64;
    for _ in 0..ticks {
        arrivals.clear();
        gen.poll_into(&grid, Tick::new(k), &mut arrivals);
        sim.step_into_timed(&mut arrivals, &mut report, &mut phases);
        vehicle_ticks += sim.vehicles_in_network() as u64;
        k += 1;
    }
    println!(
        "car_following {:.4}s over {ticks} ticks, {vehicle_ticks} vehicle-ticks -> {:.2} ns/vehicle (mean fleet {:.0})",
        phases.car_following,
        phases.car_following * 1e9 / vehicle_ticks as f64,
        vehicle_ticks as f64 / ticks as f64,
    );
}
