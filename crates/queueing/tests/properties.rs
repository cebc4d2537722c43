//! Property-based tests of the queueing-network simulator's invariants.

use proptest::prelude::*;
use utilbp_core::{SignalController, Tick, Ticks, UtilBp};
use utilbp_netgen::{
    DemandConfig, DemandGenerator, DemandSchedule, GridNetwork, GridSpec, Pattern,
};
use utilbp_queueing::{QueueSim, QueueSimConfig, TransitModel};
use utilbp_substrate::TrafficSubstrate;

fn controllers(n: usize) -> Vec<Box<dyn SignalController>> {
    (0..n)
        .map(|_| Box::new(UtilBp::paper()) as Box<dyn SignalController>)
        .collect()
}

fn transit_strategy() -> impl Strategy<Value = TransitModel> {
    prop_oneof![Just(TransitModel::Instant), Just(TransitModel::FreeFlow)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Vehicles are conserved and capacities are respected for arbitrary
    /// seeds, patterns, grid sizes, capacities, and transit models.
    #[test]
    fn conservation_and_capacity(
        seed in 0u64..10_000,
        pattern_idx in 0usize..4,
        rows in 1u32..=3,
        cols in 1u32..=3,
        capacity in 5u32..=120,
        transit in transit_strategy(),
    ) {
        let spec = GridSpec { capacity, ..GridSpec::with_size(rows, cols) };
        let grid = GridNetwork::new(spec);
        let n = grid.topology().num_intersections();
        let mut sim = QueueSim::new(
            grid.topology().clone(),
            controllers(n),
            QueueSimConfig { transit, ..QueueSimConfig::default() },
        );
        let mut demand = DemandGenerator::new(
            &grid,
            DemandConfig::new(DemandSchedule::constant(
                Pattern::ALL[pattern_idx],
                Ticks::new(300),
            )),
            seed,
        );
        let mut injected = 0u64;
        for k in 0..300u64 {
            let arrivals = demand.poll(&grid, Tick::new(k));
            injected += arrivals.len() as u64;
            sim.step(arrivals);

            let on_roads: u64 = grid
                .topology()
                .road_ids()
                .map(|r| sim.road_occupancy(r) as u64)
                .sum();
            prop_assert_eq!(
                injected,
                on_roads + sim.backlog_len() as u64 + sim.ledger().completed(),
                "conservation violated at tick {}", k
            );
            for r in grid.topology().road_ids() {
                prop_assert!(sim.road_occupancy(r) <= capacity);
                prop_assert!(sim.road_queue(r) <= sim.road_occupancy(r));
            }
        }
    }

    /// Waiting and journey statistics are always physically sensible:
    /// waiting ≤ journey for every completed population mean, and both
    /// non-negative.
    #[test]
    fn waiting_never_exceeds_journey(seed in 0u64..10_000) {
        let grid = GridNetwork::new(GridSpec::paper());
        let mut sim = QueueSim::new(
            grid.topology().clone(),
            controllers(9),
            QueueSimConfig::paper_exact(),
        );
        let mut demand = DemandGenerator::new(
            &grid,
            DemandConfig::new(DemandSchedule::constant(Pattern::II, Ticks::new(400))),
            seed,
        );
        for k in 0..400u64 {
            sim.step(demand.poll(&grid, Tick::new(k)));
        }
        let ledger = sim.ledger();
        if ledger.completed() > 0 {
            prop_assert!(ledger.waiting_stats().mean() >= 0.0);
            prop_assert!(
                ledger.waiting_stats().mean() <= ledger.journey_stats().mean() + 1e-9,
                "mean waiting {} exceeds mean journey {}",
                ledger.waiting_stats().mean(),
                ledger.journey_stats().mean()
            );
        }
    }

    /// The step report's decision vector always matches the intersection
    /// count, and served counts are bounded by the network's total
    /// service capacity per tick.
    #[test]
    fn step_reports_are_bounded(seed in 0u64..10_000, rows in 1u32..=3) {
        let grid = GridNetwork::new(GridSpec::with_size(rows, 2));
        let n = grid.topology().num_intersections();
        let mut sim = QueueSim::new(
            grid.topology().clone(),
            controllers(n),
            QueueSimConfig::paper_exact(),
        );
        let mut demand = DemandGenerator::new(
            &grid,
            DemandConfig::new(DemandSchedule::constant(Pattern::I, Ticks::new(200))),
            seed,
        );
        // µ = 1 per link, at most 4 links active per intersection (c1/c3).
        let service_bound = (n * 4) as u32;
        for k in 0..200u64 {
            let report = sim.step(demand.poll(&grid, Tick::new(k)));
            prop_assert_eq!(report.decisions.len(), n);
            prop_assert!(report.served <= service_bound);
        }
    }
}
