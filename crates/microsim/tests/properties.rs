//! Property-based tests of the microscopic simulator: car-following
//! safety and network-level invariants.

use proptest::prelude::*;
use utilbp_core::{SignalController, Tick, Ticks, UtilBp};
use utilbp_microsim::{next_speed, LeaderInfo, MicroSim, MicroSimConfig};
use utilbp_netgen::{
    DemandConfig, DemandGenerator, DemandSchedule, GridNetwork, GridSpec, Pattern,
};
use utilbp_substrate::TrafficSubstrate;

fn controllers(n: usize) -> Vec<Box<dyn SignalController>> {
    (0..n)
        .map(|_| Box::new(UtilBp::paper()) as Box<dyn SignalController>)
        .collect()
}

proptest! {
    /// Krauss safety: starting from any feasible two-vehicle state, the
    /// follower never hits a standing leader, whatever the dawdling noise.
    #[test]
    fn follower_never_hits_standing_leader(
        gap0 in 0.0f64..200.0,
        v0 in 0.0f64..14.0,
        xi in proptest::collection::vec(0.0f64..1.0, 60),
    ) {
        let cfg = MicroSimConfig::default();
        // Feasible start: the follower could already be too fast for a
        // tiny gap; admit only states from which a max-decel stop fits.
        prop_assume!(v0 * v0 / (2.0 * cfg.max_decel) <= gap0 + 1e-9);
        let mut gap = gap0;
        let mut v = v0;
        for &x in &xi {
            v = next_speed(
                v,
                LeaderInfo::Vehicle { net_gap_m: gap, speed_mps: 0.0 },
                x,
                &cfg,
            );
            gap -= v * cfg.dt_seconds;
            prop_assert!(gap >= -1e-6, "collision: gap {gap} after speed {v}");
        }
    }

    /// Speed updates always respect the physical envelope: bounded by the
    /// speed limit and by maximum acceleration per step.
    #[test]
    fn speed_envelope(
        v in 0.0f64..14.0,
        gap in -5.0f64..300.0,
        v_l in 0.0f64..14.0,
        xi in 0.0f64..1.0,
    ) {
        let cfg = MicroSimConfig::default();
        let v2 = next_speed(
            v,
            LeaderInfo::Vehicle { net_gap_m: gap, speed_mps: v_l },
            xi,
            &cfg,
        );
        prop_assert!(v2 >= 0.0);
        prop_assert!(v2 <= cfg.free_speed_mps + 1e-9);
        prop_assert!(v2 <= v + cfg.max_accel * cfg.dt_seconds + 1e-9);
    }

    #[test]
    fn free_road_speed_is_monotone_in_dawdle(v in 0.0f64..14.0, xi in 0.0f64..1.0) {
        let cfg = MicroSimConfig::default();
        let clean = next_speed(v, LeaderInfo::Free, 0.0, &cfg);
        let noisy = next_speed(v, LeaderInfo::Free, xi, &cfg);
        prop_assert!(noisy <= clean + 1e-12);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Network-level invariants hold for arbitrary seeds: conservation,
    /// capacity bounds, and sane detector readings.
    #[test]
    fn network_invariants(seed in 0u64..10_000) {
        let grid = GridNetwork::new(GridSpec::with_size(2, 2));
        let n = grid.topology().num_intersections();
        let mut sim = MicroSim::new(
            grid.topology().clone(),
            controllers(n),
            MicroSimConfig { seed, ..MicroSimConfig::default() },
        );
        let mut demand = DemandGenerator::new(
            &grid,
            DemandConfig::new(DemandSchedule::constant(Pattern::I, Ticks::new(250))),
            seed,
        );
        let mut injected = 0u64;
        for k in 0..250u64 {
            let arrivals = demand.poll(&grid, Tick::new(k));
            injected += arrivals.len() as u64;
            sim.step(arrivals);

            prop_assert_eq!(
                injected,
                sim.vehicles_in_network() as u64
                    + sim.backlog_len() as u64
                    + sim.ledger().completed(),
                "conservation violated at tick {}", k
            );
            for r in grid.topology().road_ids() {
                prop_assert!(sim.road_occupancy(r) <= 120);
                prop_assert!(sim.road_halted(r) <= sim.road_occupancy(r));
            }
            for i in grid.topology().intersection_ids() {
                let layout = grid.topology().intersection(i).layout();
                for link in layout.link_ids() {
                    prop_assert!(
                        sim.movement_queue_len(i, link) <= sim.movement_count(i, link)
                    );
                }
            }
        }
    }
}
