//! # utilbp-queueing
//!
//! The mesoscopic simulation substrate of the adaptive back-pressure
//! workspace: a direct, network-wide implementation of the paper's
//! Section II discrete-time queueing model. Vehicles are individually
//! tracked (FIFO per dedicated turning lane), so average queuing times are
//! exact rather than estimated from Little's law.
//!
//! This substrate complements `utilbp-microsim` (the microscopic SUMO
//! substitute): it runs an order of magnitude faster and matches the
//! analytical model exactly, which makes it the right tool for property
//! tests, parameter sweeps, and cross-validation of the microscopic
//! results.
//!
//! [`QueueSim`] implements the workspace's plant contract, the
//! [`TrafficSubstrate`](utilbp_substrate::TrafficSubstrate) trait, which
//! states the cross-substrate guarantees (determinism across repeats,
//! road-closure semantics, accumulator-based waiting accounting,
//! deterministic route-cursor access for en-route replanning) once for
//! both backends; stepping, probing and checkpointing go through it.
//!
//! See [`QueueSim`] for the step semantics and an end-to-end example.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod sim;

pub use sim::{QueueSim, QueueSimConfig, TransitModel};

#[cfg(test)]
mod tests {
    use super::*;
    use utilbp_baselines::{CapBp, FixedTime};
    use utilbp_core::standard::{self, Approach, Turn};
    use utilbp_core::{PhaseDecision, SignalController, Tick, Ticks, UtilBp};
    use utilbp_metrics::VehicleId;
    use utilbp_netgen::{
        Arrival, DemandConfig, DemandGenerator, DemandSchedule, GridNetwork, GridSpec, Pattern,
        RouteChoice,
    };
    use utilbp_substrate::TrafficSubstrate;

    fn grid() -> GridNetwork {
        GridNetwork::new(GridSpec::paper())
    }

    fn controllers_util(n: usize) -> Vec<Box<dyn SignalController>> {
        (0..n)
            .map(|_| Box::new(UtilBp::paper()) as Box<dyn SignalController>)
            .collect()
    }

    fn sim_with_util(grid: &GridNetwork) -> QueueSim {
        QueueSim::new(
            grid.topology().clone(),
            controllers_util(grid.topology().num_intersections()),
            QueueSimConfig::default(),
        )
    }

    /// Hand-built arrival: one vehicle entering from the given entry index
    /// with the given route choice.
    fn one_arrival(grid: &GridNetwork, entry_idx: usize, id: u64, choice: RouteChoice) -> Arrival {
        let entry = grid.entries()[entry_idx];
        Arrival {
            vehicle: VehicleId::new(id),
            tick: Tick::ZERO,
            route: std::sync::Arc::new(grid.route(&entry, choice)),
        }
    }

    #[test]
    fn single_vehicle_crosses_the_network() {
        let g = grid();
        let mut sim = sim_with_util(&g);
        let arrival = one_arrival(&g, 0, 0, RouteChoice::Straight);
        sim.step(vec![arrival]);
        // Drive long enough for 4 roads of transit plus services.
        for _ in 0..400 {
            sim.step(Vec::new());
        }
        assert_eq!(sim.ledger().completed(), 1, "the vehicle must exit");
        assert_eq!(sim.ledger().active(), 0);
        assert_eq!(sim.total_served(), 3, "three junctions crossed");
        // All roads empty again.
        for r in g.topology().road_ids() {
            assert_eq!(sim.road_occupancy(r), 0, "road {r} must drain");
        }
    }

    #[test]
    fn transit_delay_defers_queue_visibility() {
        let g = grid();
        let mut sim = sim_with_util(&g);
        let entry = g.entries()[0];
        let first_hop = g.route(&entry, RouteChoice::Straight).hops()[0];
        sim.step(vec![one_arrival(&g, 0, 0, RouteChoice::Straight)]);
        // 300 m / 13.89 m/s ≈ 22 ticks of transit: queue stays empty until
        // then.
        assert_eq!(sim.movement_queue_len(first_hop.0, first_hop.1), 0);
        for _ in 1..22 {
            sim.step(Vec::new());
        }
        assert_eq!(sim.road_occupancy(entry.road), 1, "still on the entry road");
        let before = sim.movement_queue_len(first_hop.0, first_hop.1);
        sim.step(Vec::new());
        let after = sim.movement_queue_len(first_hop.0, first_hop.1);
        // The vehicle either queued or was served the same slot it arrived;
        // in both cases it became visible.
        assert!(before == 0 && (after <= 1), "before={before} after={after}");
    }

    #[test]
    fn full_entry_road_backlogs_arrivals() {
        let g = GridNetwork::new(GridSpec {
            capacity: 3,
            ..GridSpec::with_size(1, 1)
        });
        let mut sim = QueueSim::new(
            g.topology().clone(),
            // Fixed-time keeps cycling regardless of demand.
            vec![Box::new(FixedTime::new(Ticks::new(5), Ticks::new(4)))],
            QueueSimConfig::default(),
        );
        // Push 5 vehicles into a capacity-3 entry road in one slot.
        let arrivals: Vec<Arrival> = (0..5)
            .map(|i| one_arrival(&g, 0, i, RouteChoice::Straight))
            .collect();
        let report = sim.step(arrivals);
        assert_eq!(report.injected, 3);
        assert_eq!(sim.backlog_len(), 2);
        assert_eq!(sim.road_occupancy(g.entries()[0].road), 3);
        // As the junction serves, the backlog drains.
        for _ in 0..200 {
            sim.step(Vec::new());
        }
        assert_eq!(sim.backlog_len(), 0);
        assert_eq!(sim.ledger().completed(), 5);
    }

    /// A degenerate controller pinned to one phase, used to create
    /// blocking scenarios.
    struct HoldPhase(utilbp_core::PhaseId);

    impl SignalController for HoldPhase {
        fn decide(
            &mut self,
            _view: &utilbp_core::IntersectionView<'_>,
            _now: Tick,
        ) -> PhaseDecision {
            PhaseDecision::Control(self.0)
        }
        fn reset(&mut self) {}
        fn name(&self) -> &'static str {
            "hold-phase"
        }
    }

    #[test]
    fn capacity_blocks_service_into_full_roads() {
        // 1×2 grid: saturate the internal road between the two
        // intersections and verify the upstream junction stops serving into
        // it.
        let g = GridNetwork::new(GridSpec {
            capacity: 2,
            ..GridSpec::with_size(1, 2)
        });
        let n = g.topology().num_intersections();
        let mut sim = QueueSim::new(
            g.topology().clone(),
            (0..n)
                .map(|i| -> Box<dyn SignalController> {
                    if i == 0 {
                        Box::new(UtilBp::paper())
                    } else {
                        // Phase c2 (N/S rights) never serves west-straight,
                        // so the downstream junction never drains.
                        Box::new(HoldPhase(standard::phase_id(2)))
                    }
                })
                .collect(),
            QueueSimConfig::default(),
        );

        // Feed a stream of west-entry straight-through vehicles.
        let entry_idx = g
            .entries()
            .iter()
            .position(|e| e.side == Approach::West && e.slot == 0)
            .unwrap();
        let mut next_id = 0u64;
        for k in 0..300u64 {
            let arrivals = if k % 2 == 0 {
                let a = one_arrival(&g, entry_idx, next_id, RouteChoice::Straight);
                next_id += 1;
                vec![a]
            } else {
                Vec::new()
            };
            sim.step(arrivals);
        }
        // The internal west→east road between I0 and I1:
        let i0 = g.intersection_at(utilbp_netgen::GridPos::new(0, 0));
        let internal = g
            .topology()
            .intersection(i0)
            .outgoing_road(Approach::East.outgoing());
        assert_eq!(
            sim.road_occupancy(internal),
            2,
            "internal road pinned at its capacity"
        );
        // Nothing ever exits (downstream holds a conflicting phase).
        assert_eq!(sim.ledger().completed(), 0);
    }

    #[test]
    fn work_conservation_of_utilbp_on_live_network() {
        // Section IV Q2: whenever some intersection has a servable vehicle
        // and is not in transition, the network serves at least one vehicle
        // in that mini-slot. Checked on the paper-exact substrate
        // (instant transfers), where the controller's observation equals
        // the physical queue state at decision time.
        let g = grid();
        let mut sim = QueueSim::new(
            g.topology().clone(),
            controllers_util(g.topology().num_intersections()),
            QueueSimConfig::paper_exact(),
        );
        let mut demand = DemandGenerator::new(
            &g,
            DemandConfig::new(DemandSchedule::constant(Pattern::I, Ticks::new(1200))),
            11,
        );
        let mut exercised = 0u32;
        for k in 0..1200u64 {
            // Check servability *before* the step serves.
            let servable: Vec<bool> = g
                .topology()
                .intersection_ids()
                .map(|i| {
                    let obs = sim.observe(i);
                    let layout = g.topology().intersection(i).layout();
                    let view = utilbp_core::IntersectionView::new(layout, &obs).unwrap();
                    layout.link_ids().any(|l| view.link_servable(l))
                })
                .collect();
            let report = sim.step(demand.poll(&g, Tick::new(k)));
            let any_active_servable = g
                .topology()
                .intersection_ids()
                .any(|i| servable[i.index()] && !report.decisions[i.index()].is_transition());
            if any_active_servable {
                exercised += 1;
                assert!(
                    report.served > 0,
                    "tick {k}: servable intersection under a control phase served nobody"
                );
            }
        }
        assert!(exercised > 100, "the invariant must actually be exercised");
    }

    #[test]
    fn utilbp_outperforms_fixed_time_on_pattern_i() {
        let g = grid();
        let horizon = 1800u64;
        let run = |controllers: Vec<Box<dyn SignalController>>| -> f64 {
            let mut sim =
                QueueSim::new(g.topology().clone(), controllers, QueueSimConfig::default());
            let mut demand = DemandGenerator::new(
                &g,
                DemandConfig::new(DemandSchedule::constant(Pattern::I, Ticks::new(horizon))),
                99,
            );
            for k in 0..horizon {
                let arrivals = demand.poll(&g, Tick::new(k));
                sim.step(arrivals);
            }
            sim.mean_waiting_including_active()
        };
        let n = g.topology().num_intersections();
        let util = run(controllers_util(n));
        let fixed = run((0..n)
            .map(|_| {
                Box::new(FixedTime::new(Ticks::new(20), Ticks::new(4))) as Box<dyn SignalController>
            })
            .collect());
        assert!(
            util < fixed,
            "UTIL-BP ({util:.1}) must beat fixed-time ({fixed:.1})"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let g = grid();
        let run = || -> (u64, f64) {
            let mut sim = sim_with_util(&g);
            let mut demand = DemandGenerator::new(
                &g,
                DemandConfig::new(DemandSchedule::constant(Pattern::III, Ticks::new(600))),
                1234,
            );
            for k in 0..600 {
                let arrivals = demand.poll(&g, Tick::new(k));
                sim.step(arrivals);
            }
            (sim.total_served(), sim.mean_waiting_including_active())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn observation_matches_internal_state() {
        let g = grid();
        let mut sim = sim_with_util(&g);
        let mut demand = DemandGenerator::new(
            &g,
            DemandConfig::new(DemandSchedule::constant(Pattern::II, Ticks::new(300))),
            5,
        );
        for k in 0..300 {
            let arrivals = demand.poll(&g, Tick::new(k));
            sim.step(arrivals);
        }
        for i in g.topology().intersection_ids() {
            let obs = sim.observe(i);
            let node = g.topology().intersection(i);
            for link in node.layout().link_ids() {
                assert_eq!(obs.movement(link), sim.movement_queue_len(i, link));
            }
            for out in node.layout().outgoing_ids() {
                let road = node.outgoing_road(out);
                assert_eq!(obs.outgoing(out), sim.road_queue(road));
                assert!(
                    sim.road_queue(road) <= sim.road_occupancy(road),
                    "queued is a subset of occupancy"
                );
            }
            // Eq. 1: incoming (queued) totals are movement-queue sums.
            for arm in node.layout().incoming_ids() {
                let total: u32 = node
                    .layout()
                    .links_from(arm)
                    .iter()
                    .map(|&l| sim.movement_queue_len(i, l))
                    .sum();
                assert_eq!(total, sim.incoming_queue_len(i, arm));
            }
        }
    }

    #[test]
    fn instant_transit_matches_eq2_timing() {
        // Under the paper-exact model, a vehicle served at tick k is in
        // the downstream queue at k+1.
        let g = GridNetwork::new(GridSpec::with_size(1, 2));
        let n = g.topology().num_intersections();
        let mut sim = QueueSim::new(
            g.topology().clone(),
            (0..n)
                .map(|_| Box::new(UtilBp::paper()) as Box<dyn SignalController>)
                .collect(),
            QueueSimConfig::paper_exact(),
        );
        let entry_idx = g
            .entries()
            .iter()
            .position(|e| e.side == Approach::West && e.slot == 0)
            .unwrap();
        sim.step(vec![one_arrival(&g, entry_idx, 0, RouteChoice::Straight)]);
        let i0 = g.intersection_at(utilbp_netgen::GridPos::new(0, 0));
        let i1 = g.intersection_at(utilbp_netgen::GridPos::new(0, 1));
        let link = utilbp_core::standard::link_id(Approach::West, Turn::Straight);
        // Injected at tick 0 → queued at I0 at tick 1.
        sim.step(Vec::new());
        assert_eq!(sim.movement_queue_len(i0, link), 1, "queued at I0 at k=1");
        // UTIL-BP switches to the serving phase through one 4-tick amber;
        // the slot after service, the vehicle is queued at I1 (Eq. 2
        // timing: served during (k, k+1) → counted in q(k+1)).
        let mut served_at = None;
        for k in 2..12u64 {
            sim.step(Vec::new());
            if sim.movement_queue_len(i0, link) == 0 && served_at.is_none() {
                served_at = Some(k);
            }
            if let Some(s) = served_at {
                if k == s + 1 {
                    assert_eq!(
                        sim.movement_queue_len(i1, link),
                        1,
                        "instant transit must reach I1's queue one slot after service"
                    );
                    return;
                }
            }
        }
        panic!("vehicle was never served at I0");
    }

    #[test]
    fn vehicle_conservation_invariant() {
        // injected = completed + on-roads + backlog at all times.
        let g = grid();
        let mut sim = sim_with_util(&g);
        let mut demand = DemandGenerator::new(
            &g,
            DemandConfig::new(DemandSchedule::constant(Pattern::IV, Ticks::new(900))),
            21,
        );
        let mut injected_total = 0u64;
        for k in 0..900 {
            let arrivals = demand.poll(&g, Tick::new(k));
            injected_total += arrivals.len() as u64;
            sim.step(arrivals);
            let on_roads: u64 = g
                .topology()
                .road_ids()
                .map(|r| sim.road_occupancy(r) as u64)
                .sum();
            let backlog = sim.backlog_len() as u64;
            let completed = sim.ledger().completed();
            assert_eq!(
                injected_total,
                on_roads + backlog + completed,
                "conservation at tick {k}"
            );
        }
    }

    #[test]
    fn capbp_runs_on_the_network() {
        let g = grid();
        let n = g.topology().num_intersections();
        let mut sim = QueueSim::new(
            g.topology().clone(),
            (0..n)
                .map(|_| Box::new(CapBp::new(Ticks::new(16))) as Box<dyn SignalController>)
                .collect(),
            QueueSimConfig::default(),
        );
        let mut demand = DemandGenerator::new(
            &g,
            DemandConfig::new(DemandSchedule::constant(Pattern::I, Ticks::new(900))),
            3,
        );
        for k in 0..900 {
            let arrivals = demand.poll(&g, Tick::new(k));
            sim.step(arrivals);
        }
        assert!(sim.ledger().completed() > 100);
    }

    #[test]
    #[should_panic(expected = "one controller per intersection")]
    fn rejects_wrong_controller_count() {
        let g = grid();
        let _ = QueueSim::new(
            g.topology().clone(),
            controllers_util(3),
            QueueSimConfig::default(),
        );
    }

    #[test]
    fn turning_route_is_followed() {
        let g = grid();
        let mut sim = sim_with_util(&g);
        // Enter from north col 0, turn left at row 1 → exits east.
        let arrival = one_arrival(
            &g,
            0,
            0,
            RouteChoice::TurnAt {
                turn: Turn::Left,
                path_index: 1,
            },
        );
        let route_len = arrival.route.len();
        sim.step(vec![arrival]);
        for _ in 0..600 {
            sim.step(Vec::new());
        }
        assert_eq!(sim.ledger().completed(), 1);
        assert_eq!(sim.total_served() as usize, route_len);
    }

    #[test]
    fn closed_entry_road_backlogs_arrivals_until_reopened() {
        let g = grid();
        let mut sim = sim_with_util(&g);
        let entry_road = g.entries()[0].road;
        sim.set_road_closed(entry_road, true);
        assert!(sim.road_closed(entry_road));
        for id in 0..5 {
            sim.step(vec![one_arrival(&g, 0, id, RouteChoice::Straight)]);
        }
        assert_eq!(sim.backlog_len(), 5, "closed entry admits nobody");
        assert_eq!(sim.road_occupancy(entry_road), 0);
        sim.set_road_closed(entry_road, false);
        sim.step(Vec::new());
        assert_eq!(sim.backlog_len(), 0, "reopening drains the backlog");
        assert_eq!(sim.road_occupancy(entry_road), 5);
    }

    #[test]
    fn closed_internal_road_blocks_service_onto_it() {
        let g = grid();
        let mut sim = sim_with_util(&g);
        // The internal road a north-entry straight route takes out of its
        // first intersection.
        let first = g.entries()[0].intersection;
        let node = g.topology().intersection(first);
        let internal = node.outgoing_road(Turn::Straight.exit_from(Approach::North).outgoing());
        assert!(g.topology().road(internal).is_internal());
        sim.set_road_closed(internal, true);
        for id in 0..4 {
            sim.step(vec![one_arrival(&g, 0, id, RouteChoice::Straight)]);
        }
        for _ in 0..300 {
            sim.step(Vec::new());
        }
        // Nothing ever crossed onto the closed road; the queue persists.
        assert_eq!(sim.road_occupancy(internal), 0);
        assert_eq!(sim.ledger().completed(), 0);
        let link = standard::link_id(Approach::North, Turn::Straight);
        assert_eq!(sim.movement_queue_len(first, link), 4);
        // Reopen: traffic flows again and the journeys finish.
        sim.set_road_closed(internal, false);
        for _ in 0..600 {
            sim.step(Vec::new());
        }
        assert_eq!(sim.ledger().completed(), 4);
    }
}
