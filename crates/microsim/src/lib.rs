//! # utilbp-microsim
//!
//! A from-scratch **microscopic traffic simulator** standing in for SUMO in
//! the reproduction of *Chang et al., DATE 2020*. Vehicles follow the
//! Krauss car-following model (SUMO's default) along dedicated
//! per-movement lanes; signalized junctions serve green links with
//! realistic discharge headways, a fixed junction-box traversal time, and
//! amber periods that let the box clear; queue detectors report
//! per-movement counts within a finite range of the stop line — the state
//! `Q(k)` the back-pressure controllers feed on.
//!
//! What this substitute preserves from the paper's SUMO setup (see
//! DESIGN.md for the substitution argument):
//!
//! - queues build and drain through car-following dynamics, with startup
//!   lost time and saturation headways — not instantaneous transfers;
//! - roads store a finite number of vehicles (`W = 120` at 300 m × 3
//!   lanes × 7.5 m jam spacing), so spillback blocks upstream service;
//! - ambers cost real green time, which is what makes the paper's
//!   phase-churn trade-off meaningful;
//! - SUMO's waiting-time definition (time at speed < 0.1 m/s) yields the
//!   "average queuing time of a vehicle" of Fig. 2 / Table III.
//!
//! See [`MicroSim`] for the step protocol and an end-to-end example.
//!
//! Together with `utilbp-queueing`, this simulator implements the
//! workspace's unified plant interface — the `TrafficSubstrate` trait in
//! `utilbp-substrate` — which states the cross-substrate contract
//! (determinism across repeats, road-closure semantics,
//! accumulator-based waiting accounting, deterministic route-cursor
//! access for en-route replanning) once for both backends;
//! the notes below cover only what is specific to the microscopic model.
//!
//! ## Performance architecture
//!
//! The step path is built to run as fast as the hardware allows over
//! large grids; seven mechanisms carry it:
//!
//! **Data-oriented vehicle layout.** Vehicle state is split by access
//! pattern (see the `road` module source for the full layout). Per-tick
//! hot state — interleaved `[position, speed]` pairs, a waiting-tick
//! accumulator, and the per-vehicle link/slot/id words — lives in one
//! *network-wide* struct-of-arrays arena (`NetworkLanes`): every road
//! is an index span into the same contiguous buffers, laid out
//! road-major then lane-major, so the car-following phase is a linear
//! sweep over packed storage instead of a pointer-chase across per-road
//! heap boxes. Per-journey cold state (external id, entry tick,
//! `Arc<Route>`, route cursor) lives in a slab `VehicleArena` keyed by a
//! compact `u32` slot that car-following never dereferences. Lanes
//! dequeue crossed heads by advancing a head offset inside their span
//! (amortized compaction, per-road strides pre-reserved at the geometric
//! plateau; a road that outgrows its stride triggers a one-off
//! whole-arena re-layout), so the steady-state fleet churns with no
//! allocation and no element shifts.
//!
//! **Occupancy-ordered iteration.** The arena keeps a sorted compact
//! list of *active* roads (live vehicle count > 0), maintained
//! incrementally at the only points occupancy can change — boundary
//! insertion, junction landing, head crossing, checkpoint load. The head
//! and follower phases iterate that list instead of all roads, so empty
//! roads and empty lanes cost zero cache lines — no metadata probe, no
//! RNG draw, no branch per empty lane. Skipping an empty road is exact
//! (it mutates nothing, and its dawdle stream is per-road and therefore
//! undisturbed by being unseeded for a tick), so the active list changes
//! *which* memory is touched, never a single trajectory byte. The list's
//! consistency with the spans' live counters is checkable at runtime
//! via [`MicroSim::verify_sensors`].
//!
//! **Flat lane-indexed tables.** Every per-tick pass reads flat arrays
//! built once at construction, not topology or layout objects: per
//! (intersection, link) the dedicated incoming lane's global index, the
//! incoming and outgoing roads and `µ·Δt`; per intersection its outgoing
//! roads and phase link lists, all by offset; per global lane
//! (`RoadSpan::lane0 + l`) the lane's link, detector counters, pending
//! reservations and green-with-credit flag. Sensing is a gather over the
//! link table, the signal refresh is one pass that updates each link's
//! credit and writes its lane's green flag, and head release reads its
//! link, out-road and verdict from the same tables. Checkpoints walk
//! lanes in road order, so the wire format is the per-road one.
//!
//! **Incremental sensing.** Detector reads never rescan lanes. Every
//! lane has dense counters — vehicles inside the configured detection
//! window, halted vehicles over the whole lane — and each road its
//! halted sum, maintained from deltas the car-following advance folds
//! once per lane (checked: a counter leaving `u32` panics in release too,
//! naming its road and lane) and updated at the only other points where
//! a vehicle's position or speed can change (stop-line crossings,
//! junction-box landings, boundary insertions). `movement_queue_len` and
//! `road_halted` are therefore O(1) reads of dense arrays — the sense
//! phase never touches lane storage. The invariant (*counter ≡
//! from-scratch rescan under the same sensor spec*) is checkable at
//! runtime via [`MicroSim::verify_sensors`] and enforced tick-by-tick in
//! the regression suite. A checkpoint stores none of these counters:
//! [`MicroSim::load_state`] rebuilds them from the same rescan, so a
//! crafted snapshot cannot carry a counter that disagrees with its
//! fleet into the step path. The same idea gives `dest_lane_has_room` an
//! O(1) per-lane pending-reservation counter and the head phase a
//! per-lane green-with-credit flag precomputed in the signal-refresh
//! pass. The `SharedMixed` lane discipline keeps per-(road, link)
//! movement counters over lane-cached link indices, so even the
//! mixed-lane ablation never chases routes in the hot loop.
//!
//! **Accumulator-based waiting.** Waiting time (SUMO definition: ticks
//! below the waiting-speed threshold) accumulates per vehicle, in the
//! same pass that moves it; the accumulator rides through junction boxes
//! and is flushed to the `WaitingLedger` once, at journey completion,
//! with the entry tick the vehicle's arena slot carries.
//! Vehicles queued outside a full boundary entry are credited their
//! whole backlog dwell when they insert. Nothing scans the fleet or the
//! backlogs per tick;
//! [`MicroSim::mean_waiting_including_active`] folds the live
//! accumulators into the completed statistics at query time.
//!
//! **Reusable scratch.** One `ObservationBuffer` (one observation per
//! intersection) and the caller's `StepReport` are rewritten in place
//! every tick via [`MicroSim::step_into`], so the steady-state step path
//! performs no heap allocation (bounded by a counting-allocator
//! regression test). The allocating `step` remains as a thin convenience
//! wrapper.
//! Handed a `utilbp_telemetry::TickProfiler`, the same `step_into` laps
//! its four phase groups into the profiler's `Section`s for `trace
//! --profile`, the scenario engine and the perf harness.
//!
//! **One serial step path.** Every phase runs on the calling thread.
//! UTIL-BP is decentralized because each controller reads only its own
//! intersection's observation, and the decide phase keeps that property
//! as a plain loop over intersections. Dawdling noise is drawn from
//! per-road RNG streams, so the active-road sweep can skip empty roads
//! without perturbing anyone's draws.
//!
//! **One numerical contract.** Dawdle noise comes from sequential
//! per-road streams, and each road's lanes are advanced in order by a
//! sweep that keeps several roads in flight (each a dependent chain of
//! followers, so interleaving them overlaps the chains without changing
//! a single operation or draw). Every fixed-seed golden, checkpoint and
//! cross-backend comparison in the workspace pins these trajectories,
//! and they must never drift — which the occupancy-ordered sweep
//! respects by visiting occupied roads in ascending index order (the
//! same relative order as a full scan) and never seeding or advancing an
//! empty road's stream.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod config;
mod krauss;
mod road;
mod sim;

pub use config::{LaneDiscipline, MicroSimConfig};
pub use krauss::{next_speed, LeaderInfo};
pub use sim::{MicroSim, StepReport};

#[cfg(test)]
mod tests {
    use super::*;
    use utilbp_baselines::{CapBp, FixedTime};
    use utilbp_core::standard::Turn;
    use utilbp_core::{SignalController, Tick, Ticks, UtilBp};
    use utilbp_metrics::VehicleId;
    use utilbp_netgen::{
        Arrival, DemandConfig, DemandGenerator, DemandSchedule, GridNetwork, GridSpec, Pattern,
        RouteChoice,
    };

    fn grid() -> GridNetwork {
        GridNetwork::new(GridSpec::paper())
    }

    fn util_controllers(n: usize) -> Vec<Box<dyn SignalController>> {
        (0..n)
            .map(|_| Box::new(UtilBp::paper()) as Box<dyn SignalController>)
            .collect()
    }

    fn one_arrival(grid: &GridNetwork, entry_idx: usize, id: u64, choice: RouteChoice) -> Arrival {
        let entry = grid.entries()[entry_idx];
        Arrival {
            vehicle: VehicleId::new(id),
            tick: Tick::ZERO,
            route: std::sync::Arc::new(grid.route(&entry, choice)),
        }
    }

    #[test]
    fn single_vehicle_drives_through() {
        let g = grid();
        let mut sim = MicroSim::new(
            g.topology().clone(),
            util_controllers(9),
            MicroSimConfig::deterministic(),
        );
        sim.step(vec![one_arrival(&g, 0, 0, RouteChoice::Straight)]);
        let mut completed = 0;
        for _ in 0..600 {
            completed += sim.step(Vec::new()).completed;
        }
        assert_eq!(completed, 1, "the vehicle must traverse and exit");
        assert_eq!(sim.vehicles_in_network(), 0);
        assert_eq!(sim.total_crossings(), 3, "three junctions crossed");
        assert_eq!(sim.ledger().completed(), 1);
        // Straight through an empty UTIL-BP network: waiting should be
        // minimal (green chases the lone vehicle), certainly below 120 s.
        assert!(sim.ledger().waiting_stats().mean() < 120.0);
    }

    #[test]
    fn journey_time_is_physically_plausible() {
        // 4 roads × 300 m at ≤13.89 m/s plus 3 crossings: at least ~86 s +
        // 9 s of boxes. Anything faster means teleportation.
        let g = grid();
        let mut sim = MicroSim::new(
            g.topology().clone(),
            util_controllers(9),
            MicroSimConfig::deterministic(),
        );
        sim.step(vec![one_arrival(&g, 0, 0, RouteChoice::Straight)]);
        for _ in 0..600 {
            sim.step(Vec::new());
        }
        let journey = sim.ledger().journey_stats().mean();
        assert!(
            journey >= 90.0,
            "journey {journey} s implies faster-than-free-flow travel"
        );
        assert!(journey <= 400.0, "journey {journey} s implies a stall");
    }

    #[test]
    fn turning_vehicle_follows_its_route() {
        let g = grid();
        let mut sim = MicroSim::new(
            g.topology().clone(),
            util_controllers(9),
            MicroSimConfig::deterministic(),
        );
        let arrival = one_arrival(
            &g,
            0,
            0,
            RouteChoice::TurnAt {
                turn: Turn::Left,
                path_index: 1,
            },
        );
        let hops = arrival.route.len() as u64;
        sim.step(vec![arrival]);
        for _ in 0..900 {
            sim.step(Vec::new());
        }
        assert_eq!(sim.ledger().completed(), 1);
        assert_eq!(sim.total_crossings(), hops);
    }

    #[test]
    fn vehicle_conservation_under_load() {
        let g = grid();
        let mut sim = MicroSim::new(
            g.topology().clone(),
            util_controllers(9),
            MicroSimConfig::default(),
        );
        let mut demand = DemandGenerator::new(
            &g,
            DemandConfig::new(DemandSchedule::constant(Pattern::I, Ticks::new(600))),
            42,
        );
        let mut injected_total = 0u64;
        for k in 0..600 {
            let arrivals = demand.poll(&g, Tick::new(k));
            injected_total += arrivals.len() as u64;
            sim.step(arrivals);
        }
        let accounted =
            sim.vehicles_in_network() as u64 + sim.backlog_len() as u64 + sim.ledger().completed();
        assert_eq!(injected_total, accounted, "no vehicle may vanish");
    }

    #[test]
    fn occupancies_never_exceed_capacity() {
        let g = GridNetwork::new(GridSpec {
            capacity: 15,
            ..GridSpec::with_size(2, 2)
        });
        let n = g.topology().num_intersections();
        let mut sim = MicroSim::new(
            g.topology().clone(),
            // Slow fixed-time keeps everything congested.
            (0..n)
                .map(|_| {
                    Box::new(FixedTime::new(Ticks::new(30), Ticks::new(4)))
                        as Box<dyn SignalController>
                })
                .collect(),
            MicroSimConfig::default(),
        );
        let mut demand = DemandGenerator::new(
            &g,
            DemandConfig::new(DemandSchedule::constant(Pattern::I, Ticks::new(900))),
            1,
        );
        for k in 0..900 {
            let arrivals = demand.poll(&g, Tick::new(k));
            sim.step(arrivals);
            for r in g.topology().road_ids() {
                assert!(
                    sim.road_occupancy(r) <= 15,
                    "tick {k}: road {r} over capacity ({})",
                    sim.road_occupancy(r)
                );
            }
        }
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let g = grid();
        let run = |seed: u64| -> (u64, u64, f64) {
            let mut sim = MicroSim::new(
                g.topology().clone(),
                util_controllers(9),
                MicroSimConfig {
                    seed,
                    ..MicroSimConfig::default()
                },
            );
            let mut demand = DemandGenerator::new(
                &g,
                DemandConfig::new(DemandSchedule::constant(Pattern::II, Ticks::new(400))),
                9,
            );
            for k in 0..400 {
                let arrivals = demand.poll(&g, Tick::new(k));
                sim.step(arrivals);
            }
            (
                sim.total_crossings(),
                sim.ledger().completed(),
                sim.mean_waiting_including_active(),
            )
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5).0, run(6).0, "different seeds must diverge");
    }

    #[test]
    fn red_light_builds_a_detectable_queue() {
        let g = grid();
        let n = g.topology().num_intersections();
        // Long fixed-time slots: during the c3/c4 part of the cycle, north
        // approaches queue up.
        let mut sim = MicroSim::new(
            g.topology().clone(),
            (0..n)
                .map(|_| {
                    Box::new(FixedTime::new(Ticks::new(40), Ticks::new(4)))
                        as Box<dyn SignalController>
                })
                .collect(),
            MicroSimConfig::default(),
        );
        let mut demand = DemandGenerator::new(
            &g,
            DemandConfig::new(DemandSchedule::constant(Pattern::I, Ticks::new(400))),
            3,
        );
        let mut max_queue = 0u32;
        for k in 0..400 {
            let arrivals = demand.poll(&g, Tick::new(k));
            sim.step(arrivals);
            for i in g.topology().intersection_ids() {
                let layout = g.topology().intersection(i).layout();
                for arm in layout.incoming_ids() {
                    max_queue = max_queue.max(sim.incoming_queue_len(i, arm));
                }
            }
        }
        assert!(max_queue >= 3, "queues must form under fixed-time control");
    }

    #[test]
    fn observation_is_consistent_with_accessors() {
        let g = grid();
        let mut sim = MicroSim::new(
            g.topology().clone(),
            util_controllers(9),
            MicroSimConfig::default(),
        );
        let mut demand = DemandGenerator::new(
            &g,
            DemandConfig::new(DemandSchedule::constant(Pattern::I, Ticks::new(300))),
            8,
        );
        for k in 0..300 {
            let arrivals = demand.poll(&g, Tick::new(k));
            sim.step(arrivals);
        }
        for i in g.topology().intersection_ids() {
            let node = g.topology().intersection(i);
            let mut obs = utilbp_core::QueueObservation::zeros(node.layout());
            sim.observe_into(i, &mut obs);
            for link in node.layout().link_ids() {
                assert_eq!(obs.movement(link), sim.movement_queue_len(i, link));
                assert!(
                    sim.movement_queue_len(i, link) <= sim.movement_count(i, link),
                    "halted is a subset of present"
                );
            }
            for out in node.layout().outgoing_ids() {
                let road = node.outgoing_road(out);
                assert_eq!(obs.outgoing(out), sim.road_halted(road));
                assert!(
                    sim.road_halted(road) <= sim.road_occupancy(road),
                    "halted is a subset of occupancy"
                );
            }
        }
    }

    #[test]
    fn utilbp_beats_fixed_time_microscopically() {
        let g = grid();
        let horizon = 1200u64;
        let run = |controllers: Vec<Box<dyn SignalController>>| -> f64 {
            let mut sim =
                MicroSim::new(g.topology().clone(), controllers, MicroSimConfig::default());
            let mut demand = DemandGenerator::new(
                &g,
                DemandConfig::new(DemandSchedule::constant(Pattern::I, Ticks::new(horizon))),
                77,
            );
            for k in 0..horizon {
                let arrivals = demand.poll(&g, Tick::new(k));
                sim.step(arrivals);
            }
            sim.mean_waiting_including_active()
        };
        let util = run(util_controllers(9));
        let fixed = run((0..9)
            .map(|_| {
                Box::new(FixedTime::new(Ticks::new(25), Ticks::new(4))) as Box<dyn SignalController>
            })
            .collect());
        assert!(
            util < fixed,
            "UTIL-BP ({util:.1}s) must beat fixed-time ({fixed:.1}s)"
        );
    }

    #[test]
    fn capbp_drives_the_microsim() {
        let g = grid();
        let mut sim = MicroSim::new(
            g.topology().clone(),
            (0..9)
                .map(|_| Box::new(CapBp::new(Ticks::new(16))) as Box<dyn SignalController>)
                .collect(),
            MicroSimConfig::default(),
        );
        let mut demand = DemandGenerator::new(
            &g,
            DemandConfig::new(DemandSchedule::constant(Pattern::II, Ticks::new(900))),
            12,
        );
        for k in 0..900 {
            let arrivals = demand.poll(&g, Tick::new(k));
            sim.step(arrivals);
        }
        assert!(
            sim.ledger().completed() > 50,
            "CAP-BP must move traffic, completed = {}",
            sim.ledger().completed()
        );
    }

    /// A controller pinned to one phase (test scaffolding).
    struct HoldPhase(utilbp_core::PhaseId);

    impl SignalController for HoldPhase {
        fn decide(
            &mut self,
            _view: &utilbp_core::IntersectionView<'_>,
            _now: Tick,
        ) -> utilbp_core::PhaseDecision {
            utilbp_core::PhaseDecision::Control(self.0)
        }
        fn reset(&mut self) {}
        fn name(&self) -> &'static str {
            "hold-phase"
        }
    }

    /// Runs the HOL scenario: phase pinned to c2 (rights only), vehicles
    /// from the north alternating straight/right. Returns completions.
    fn hol_scenario(discipline: LaneDiscipline) -> u64 {
        use utilbp_core::standard::{self, Approach};

        let g = GridNetwork::new(GridSpec::with_size(1, 1));
        let controllers: Vec<Box<dyn SignalController>> =
            vec![Box::new(HoldPhase(standard::phase_id(2)))];
        let mut sim = MicroSim::new(
            g.topology().clone(),
            controllers,
            MicroSimConfig {
                lane_discipline: discipline,
                ..MicroSimConfig::deterministic()
            },
        );
        let entry = g
            .entries()
            .iter()
            .copied()
            .find(|e| e.side == Approach::North)
            .unwrap();
        let mut id = 0u64;
        for k in 0..420u64 {
            let mut batch = Vec::new();
            if k % 6 == 0 {
                let choice = if (k / 6) % 2 == 0 {
                    RouteChoice::Straight
                } else {
                    RouteChoice::TurnAt {
                        turn: Turn::Right,
                        path_index: 0,
                    }
                };
                batch.push(Arrival {
                    vehicle: VehicleId::new(id),
                    tick: Tick::ZERO,
                    route: std::sync::Arc::new(g.route(&entry, choice)),
                });
                id += 1;
            }
            sim.step(batch);
        }
        sim.ledger().completed()
    }

    #[test]
    fn mixed_lanes_cause_head_of_line_blocking() {
        // Section IV Q4: with dedicated lanes, every right-turner clears
        // even though straights never get green; with mixed lanes, red
        // straight-bound heads trap right-turners behind them.
        let dedicated = hol_scenario(LaneDiscipline::DedicatedPerMovement);
        let shared = hol_scenario(LaneDiscipline::SharedMixed);
        assert!(
            dedicated >= 25,
            "dedicated lanes must clear the right-turners, got {dedicated}"
        );
        assert!(
            shared < dedicated,
            "mixed lanes must block some right-turners ({shared} vs {dedicated})"
        );
    }

    #[test]
    fn mixed_lanes_conserve_vehicles() {
        let g = grid();
        let mut sim = MicroSim::new(
            g.topology().clone(),
            util_controllers(9),
            MicroSimConfig {
                lane_discipline: LaneDiscipline::SharedMixed,
                ..MicroSimConfig::default()
            },
        );
        let mut demand = DemandGenerator::new(
            &g,
            DemandConfig::new(DemandSchedule::constant(Pattern::I, Ticks::new(500))),
            13,
        );
        let mut injected = 0u64;
        for k in 0..500 {
            let arrivals = demand.poll(&g, Tick::new(k));
            injected += arrivals.len() as u64;
            sim.step(arrivals);
        }
        assert_eq!(
            injected,
            sim.vehicles_in_network() as u64 + sim.backlog_len() as u64 + sim.ledger().completed()
        );
        assert!(sim.ledger().completed() > 0, "traffic still flows");
    }

    #[test]
    #[should_panic(expected = "one controller per intersection")]
    fn rejects_wrong_controller_count() {
        let g = grid();
        let _ = MicroSim::new(
            g.topology().clone(),
            util_controllers(2),
            MicroSimConfig::default(),
        );
    }

    #[test]
    #[should_panic(expected = "invalid microsim config")]
    fn rejects_invalid_config() {
        let g = grid();
        let cfg = MicroSimConfig {
            sigma: 2.0,
            ..MicroSimConfig::default()
        };
        let _ = MicroSim::new(g.topology().clone(), util_controllers(9), cfg);
    }

    #[test]
    fn shared_mixed_movement_counters_match_rescan() {
        let g = grid();
        let cfg = MicroSimConfig {
            lane_discipline: LaneDiscipline::SharedMixed,
            ..MicroSimConfig::default()
        };
        let mut sim = MicroSim::new(g.topology().clone(), util_controllers(9), cfg);
        let mut demand = DemandGenerator::new(
            &g,
            DemandConfig::new(DemandSchedule::constant(Pattern::I, Ticks::new(400))),
            11,
        );
        for k in 0..400 {
            let arrivals = demand.poll(&g, Tick::new(k));
            sim.step(arrivals);
            if k % 25 == 0 {
                sim.verify_sensors()
                    .unwrap_or_else(|e| panic!("tick {k}: {e}"));
            }
        }
        sim.verify_sensors()
            .expect("counters equal rescan at the end");
        // The counters actually observe traffic.
        let some_queue = g.topology().intersection_ids().any(|i| {
            g.topology()
                .intersection(i)
                .layout()
                .link_ids()
                .any(|l| sim.movement_count(i, l) > 0)
        });
        assert!(some_queue, "a loaded network shows movement counts");
    }

    #[test]
    fn shared_mixed_repeats_are_bit_identical() {
        let g = grid();
        let run = || {
            let cfg = MicroSimConfig {
                lane_discipline: LaneDiscipline::SharedMixed,
                ..MicroSimConfig::default()
            };
            let mut sim = MicroSim::new(g.topology().clone(), util_controllers(9), cfg);
            let mut demand = DemandGenerator::new(
                &g,
                DemandConfig::new(DemandSchedule::constant(Pattern::II, Ticks::new(300))),
                5,
            );
            for k in 0..300 {
                let arrivals = demand.poll(&g, Tick::new(k));
                sim.step(arrivals);
            }
            (
                sim.total_crossings(),
                sim.ledger().completed(),
                sim.ledger().waiting_stats().mean(),
            )
        };
        assert_eq!(
            run(),
            run(),
            "repeat runs must be bit-identical under SharedMixed"
        );
    }

    #[test]
    fn closed_roads_block_insertion_and_release_until_reopened() {
        let g = grid();
        let mut sim = MicroSim::new(
            g.topology().clone(),
            util_controllers(9),
            MicroSimConfig::deterministic(),
        );
        // Close the entry road: arrivals backlog, nothing drives.
        let entry_road = g.entries()[0].road;
        sim.set_road_closed(entry_road, true);
        assert!(sim.road_closed(entry_road));
        for id in 0..3 {
            sim.step(vec![one_arrival(&g, 0, id, RouteChoice::Straight)]);
        }
        assert_eq!(sim.backlog_len(), 3);
        assert_eq!(sim.vehicles_in_network(), 0);
        // Also close the internal road their route continues on: once the
        // entry reopens, nobody is released through the first junction.
        let first = g.entries()[0].intersection;
        let node = g.topology().intersection(first);
        let internal = node.outgoing_road(
            Turn::Straight
                .exit_from(utilbp_core::standard::Approach::North)
                .outgoing(),
        );
        sim.set_road_closed(internal, true);
        sim.set_road_closed(entry_road, false);
        for _ in 0..300 {
            sim.step(Vec::new());
        }
        assert_eq!(sim.backlog_len(), 0, "reopened entry admits the backlog");
        assert_eq!(sim.road_occupancy(internal), 0, "closed road stays empty");
        assert_eq!(sim.total_crossings(), 0);
        // Reopen the internal road: the journeys complete.
        sim.set_road_closed(internal, false);
        for _ in 0..900 {
            sim.step(Vec::new());
        }
        assert_eq!(sim.ledger().completed(), 3);
    }
}
