//! # utilbp-substrate
//!
//! The **plant contract** of the adaptive back-pressure workspace: one
//! [`TrafficSubstrate`] trait covering the full road-network API that
//! both simulators expose, so every driver — the scenario engine, the
//! experiments runner, the `scenarios` binary, the perf harness — steps,
//! probes, and disrupts a simulation through a single generic code path
//! instead of hand-dispatching over a per-crate substrate enum.
//!
//! In the paper's CPS framing the *control plane* (decentralized adaptive
//! back-pressure signal decisions) is separate from the *plant* (the road
//! network). This crate is the plant's contract and sits below both
//! plants, which implement it in their own crates: `utilbp-queueing`'s
//! `QueueSim` (the paper's Section II store-and-forward model, exact and
//! fast) and `utilbp-microsim`'s `MicroSim` (the microscopic SUMO
//! substitute: Krauss car-following, junction boxes, ambers). The one
//! constructor that names both, `build_substrate`, lives in
//! `utilbp-scenario`.
//!
//! ## The substrate contract
//!
//! Every implementation guarantees:
//!
//! - **Determinism.** The same topology, controllers, configuration, and
//!   arrival stream produce bit-identical step reports, ledgers, and
//!   metrics across repeated runs: every phase runs serially, and
//!   car-following noise comes from per-road RNG streams.
//! - **Closure semantics.** [`set_road_closed`](TrafficSubstrate::set_road_closed)
//!   closes a road *to entering traffic*: junctions stop serving vehicles
//!   onto it and boundary insertions onto it stay backlogged, while
//!   vehicles already on the road keep moving and may leave it (a street
//!   closed at its upstream end). Reopening restores normal admission.
//! - **Waiting accounting.** Waiting time accumulates per vehicle inside
//!   the step path (simulator-side accumulators that ride through
//!   junctions, next to the vehicle's entry tick) and is flushed to the
//!   [`WaitingLedger`] once, at journey completion; the ledger keeps
//!   only totals and tracks no live vehicle;
//!   [`mean_waiting_including_active`](TrafficSubstrate::mean_waiting_including_active)
//!   folds the live accumulators — including backlog dwell — into the
//!   completed statistics at query time. Nothing scans the fleet per tick.
//! - **Allocation-free stepping.** [`step_into`](TrafficSubstrate::step_into)
//!   rewrites the caller's [`StepReport`] and drains the arrival buffer
//!   in place; the steady-state hot path performs no heap
//!   allocation (bounded by the workspace's counting-allocator test).
//! - **Route-cursor access.** [`replan_routes`](TrafficSubstrate::replan_routes)
//!   walks every vehicle that still has junctions ahead of it in a
//!   deterministic order and lets the caller rewrite its remaining route —
//!   the hook en-route replanning ([`ReplanPolicy`]) is built on.
//!
//! ## Routing response (en-route replanning)
//!
//! [`ReplanPolicy`] describes how vehicles already in the network react
//! to its live state; the scenario engine executes the policy through
//! [`replan_routes`](TrafficSubstrate::replan_routes) and the sensor
//! surface above.
//!
//! - **Closure diversion** ([`ReplanPolicy::AtNextJunction`]): when a
//!   closure fires, the engine rewrites the route of every upstream
//!   vehicle whose remaining journey would enter the closed road, using
//!   `utilbp-netgen`'s bounded-turn route enumeration from the first road
//!   the vehicle has not yet committed to.
//! - **Reopen-restore**: when a closed road reopens, vehicles a closure
//!   diverted (tracked by id through the `replan_routes` callback) are
//!   rewritten back onto a strictly better open continuation when one now
//!   dominates their detour; undominated detours are kept.
//! - **Congestion replanning** ([`ReplanPolicy::Congestion`]): every
//!   `period` ticks the engine reads
//!   [`occupancy_snapshot`](TrafficSubstrate::occupancy_snapshot),
//!   maintains a hysteresis-banded congested-road set, and diverts
//!   journeys headed into congestion through a congestion-weighted view
//!   of the network's edge weights (emptier roads weigh more, congested
//!   roads are inadmissible — so reroutes cannot oscillate while the
//!   congested set is unchanged).
//!
//! In every case the committed prefix — each hop up to and including the
//! vehicle's next crossing — is never touched, because the microscopic
//! substrate binds a vehicle's current lane (and a crossing vehicle's
//! destination lane) to that movement. Replanning happens in the serial
//! event/monitor phase and draws no randomness; decisions read only
//! deterministic sensor state, so repeat-run bit-identity is preserved
//! under every policy. With [`ReplanPolicy::Off`] (the default) no route
//! is ever rewritten and all fixed-seed results are unchanged.
//!
//! ## The invariant guard
//!
//! [`InvariantGuard`] is an **opt-in** checker that sits next to a
//! substrate rather than inside it: its owner (the scenario engine,
//! under `EngineConfig::guard`, or the paper-experiment runner, which
//! always installs one in panic mode) calls [`InvariantGuard::check`]
//! after every step, and it re-derives
//! the contract's bookkeeping invariants from the plant's query surface:
//!
//! - **Vehicle conservation** — every vehicle the demand layer injected
//!   is exactly one of *completed*, *on the network* (road occupancy,
//!   which includes junction-box reservations on the microscopic
//!   substrate), or *backlogged* outside an entry:
//!   `ledger.active() == Σ occupancy + backlog`, where `active()` is
//!   the ledger's entered count minus its completed count, a count kept
//!   apart from the fleet it is checked against. Both plants also run
//!   this check once when they load a capture.
//! - **Sensor consistency** — the incrementally maintained queue/sensor
//!   counters equal a from-scratch rescan
//!   ([`verify_sensors`](TrafficSubstrate::verify_sensors)), which also
//!   implies every queue length is a well-formed non-negative count.
//! - **Closure monotonicity** — a closed road only drains: its
//!   occupancy never increases while it stays closed, and no road's
//!   cumulative `entered` counter ever decreases.
//!
//! Every check is read-only, so a guarded run produces bit-identical
//! metrics to the unguarded one — fixed-seed goldens are unchanged —
//! and without a guard nothing in the step path changes. The guard
//! stores nothing in a checkpoint either: its watermarks are the
//! plant's own levels at every capture, so
//! [`resume`](InvariantGuard::resume) rebuilds them from the restored
//! plant. The checks rescan the network, so install the guard in tests,
//! chaos harnesses, paper-table runs and debugging sessions rather than
//! benchmark loops.
//!
//! In [`GuardMode::Panic`] the first violation aborts the run with a
//! tick-stamped diagnostic. In [`GuardMode::Observe`] the guard keeps
//! its violations (up to a cap) for its owner to
//! [drain](InvariantGuard::drain_violations) and keeps stepping — the
//! scenario engine turns them into tick-stamped `guard_violation`
//! flight-recorder events, so traces can show near-misses without
//! killing the run. Chaos harnesses keep the panicking mode.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

use utilbp_core::state::{StateError, StateReader, StateWriter};
use utilbp_core::{IncomingId, PhaseDecision, Tick};
use utilbp_metrics::WaitingLedger;
use utilbp_netgen::{Arrival, IntersectionId, RoadId, RouteRewrite};
use utilbp_telemetry::TickProfiler;

/// Which simulation substrate drives the plant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The mesoscopic queueing-network simulator (`utilbp-queueing`) —
    /// fast, exactly the paper's Section II model.
    Queueing,
    /// The microscopic simulator (`utilbp-microsim`) — the SUMO
    /// substitute used for the headline results.
    Microscopic,
}

impl Backend {
    /// Both substrates, queueing first.
    pub const ALL: [Backend; 2] = [Backend::Queueing, Backend::Microscopic];

    /// The backend's canonical lowercase name (what [`Display`] prints
    /// and what tables/JSON rows record).
    ///
    /// [`Display`]: std::fmt::Display
    pub fn name(self) -> &'static str {
        match self {
            Backend::Queueing => "queueing",
            Backend::Microscopic => "microscopic",
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How vehicles already en route react to the live state of the network
/// (closures, reopenings, congestion).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ReplanPolicy {
    /// Routes are fixed at entry: a journey through a road that closes
    /// later queues upstream until the reopening (the congestion
    /// spill-back the adaptive controllers must absorb).
    #[default]
    Off,
    /// When a closure fires, every vehicle whose remaining route would
    /// enter the closed road diverts at the next junction it has not yet
    /// committed to, via bounded-turn route enumeration over the open
    /// network. Vehicles with no open detour (or already committed to
    /// enter the closed road) keep their route and wait, as under
    /// [`ReplanPolicy::Off`]. When the road reopens, diverted vehicles
    /// whose remaining detour is strictly dominated by an open
    /// continuation are rewritten back (reopen-restore).
    AtNextJunction,
    /// Everything [`ReplanPolicy::AtNextJunction`] does, plus periodic
    /// congestion-aware replanning: every `period` ticks the driver
    /// snapshots per-road occupancy, maintains a congested-road set (a
    /// road enters it when `occupancy / capacity >= threshold` and leaves
    /// when the ratio falls below `threshold - hysteresis`), and diverts
    /// vehicles whose uncommitted suffix would enter a congested road —
    /// scoring detours through a congestion-weighted view of the network
    /// in which emptier roads weigh more and congested roads are
    /// inadmissible, so a diverted journey cannot oscillate back while
    /// the congested set is unchanged.
    Congestion {
        /// Ticks between congestion checks (≥ 1).
        period: u64,
        /// Occupancy/capacity ratio at which a road becomes congested
        /// (positive).
        threshold: f64,
        /// How far below `threshold` the ratio must fall before the road
        /// is considered clear again (in `[0, threshold)`); the band that
        /// prevents reroute oscillation when occupancy hovers at the
        /// threshold.
        hysteresis: f64,
    },
}

impl ReplanPolicy {
    /// Checks the policy's parameters.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first invalid parameter.
    pub fn validate(&self) -> Result<(), String> {
        if let ReplanPolicy::Congestion {
            period,
            threshold,
            hysteresis,
        } = *self
        {
            if period == 0 {
                return Err("congestion replan period must be at least 1 tick".to_string());
            }
            if !(threshold.is_finite() && threshold > 0.0) {
                return Err("congestion threshold must be positive".to_string());
            }
            if !(hysteresis.is_finite() && (0.0..threshold).contains(&hysteresis)) {
                return Err(
                    "congestion hysteresis must be in [0, threshold) so the clear level \
                     stays positive"
                        .to_string(),
                );
            }
        }
        Ok(())
    }

    /// Whether the policy reacts to closure/reopen events.
    pub fn responds_to_closures(&self) -> bool {
        !matches!(self, ReplanPolicy::Off)
    }
}

impl std::fmt::Display for ReplanPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplanPolicy::Off => f.write_str("off"),
            ReplanPolicy::AtNextJunction => f.write_str("at-next-junction"),
            ReplanPolicy::Congestion {
                period,
                threshold,
                hysteresis,
            } => write!(
                f,
                "congestion period={period} threshold={threshold} hysteresis={hysteresis}"
            ),
        }
    }
}

/// What happened during one simulation step, on either plant. Reused
/// across ticks: [`TrafficSubstrate::step_into`] overwrites every field
/// and refills `decisions` in place.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepReport {
    /// The instant that was simulated.
    pub tick: Tick,
    /// The decision applied at each intersection, indexed by
    /// `IntersectionId`.
    pub decisions: Vec<PhaseDecision>,
    /// Vehicles served through a junction this step (on the microscopic
    /// plant, stop-line crossings started).
    pub served: u32,
    /// Vehicles that completed their journey this step.
    pub completed: u32,
    /// Vehicles injected into the network this step (excluding those
    /// pushed to a boundary backlog).
    pub injected: u32,
}

impl StepReport {
    /// An empty report, ready to be passed to
    /// [`TrafficSubstrate::step_into`].
    pub fn empty() -> Self {
        StepReport {
            tick: Tick::ZERO,
            decisions: Vec::new(),
            served: 0,
            completed: 0,
            injected: 0,
        }
    }
}

/// The plant interface both simulators implement — see the crate docs for
/// the cross-substrate contract (determinism, closure semantics, waiting
/// accounting) every implementation upholds.
pub trait TrafficSubstrate {
    /// Which backend this substrate is.
    fn backend(&self) -> Backend;

    /// The plant clock: the next tick to be simulated.
    fn now(&self) -> Tick;

    /// Simulates one mini-slot, draining `arrivals` (produced for this
    /// tick by a demand generator) and overwriting `report` in place,
    /// reusing its buffers. This is the steady-state hot path: callers
    /// that reuse the same `Vec<Arrival>` and [`StepReport`] across
    /// ticks incur no per-tick heap allocation from the stepping
    /// machinery. With a `profiler` attached, each of the step's four
    /// plant sections takes one lap of it (see
    /// [`Section`](utilbp_telemetry::Section) for what each lap covers
    /// on each plant); without, the step takes no clock readings. Timing
    /// reads are measurements, not inputs: the outcome is identical
    /// either way.
    fn step_into(
        &mut self,
        arrivals: &mut Vec<Arrival>,
        report: &mut StepReport,
        profiler: Option<&mut TickProfiler>,
    );

    /// [`step_into`](Self::step_into) with fresh buffers, untimed: the
    /// convenience for tests and examples.
    fn step(&mut self, mut arrivals: Vec<Arrival>) -> StepReport {
        let mut report = StepReport::empty();
        self.step_into(&mut arrivals, &mut report, None);
        report
    }

    /// Closes or reopens a road (a disruption event); see the crate docs
    /// for the closure semantics.
    ///
    /// # Panics
    ///
    /// Panics if `road` is out of range.
    fn set_road_closed(&mut self, road: RoadId, closed: bool);

    /// Whether `road` is currently closed to entering traffic.
    ///
    /// # Panics
    ///
    /// Panics if `road` is out of range.
    fn road_closed(&self, road: RoadId) -> bool;

    /// Vehicles currently on `road` (including, for the microscopic
    /// substrate, inbound junction-box reservations).
    ///
    /// # Panics
    ///
    /// Panics if `road` is out of range.
    fn road_occupancy(&self, road: RoadId) -> u32;

    /// Cumulative count of vehicles that have entered `road` since the
    /// start (boundary insertions plus junction transfers).
    ///
    /// # Panics
    ///
    /// Panics if `road` is out of range.
    fn road_entered(&self, road: RoadId) -> u64;

    /// The per-movement queue sensor `q_i^{i'}` a controller observes for
    /// `link` at `intersection`.
    ///
    /// # Panics
    ///
    /// Panics if the ids are out of range.
    fn movement_queue_len(&self, intersection: IntersectionId, link: utilbp_core::LinkId) -> u32;

    /// Total sensed queue `q_i` (Eq. 1) at an incoming arm — the paper's
    /// Fig. 5 quantity.
    ///
    /// # Panics
    ///
    /// Panics if the ids are out of range.
    fn incoming_queue_len(&self, intersection: IntersectionId, arm: IncomingId) -> u32;

    /// Fills `out` with the current occupancy of every road, indexed by
    /// `RoadId` (clearing whatever was in the buffer). One call costs
    /// O(roads) counter reads — the occupancy counters are maintained
    /// incrementally — so periodic congestion monitoring is cheap and
    /// allocation-free once the buffer has grown to the road count.
    fn occupancy_snapshot(&self, out: &mut Vec<u32>);

    /// Vehicles waiting outside full or closed boundary entries.
    fn backlog_len(&self) -> usize;

    /// Journey and waiting statistics over completed vehicles, and the
    /// count of vehicles that entered.
    fn ledger(&self) -> &WaitingLedger;

    /// Mean waiting ticks per vehicle including vehicles still in the
    /// network and backlogged outside it — the paper's "average queuing
    /// time of a vehicle", folded from the live accumulators at query
    /// time.
    fn mean_waiting_including_active(&self) -> f64;

    /// Visits every vehicle that still has junction crossings ahead of it
    /// (on-road, queued, in transit, in a junction box, or backlogged
    /// outside an entry), in a deterministic substrate-defined order, and
    /// lets `replan` rewrite its route. The callback receives the
    /// vehicle's id (so drivers can track per-vehicle routing state, e.g.
    /// which vehicles a closure diverted), its current route, and the
    /// number of leading hops that are **committed** (the vehicle's lane
    /// or queue is already bound to them); a returned replacement must
    /// preserve exactly that prefix and keep the same entry road. Returns
    /// the number of vehicles whose route was rewritten. Draws no
    /// randomness.
    fn replan_routes(&mut self, replan: &mut RouteRewrite<'_>) -> u64;

    /// Re-derives the substrate's incrementally maintained sensor
    /// counters from scratch and compares them — the internal
    /// consistency check behind the regression suite and the
    /// [`InvariantGuard`]. O(network); not meant for benchmark loops.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first divergent counter.
    fn verify_sensors(&self) -> Result<(), String>;

    /// Serializes the substrate's full dynamic state — clock, ledger,
    /// vehicles (each with its entry tick), queues, RNG stream positions,
    /// and every controller's state — into a durable word stream. Together
    /// with [`load_state`](Self::load_state) this is the plant half of
    /// the checkpoint/restore contract: a substrate restored into a
    /// freshly built twin (same topology, configuration, controllers)
    /// continues **bit-identically** to the original.
    fn save_state(&self, writer: &mut StateWriter);

    /// Restores the dynamic state written by
    /// [`save_state`](Self::save_state) into a substrate built over the
    /// same topology, configuration, and controller stack.
    ///
    /// # Errors
    ///
    /// Returns a [`StateError`] on a truncated stream, a shape mismatch
    /// with this substrate's topology, or a fleet the ledger does not
    /// account for; on error the substrate may be left partially
    /// overwritten and must be discarded.
    fn load_state(&mut self, reader: &mut StateReader<'_>) -> Result<(), StateError>;
}

/// What an [`InvariantGuard`] does with a violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardMode {
    /// Abort the run with a tick-stamped diagnostic.
    Panic,
    /// Keep the violation for the owner to drain and keep stepping.
    Observe,
}

/// An opt-in runtime checker for a substrate: called after every step,
/// it re-derives the plant's bookkeeping invariants — vehicle
/// conservation, sensor-counter consistency, closure monotonicity — from
/// the plant's query surface (see the crate docs for the exact
/// invariant statements).
///
/// The guard draws no randomness and reads only query-side state, so a
/// guarded run produces bit-identical metrics to an unguarded one. Its
/// owner keeps it next to the plant: it calls [`check`](Self::check)
/// after each step and [`road_toggled`](Self::road_toggled) whenever it
/// closes or reopens a road.
#[derive(Debug)]
pub struct InvariantGuard {
    mode: GuardMode,
    /// Steps checked so far (the tick stamp of the *next* diagnostic).
    ticks: u64,
    /// Reusable occupancy snapshot buffer.
    occ: Vec<u32>,
    /// Last observed occupancy of each road *while closed*; `None` for
    /// open roads.
    closed_occ: Vec<Option<u32>>,
    /// Last observed cumulative `entered` counter per road.
    prev_entered: Vec<u64>,
    /// Observe mode's undrained violations, at most [`VIOLATIONS_CAP`].
    violations: Vec<GuardViolation>,
}

/// One invariant violation recorded by an observe-mode guard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuardViolation {
    /// The step the violation was detected after (0-based).
    pub tick: u64,
    /// Which check fired: `"conservation"`, `"sensors"`,
    /// `"entered_monotonic"`, or `"closure_drain"`.
    pub check: &'static str,
    /// The guard's full diagnostic.
    pub message: String,
}

/// How many undrained violations an observe-mode guard keeps; later
/// ones are discarded until the owner drains (a broken invariant tends
/// to re-fire every tick).
const VIOLATIONS_CAP: usize = 256;

impl InvariantGuard {
    /// A guard that has checked nothing yet.
    pub fn new(mode: GuardMode) -> Self {
        InvariantGuard {
            mode,
            ticks: 0,
            occ: Vec::new(),
            closed_occ: Vec::new(),
            prev_entered: Vec::new(),
            violations: Vec::new(),
        }
    }

    fn fail(&mut self, tick: u64, check: &'static str, message: String) {
        match self.mode {
            GuardMode::Panic => panic!("invariant violated at tick {tick}: {message}"),
            GuardMode::Observe => {
                if self.violations.len() < VIOLATIONS_CAP {
                    self.violations.push(GuardViolation {
                        tick,
                        check,
                        message,
                    });
                }
            }
        }
    }

    /// Runs every invariant check against `plant`, which has just
    /// stepped.
    ///
    /// # Panics
    ///
    /// In [`GuardMode::Panic`], panics with a tick-stamped diagnostic on
    /// the first violation; in [`GuardMode::Observe`], keeps every
    /// violation and returns normally.
    pub fn check(&mut self, plant: &dyn TrafficSubstrate) {
        let tick = self.ticks;
        self.ticks += 1;
        // Vehicle conservation: each injected vehicle is exactly one of
        // completed, on the network, or backlogged. The ledger enters
        // every injection (backlogged included) and retires completions,
        // so its active count must equal on-network plus backlog.
        plant.occupancy_snapshot(&mut self.occ);
        let on_network: u64 = self.occ.iter().map(|&o| u64::from(o)).sum();
        let backlog = plant.backlog_len() as u64;
        let active = plant.ledger().active() as u64;
        if active != on_network + backlog {
            self.fail(
                tick,
                "conservation",
                format!(
                    "vehicle conservation: ledger holds {active} uncompleted vehicles but \
                     the plant accounts for {on_network} on-network + {backlog} backlogged"
                ),
            );
        }
        // Sensor consistency (also proves every queue length is a
        // well-formed non-negative count): incremental counters must
        // equal a from-scratch rescan.
        if let Err(msg) = plant.verify_sensors() {
            self.fail(tick, "sensors", format!("sensor consistency: {msg}"));
        }
        // Closure monotonicity: a closed road only drains, and entered
        // counters never run backwards. The watermarks are empty until
        // the first check.
        let roads = self.occ.len();
        self.closed_occ.resize(roads, None);
        self.prev_entered.resize(roads, 0);
        for r in 0..roads {
            let road = RoadId::new(r as u32);
            let entered = plant.road_entered(road);
            let before = self.prev_entered[r];
            if entered < before {
                self.fail(
                    tick,
                    "entered_monotonic",
                    format!("road {road} entered counter went backwards ({before} -> {entered})"),
                );
            }
            self.prev_entered[r] = entered;
            let occ = self.occ[r];
            self.closed_occ[r] = if plant.road_closed(road) {
                if let Some(before) = self.closed_occ[r].filter(|&before| occ > before) {
                    self.fail(
                        tick,
                        "closure_drain",
                        format!(
                            "closed road {road} admitted traffic (occupancy {before} -> {occ})"
                        ),
                    );
                }
                Some(occ)
            } else {
                None
            };
        }
    }

    /// Restarts `road`'s drain watermark. The owner calls this on every
    /// closure transition, so a close→reopen→close sequence is not
    /// compared across windows.
    pub fn road_toggled(&mut self, road: RoadId) {
        if let Some(slot) = self.closed_occ.get_mut(road.index()) {
            *slot = None;
        }
    }

    /// Moves out the violations an observe-mode guard kept since the
    /// last drain, oldest first.
    pub fn drain_violations(&mut self) -> std::vec::Drain<'_, GuardViolation> {
        self.violations.drain(..)
    }

    /// Rebuilds the guard's watermarks for `plant`, a plant just
    /// restored from a checkpoint: the guard writes nothing into a
    /// capture. Nothing moves between a step's check and the next
    /// capture, so the uninterrupted run's guard holds exactly this at
    /// the capture: one check per tick of the plant clock, each closed
    /// road's occupancy as its drain watermark and every road's entered
    /// counter. (Before the first check the watermarks are empty, which
    /// a fresh plant's open, unentered roads cannot tell apart.) A
    /// restored guarded run therefore keeps enforcing monotonicity across
    /// the checkpoint boundary exactly as the uninterrupted run does.
    pub fn resume(&mut self, plant: &dyn TrafficSubstrate) {
        self.ticks = plant.now().index();
        plant.occupancy_snapshot(&mut self.occ);
        self.closed_occ.clear();
        self.prev_entered.clear();
        for (r, &occ) in self.occ.iter().enumerate() {
            let road = RoadId::new(r as u32);
            self.closed_occ.push(plant.road_closed(road).then_some(occ));
            self.prev_entered.push(plant.road_entered(road));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A plant whose query surface the tests set directly, so each
    /// invariant can be broken on its own. Road 1 is closed.
    struct FakePlant {
        now: Tick,
        occupancy: Vec<u32>,
        entered: Vec<u64>,
        closed: Vec<bool>,
        ledger: WaitingLedger,
        sensors: Result<(), String>,
    }

    impl FakePlant {
        /// One vehicle on open road 0; closed road 1 empty.
        fn healthy() -> Self {
            let mut ledger = WaitingLedger::new();
            ledger.enter();
            FakePlant {
                now: Tick::ZERO,
                occupancy: vec![1, 0],
                entered: vec![1, 0],
                closed: vec![false, true],
                ledger,
                sensors: Ok(()),
            }
        }

        /// A vehicle that entered road `r` and is still on it.
        fn admit(&mut self, r: usize) {
            self.ledger.enter();
            self.occupancy[r] += 1;
            self.entered[r] += 1;
        }
    }

    impl TrafficSubstrate for FakePlant {
        fn backend(&self) -> Backend {
            Backend::Queueing
        }
        fn now(&self) -> Tick {
            self.now
        }
        fn step_into(
            &mut self,
            _: &mut Vec<Arrival>,
            _: &mut StepReport,
            _: Option<&mut TickProfiler>,
        ) {
            unreachable!("the tests step the fake by hand")
        }
        fn set_road_closed(&mut self, road: RoadId, closed: bool) {
            self.closed[road.index()] = closed;
        }
        fn road_closed(&self, road: RoadId) -> bool {
            self.closed[road.index()]
        }
        fn road_occupancy(&self, road: RoadId) -> u32 {
            self.occupancy[road.index()]
        }
        fn road_entered(&self, road: RoadId) -> u64 {
            self.entered[road.index()]
        }
        fn movement_queue_len(&self, _: IntersectionId, _: utilbp_core::LinkId) -> u32 {
            unreachable!("the guard reads no sensor")
        }
        fn incoming_queue_len(&self, _: IntersectionId, _: IncomingId) -> u32 {
            unreachable!("the guard reads no sensor")
        }
        fn occupancy_snapshot(&self, out: &mut Vec<u32>) {
            out.clone_from(&self.occupancy);
        }
        fn backlog_len(&self) -> usize {
            0
        }
        fn ledger(&self) -> &WaitingLedger {
            &self.ledger
        }
        fn mean_waiting_including_active(&self) -> f64 {
            unreachable!("the guard reads no waiting")
        }
        fn replan_routes(&mut self, _: &mut RouteRewrite<'_>) -> u64 {
            unreachable!("the guard rewrites no route")
        }
        fn verify_sensors(&self) -> Result<(), String> {
            self.sensors.clone()
        }
        fn save_state(&self, _: &mut StateWriter) {
            unreachable!("the tests capture nothing")
        }
        fn load_state(&mut self, _: &mut StateReader<'_>) -> Result<(), StateError> {
            unreachable!("the tests restore nothing")
        }
    }

    /// A check, a way to break it on the healthy fake after one clean
    /// check, and a phrase of its diagnostic.
    type Break = (&'static str, fn(&mut FakePlant), &'static str);

    const BREAKS: [Break; 4] = [
        (
            "conservation",
            |plant| plant.occupancy[0] = 0,
            "ledger holds 1 uncompleted vehicles but the plant accounts for 0 on-network",
        ),
        (
            "sensors",
            |plant| plant.sensors = Err("queue 3 reads 2, rescan 1".to_string()),
            "sensor consistency: queue 3 reads 2, rescan 1",
        ),
        (
            "entered_monotonic",
            |plant| {
                plant.admit(0);
                plant.entered[0] = 0;
            },
            "road R0 entered counter went backwards (1 -> 0)",
        ),
        (
            "closure_drain",
            |plant| plant.admit(1),
            "closed road R1 admitted traffic (occupancy 0 -> 1)",
        ),
    ];

    #[test]
    fn a_healthy_fake_passes_every_check() {
        let mut plant = FakePlant::healthy();
        let mut guard = InvariantGuard::new(GuardMode::Observe);
        for _ in 0..3 {
            guard.check(&plant);
            plant.admit(0);
        }
        guard.check(&plant);
        assert_eq!(guard.drain_violations().count(), 0);
    }

    #[test]
    fn each_check_panics_tick_stamped_in_panic_mode() {
        for (check, break_it, phrase) in BREAKS {
            let mut plant = FakePlant::healthy();
            let mut guard = InvariantGuard::new(GuardMode::Panic);
            guard.check(&plant);
            break_it(&mut plant);
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                guard.check(&plant);
            }))
            .expect_err(check);
            let message = payload.downcast_ref::<String>().expect("formatted panic");
            assert!(
                message.starts_with("invariant violated at tick 1: ") && message.contains(phrase),
                "{check}: {message}"
            );
        }
    }

    #[test]
    fn each_check_logs_its_violation_in_observe_mode() {
        for (check, break_it, phrase) in BREAKS {
            let mut plant = FakePlant::healthy();
            let mut guard = InvariantGuard::new(GuardMode::Observe);
            guard.check(&plant);
            break_it(&mut plant);
            guard.check(&plant);
            let logged: Vec<GuardViolation> = guard.drain_violations().collect();
            assert_eq!(logged.len(), 1, "{check}: {logged:?}");
            assert_eq!((logged[0].tick, logged[0].check), (1, check));
            assert!(logged[0].message.contains(phrase), "{check}: {logged:?}");
            assert_eq!(guard.drain_violations().count(), 0, "drained once");
        }
    }

    #[test]
    fn a_closure_transition_restarts_the_drain_watermark() {
        // Traffic admitted just before a road closes is the new window's
        // starting level, not a breach of the old one.
        let mut plant = FakePlant::healthy();
        let mut guard = InvariantGuard::new(GuardMode::Observe);
        guard.check(&plant);
        plant.set_road_closed(RoadId::new(1), false);
        guard.road_toggled(RoadId::new(1));
        plant.admit(1);
        plant.set_road_closed(RoadId::new(1), true);
        guard.road_toggled(RoadId::new(1));
        guard.check(&plant);
        assert_eq!(guard.drain_violations().count(), 0);
        plant.admit(1);
        guard.check(&plant);
        assert_eq!(guard.drain_violations().count(), 1);
    }

    #[test]
    fn a_resumed_guard_fires_like_the_uninterrupted_one() {
        // A guard that checked each of three steps, and one rebuilt from
        // the plant alone at the capture after them (road 1 closed and
        // drained, road 0 entered): each breach after the seam fires in
        // both, stamped alike.
        let run = |break_it: fn(&mut FakePlant)| {
            let mut plant = FakePlant::healthy();
            let mut checked = InvariantGuard::new(GuardMode::Observe);
            for _ in 0..3 {
                plant.admit(0);
                plant.now = plant.now.next();
                checked.check(&plant);
            }
            let mut resumed = InvariantGuard::new(GuardMode::Observe);
            resumed.resume(&plant);
            break_it(&mut plant);
            [checked, resumed].map(|mut guard| {
                guard.check(&plant);
                guard.drain_violations().collect::<Vec<_>>()
            })
        };
        for (check, break_it, _) in BREAKS {
            let [checked, resumed] = run(break_it);
            assert_eq!(checked.len(), 1, "{check}: {checked:?}");
            assert_eq!((checked[0].tick, checked[0].check), (3, check));
            assert_eq!(resumed, checked, "{check}");
        }
    }
}
