//! # utilbp-substrate
//!
//! The **unified plant layer** of the adaptive back-pressure workspace:
//! one [`TrafficSubstrate`] trait covering the full road-network API that
//! both simulators expose, so every driver — the scenario engine, the
//! experiments runner, the `scenarios` binary, the perf harness — steps,
//! probes, and disrupts a simulation through a single generic code path
//! instead of hand-dispatching over a per-crate substrate enum.
//!
//! In the paper's CPS framing the *control plane* (decentralized adaptive
//! back-pressure signal decisions) is separate from the *plant* (the road
//! network). This crate is the plant's contract. Its two implementations
//! are [`QueueSim`] (the paper's Section II store-and-forward model,
//! exact and fast) and [`MicroSim`] (the microscopic SUMO substitute:
//! Krauss car-following, junction boxes, ambers).
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
//!   junctions) and is flushed to the [`WaitingLedger`] once, at journey
//!   completion;
//!   [`mean_waiting_including_active`](TrafficSubstrate::mean_waiting_including_active)
//!   folds the live accumulators — including backlog dwell — into the
//!   completed statistics at query time. Nothing scans the fleet per tick.
//! - **Allocation-free stepping.** [`step_into`](TrafficSubstrate::step_into)
//!   reuses the caller's [`SubstrateScratch`] and drains the arrival
//!   buffer in place; the steady-state hot path performs no heap
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
//! [`InvariantGuard`] is an **opt-in** wrapper over any substrate that
//! re-derives the contract's bookkeeping invariants after every step and
//! panics with a tick-stamped diagnostic on the first violation:
//!
//! - **Vehicle conservation** — every vehicle the demand layer injected
//!   is exactly one of *completed*, *on the network* (road occupancy,
//!   which includes junction-box reservations on the microscopic
//!   substrate), or *backlogged* outside an entry:
//!   `ledger.active() == Σ occupancy + backlog`.
//! - **Sensor consistency** — the incrementally maintained queue/sensor
//!   counters equal a from-scratch rescan
//!   ([`verify_sensors`](TrafficSubstrate::verify_sensors)), which also
//!   implies every queue length is a well-formed non-negative count.
//! - **Closure monotonicity** — a closed road only drains: its
//!   occupancy never increases while it stays closed, and no road's
//!   cumulative `entered` counter ever decreases.
//!
//! The guard is a plain wrapper: when it is not installed nothing in the
//! step path changes (zero cost), and because every check is read-only
//! the guarded run produces bit-identical metrics to the unguarded one —
//! fixed-seed goldens are unchanged. The checks rescan the network, so
//! install the guard in tests, chaos harnesses, and debugging sessions
//! rather than benchmark loops.
//!
//! Besides the default abort-on-violation mode
//! ([`InvariantGuard::new`]), the guard has a non-panicking **observe**
//! mode ([`InvariantGuard::observing`]) that appends every violation to
//! a shared [`GuardLog`] and keeps stepping — the `utilbp-telemetry`
//! flight recorder drains that log into tick-stamped `guard_violation`
//! events so traces can show near-misses without killing the run. Chaos
//! harnesses keep the panicking mode.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use utilbp_core::state::{StateError, StateReader, StateWriter};
use utilbp_core::{IncomingId, PhaseDecision, SignalController, Tick};
use utilbp_metrics::WaitingLedger;
use utilbp_microsim::{MicroSim, MicroSimConfig, PhaseTimings};
use utilbp_netgen::{Arrival, IntersectionId, NetworkTopology, RoadId, RouteRewrite};
use utilbp_queueing::{QueueSim, QueueSimConfig, StepPhaseTimings};

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

/// Reusable per-tick report scratch for whichever substrate is active.
/// Holding both report types costs a few empty `Vec`s and keeps
/// [`TrafficSubstrate::step_into`] allocation-free for every caller,
/// whichever backend is behind the trait object.
#[derive(Debug, Clone)]
pub struct SubstrateScratch {
    /// The queueing substrate's step report.
    pub queueing: utilbp_queueing::StepReport,
    /// The microscopic substrate's step report.
    pub micro: utilbp_microsim::StepReport,
}

impl SubstrateScratch {
    /// Empty scratch, ready to be reused across ticks.
    pub fn new() -> Self {
        SubstrateScratch {
            queueing: utilbp_queueing::StepReport::empty(),
            micro: utilbp_microsim::StepReport::empty(),
        }
    }
}

impl Default for SubstrateScratch {
    fn default() -> Self {
        SubstrateScratch::new()
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
    /// tick by a demand generator) and reusing `scratch`'s buffers.
    /// Returns the per-intersection decisions of the tick, borrowed from
    /// the scratch.
    fn step_into<'a>(
        &mut self,
        arrivals: &mut Vec<Arrival>,
        scratch: &'a mut SubstrateScratch,
    ) -> &'a [PhaseDecision];

    /// [`step_into`](Self::step_into) with per-phase wall-clock
    /// attribution added to `timings`. Substrates without phase
    /// instrumentation (the queueing model's step is a single phase)
    /// leave `timings` untouched.
    fn step_into_timed<'a>(
        &mut self,
        arrivals: &mut Vec<Arrival>,
        scratch: &'a mut SubstrateScratch,
        timings: &mut PhaseTimings,
    ) -> &'a [PhaseDecision];

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

    /// Per-vehicle journey accounting over completed vehicles.
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

    /// Serializes the substrate's full dynamic state — clock, vehicles,
    /// queues, RNG stream positions, incremental counters, ledger, and
    /// every controller's state — into a durable word stream. Together
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
    /// Returns a [`StateError`] on a truncated stream or a shape mismatch
    /// with this substrate's topology; on error the substrate may be left
    /// partially overwritten and must be discarded.
    fn load_state(&mut self, reader: &mut StateReader<'_>) -> Result<(), StateError>;
}

impl<S: TrafficSubstrate + ?Sized> TrafficSubstrate for Box<S> {
    fn backend(&self) -> Backend {
        (**self).backend()
    }

    fn now(&self) -> Tick {
        (**self).now()
    }

    fn step_into<'a>(
        &mut self,
        arrivals: &mut Vec<Arrival>,
        scratch: &'a mut SubstrateScratch,
    ) -> &'a [PhaseDecision] {
        (**self).step_into(arrivals, scratch)
    }

    fn step_into_timed<'a>(
        &mut self,
        arrivals: &mut Vec<Arrival>,
        scratch: &'a mut SubstrateScratch,
        timings: &mut PhaseTimings,
    ) -> &'a [PhaseDecision] {
        (**self).step_into_timed(arrivals, scratch, timings)
    }

    fn set_road_closed(&mut self, road: RoadId, closed: bool) {
        (**self).set_road_closed(road, closed);
    }

    fn road_closed(&self, road: RoadId) -> bool {
        (**self).road_closed(road)
    }

    fn road_occupancy(&self, road: RoadId) -> u32 {
        (**self).road_occupancy(road)
    }

    fn road_entered(&self, road: RoadId) -> u64 {
        (**self).road_entered(road)
    }

    fn movement_queue_len(&self, intersection: IntersectionId, link: utilbp_core::LinkId) -> u32 {
        (**self).movement_queue_len(intersection, link)
    }

    fn incoming_queue_len(&self, intersection: IntersectionId, arm: IncomingId) -> u32 {
        (**self).incoming_queue_len(intersection, arm)
    }

    fn occupancy_snapshot(&self, out: &mut Vec<u32>) {
        (**self).occupancy_snapshot(out);
    }

    fn backlog_len(&self) -> usize {
        (**self).backlog_len()
    }

    fn ledger(&self) -> &WaitingLedger {
        (**self).ledger()
    }

    fn mean_waiting_including_active(&self) -> f64 {
        (**self).mean_waiting_including_active()
    }

    fn replan_routes(&mut self, replan: &mut RouteRewrite<'_>) -> u64 {
        (**self).replan_routes(replan)
    }

    fn verify_sensors(&self) -> Result<(), String> {
        (**self).verify_sensors()
    }

    fn save_state(&self, writer: &mut StateWriter) {
        (**self).save_state(writer);
    }

    fn load_state(&mut self, reader: &mut StateReader<'_>) -> Result<(), StateError> {
        (**self).load_state(reader)
    }
}

impl TrafficSubstrate for QueueSim {
    fn backend(&self) -> Backend {
        Backend::Queueing
    }

    fn now(&self) -> Tick {
        QueueSim::now(self)
    }

    fn step_into<'a>(
        &mut self,
        arrivals: &mut Vec<Arrival>,
        scratch: &'a mut SubstrateScratch,
    ) -> &'a [PhaseDecision] {
        QueueSim::step_into(self, arrivals, &mut scratch.queueing);
        &scratch.queueing.decisions
    }

    fn step_into_timed<'a>(
        &mut self,
        arrivals: &mut Vec<Arrival>,
        scratch: &'a mut SubstrateScratch,
        timings: &mut PhaseTimings,
    ) -> &'a [PhaseDecision] {
        // The queueing pipeline has its own section names; map them onto
        // the shared axes: sensing+deciding -> decide, serving activated
        // links -> car_following (vehicle advancement), transit arrivals
        // landing -> landings, injection+bookkeeping -> waiting.
        let mut slot = StepPhaseTimings::default();
        QueueSim::step_into_timed(self, arrivals, &mut scratch.queueing, &mut slot);
        timings.decide += slot.decide;
        timings.car_following += slot.serve;
        timings.landings += slot.transit;
        timings.waiting += slot.inject;
        &scratch.queueing.decisions
    }

    fn set_road_closed(&mut self, road: RoadId, closed: bool) {
        QueueSim::set_road_closed(self, road, closed);
    }

    fn road_closed(&self, road: RoadId) -> bool {
        QueueSim::road_closed(self, road)
    }

    fn road_occupancy(&self, road: RoadId) -> u32 {
        QueueSim::road_occupancy(self, road)
    }

    fn road_entered(&self, road: RoadId) -> u64 {
        QueueSim::road_entered(self, road)
    }

    fn movement_queue_len(&self, intersection: IntersectionId, link: utilbp_core::LinkId) -> u32 {
        QueueSim::movement_queue_len(self, intersection, link)
    }

    fn incoming_queue_len(&self, intersection: IntersectionId, arm: IncomingId) -> u32 {
        QueueSim::incoming_queue_len(self, intersection, arm)
    }

    fn occupancy_snapshot(&self, out: &mut Vec<u32>) {
        QueueSim::occupancy_snapshot(self, out);
    }

    fn backlog_len(&self) -> usize {
        QueueSim::backlog_len(self)
    }

    fn ledger(&self) -> &WaitingLedger {
        QueueSim::ledger(self)
    }

    fn mean_waiting_including_active(&self) -> f64 {
        QueueSim::mean_waiting_including_active(self)
    }

    fn replan_routes(&mut self, replan: &mut RouteRewrite<'_>) -> u64 {
        QueueSim::replan_routes(self, replan)
    }

    fn verify_sensors(&self) -> Result<(), String> {
        QueueSim::verify_sensors(self)
    }

    fn save_state(&self, writer: &mut StateWriter) {
        QueueSim::save_state(self, writer);
    }

    fn load_state(&mut self, reader: &mut StateReader<'_>) -> Result<(), StateError> {
        QueueSim::load_state(self, reader)
    }
}

impl TrafficSubstrate for MicroSim {
    fn backend(&self) -> Backend {
        Backend::Microscopic
    }

    fn now(&self) -> Tick {
        MicroSim::now(self)
    }

    fn step_into<'a>(
        &mut self,
        arrivals: &mut Vec<Arrival>,
        scratch: &'a mut SubstrateScratch,
    ) -> &'a [PhaseDecision] {
        MicroSim::step_into(self, arrivals, &mut scratch.micro);
        &scratch.micro.decisions
    }

    fn step_into_timed<'a>(
        &mut self,
        arrivals: &mut Vec<Arrival>,
        scratch: &'a mut SubstrateScratch,
        timings: &mut PhaseTimings,
    ) -> &'a [PhaseDecision] {
        MicroSim::step_into_timed(self, arrivals, &mut scratch.micro, timings);
        &scratch.micro.decisions
    }

    fn set_road_closed(&mut self, road: RoadId, closed: bool) {
        MicroSim::set_road_closed(self, road, closed);
    }

    fn road_closed(&self, road: RoadId) -> bool {
        MicroSim::road_closed(self, road)
    }

    fn road_occupancy(&self, road: RoadId) -> u32 {
        MicroSim::road_occupancy(self, road)
    }

    fn road_entered(&self, road: RoadId) -> u64 {
        MicroSim::road_entered(self, road)
    }

    fn movement_queue_len(&self, intersection: IntersectionId, link: utilbp_core::LinkId) -> u32 {
        MicroSim::movement_queue_len(self, intersection, link)
    }

    fn incoming_queue_len(&self, intersection: IntersectionId, arm: IncomingId) -> u32 {
        MicroSim::incoming_queue_len(self, intersection, arm)
    }

    fn occupancy_snapshot(&self, out: &mut Vec<u32>) {
        MicroSim::occupancy_snapshot(self, out);
    }

    fn backlog_len(&self) -> usize {
        MicroSim::backlog_len(self)
    }

    fn ledger(&self) -> &WaitingLedger {
        MicroSim::ledger(self)
    }

    fn mean_waiting_including_active(&self) -> f64 {
        MicroSim::mean_waiting_including_active(self)
    }

    fn replan_routes(&mut self, replan: &mut RouteRewrite<'_>) -> u64 {
        MicroSim::replan_routes(self, replan)
    }

    fn verify_sensors(&self) -> Result<(), String> {
        MicroSim::verify_sensors(self)
    }

    fn save_state(&self, writer: &mut StateWriter) {
        MicroSim::save_state(self, writer);
    }

    fn load_state(&mut self, reader: &mut StateReader<'_>) -> Result<(), StateError> {
        MicroSim::load_state(self, reader)
    }
}

/// An opt-in runtime checker over any substrate: after every step it
/// re-derives the plant's bookkeeping invariants — vehicle conservation,
/// sensor-counter consistency, closure monotonicity — and panics with a
/// tick-stamped diagnostic on the first violation (see the crate docs
/// for the exact invariant statements).
///
/// The guard is a plain wrapper: it draws no randomness, mutates nothing
/// in the wrapped substrate, and reads only query-side state, so a
/// guarded run produces bit-identical metrics to an unguarded one. When
/// the guard is not installed, nothing in the step path changes.
///
/// # Examples
///
/// ```
/// use utilbp_core::{SignalController, UtilBp};
/// use utilbp_microsim::MicroSimConfig;
/// use utilbp_netgen::{GridNetwork, GridSpec};
/// use utilbp_substrate::{build_substrate, Backend, InvariantGuard};
///
/// let grid = GridNetwork::new(GridSpec::paper());
/// let controllers = (0..9)
///     .map(|_| Box::new(UtilBp::paper()) as Box<dyn SignalController>)
///     .collect();
/// let plant = build_substrate(
///     Backend::Queueing,
///     grid.topology().clone(),
///     controllers,
///     MicroSimConfig::default(),
/// );
/// let mut guarded = InvariantGuard::new(plant);
/// // step `guarded` exactly like the unguarded substrate…
/// # let _ = &mut guarded;
/// ```
#[derive(Debug)]
pub struct InvariantGuard<S> {
    inner: S,
    /// Steps taken so far (the tick stamp of the *next* diagnostic).
    ticks: u64,
    /// Reusable occupancy snapshot buffer.
    occ: Vec<u32>,
    /// Last observed occupancy of each road *while closed*; `None` for
    /// open roads.
    closed_occ: Vec<Option<u32>>,
    /// Last observed cumulative `entered` counter per road.
    prev_entered: Vec<u64>,
    /// Where violations go: abort the run, or log and keep stepping.
    sink: GuardSink,
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

/// How many violations an observe-mode [`GuardLog`] retains verbatim;
/// later ones still count toward [`GuardLog::total`] but their messages
/// are discarded (a broken invariant tends to re-fire every tick).
const GUARD_LOG_CAP: usize = 256;

#[derive(Debug, Default)]
struct GuardLogInner {
    violations: Vec<GuardViolation>,
    total: u64,
}

/// A shared, cloneable sink for observe-mode guard violations. The
/// driver keeps one clone and hands the other to
/// [`InvariantGuard::observing`]; after each step it drains newly
/// recorded violations with [`drain_into`](Self::drain_into).
#[derive(Debug, Clone, Default)]
pub struct GuardLog(std::sync::Arc<std::sync::Mutex<GuardLogInner>>);

impl GuardLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Violations recorded over the log's lifetime (drained or not,
    /// including any beyond the retention cap).
    pub fn total(&self) -> u64 {
        self.0.lock().expect("guard log poisoned").total
    }

    /// Moves all retained violations into `out` (appending), oldest
    /// first, leaving the log empty.
    pub fn drain_into(&self, out: &mut Vec<GuardViolation>) {
        let mut inner = self.0.lock().expect("guard log poisoned");
        out.append(&mut inner.violations);
    }

    fn record(&self, violation: GuardViolation) {
        let mut inner = self.0.lock().expect("guard log poisoned");
        inner.total += 1;
        if inner.violations.len() < GUARD_LOG_CAP {
            inner.violations.push(violation);
        }
    }
}

#[derive(Debug)]
enum GuardSink {
    /// Abort the run with a tick-stamped diagnostic (the default).
    Panic,
    /// Append to the shared log and keep stepping.
    Observe(GuardLog),
}

impl GuardSink {
    fn fail(&self, tick: u64, check: &'static str, message: String) {
        match self {
            GuardSink::Panic => panic!("invariant violated at tick {tick}: {message}"),
            GuardSink::Observe(log) => log.record(GuardViolation {
                tick,
                check,
                message,
            }),
        }
    }
}

impl<S: TrafficSubstrate> InvariantGuard<S> {
    /// Wraps `inner`; checks run after every step from now on and panic
    /// on the first violation.
    pub fn new(inner: S) -> Self {
        Self::with_sink(inner, GuardSink::Panic)
    }

    /// Wraps `inner` in **observe** mode: checks still run after every
    /// step, but violations are appended to `log` instead of aborting
    /// the run. A violated invariant does not stop later checks, so one
    /// step can log several violations.
    pub fn observing(inner: S, log: GuardLog) -> Self {
        Self::with_sink(inner, GuardSink::Observe(log))
    }

    fn with_sink(inner: S, sink: GuardSink) -> Self {
        InvariantGuard {
            inner,
            ticks: 0,
            occ: Vec::new(),
            closed_occ: Vec::new(),
            prev_entered: Vec::new(),
            sink,
        }
    }

    /// The wrapped substrate.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwraps the guard, returning the substrate.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// How many steps the guard has checked.
    pub fn ticks_checked(&self) -> u64 {
        self.ticks
    }

    /// Runs every invariant check against the current state.
    ///
    /// # Panics
    ///
    /// In the default mode, panics with a tick-stamped diagnostic on
    /// the first violation; in observe mode, logs every violation and
    /// returns normally.
    fn check(&mut self) {
        let tick = self.ticks;
        self.ticks += 1;
        // Vehicle conservation: each injected vehicle is exactly one of
        // completed, on the network, or backlogged. The ledger enters
        // every injection (backlogged included) and retires completions,
        // so its active count must equal on-network plus backlog.
        self.inner.occupancy_snapshot(&mut self.occ);
        let on_network: u64 = self.occ.iter().map(|&o| u64::from(o)).sum();
        let backlog = self.inner.backlog_len() as u64;
        let active = self.inner.ledger().active() as u64;
        if active != on_network + backlog {
            self.sink.fail(
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
        if let Err(msg) = self.inner.verify_sensors() {
            self.sink
                .fail(tick, "sensors", format!("sensor consistency: {msg}"));
        }
        // Closure monotonicity: a closed road only drains, and entered
        // counters never run backwards.
        if self.closed_occ.len() != self.occ.len() {
            self.closed_occ.resize(self.occ.len(), None);
            self.prev_entered.resize(self.occ.len(), 0);
        }
        for r in 0..self.occ.len() {
            let road = RoadId::new(r as u32);
            let entered = self.inner.road_entered(road);
            if entered < self.prev_entered[r] {
                self.sink.fail(
                    tick,
                    "entered_monotonic",
                    format!(
                        "road {road} entered counter went backwards ({} -> {entered})",
                        self.prev_entered[r]
                    ),
                );
            }
            self.prev_entered[r] = entered;
            if self.inner.road_closed(road) {
                if let Some(before) = self.closed_occ[r] {
                    if self.occ[r] > before {
                        self.sink.fail(
                            tick,
                            "closure_drain",
                            format!(
                                "closed road {road} admitted traffic (occupancy {before} -> {})",
                                self.occ[r]
                            ),
                        );
                    }
                }
                self.closed_occ[r] = Some(self.occ[r]);
            } else {
                self.closed_occ[r] = None;
            }
        }
    }
}

impl<S: TrafficSubstrate> TrafficSubstrate for InvariantGuard<S> {
    fn backend(&self) -> Backend {
        self.inner.backend()
    }

    fn now(&self) -> Tick {
        self.inner.now()
    }

    fn step_into<'a>(
        &mut self,
        arrivals: &mut Vec<Arrival>,
        scratch: &'a mut SubstrateScratch,
    ) -> &'a [PhaseDecision] {
        let decisions = self.inner.step_into(arrivals, scratch);
        self.check();
        decisions
    }

    fn step_into_timed<'a>(
        &mut self,
        arrivals: &mut Vec<Arrival>,
        scratch: &'a mut SubstrateScratch,
        timings: &mut PhaseTimings,
    ) -> &'a [PhaseDecision] {
        let decisions = self.inner.step_into_timed(arrivals, scratch, timings);
        self.check();
        decisions
    }

    fn set_road_closed(&mut self, road: RoadId, closed: bool) {
        self.inner.set_road_closed(road, closed);
        // Restart the drain watermark on any closure transition so a
        // close→reopen→close sequence is not compared across windows.
        if let Some(slot) = self.closed_occ.get_mut(road.index()) {
            *slot = None;
        }
    }

    fn road_closed(&self, road: RoadId) -> bool {
        self.inner.road_closed(road)
    }

    fn road_occupancy(&self, road: RoadId) -> u32 {
        self.inner.road_occupancy(road)
    }

    fn road_entered(&self, road: RoadId) -> u64 {
        self.inner.road_entered(road)
    }

    fn movement_queue_len(&self, intersection: IntersectionId, link: utilbp_core::LinkId) -> u32 {
        self.inner.movement_queue_len(intersection, link)
    }

    fn incoming_queue_len(&self, intersection: IntersectionId, arm: IncomingId) -> u32 {
        self.inner.incoming_queue_len(intersection, arm)
    }

    fn occupancy_snapshot(&self, out: &mut Vec<u32>) {
        self.inner.occupancy_snapshot(out);
    }

    fn backlog_len(&self) -> usize {
        self.inner.backlog_len()
    }

    fn ledger(&self) -> &WaitingLedger {
        self.inner.ledger()
    }

    fn mean_waiting_including_active(&self) -> f64 {
        self.inner.mean_waiting_including_active()
    }

    fn replan_routes(&mut self, replan: &mut RouteRewrite<'_>) -> u64 {
        self.inner.replan_routes(replan)
    }

    fn verify_sensors(&self) -> Result<(), String> {
        self.inner.verify_sensors()
    }

    fn save_state(&self, writer: &mut StateWriter) {
        // The guard's own watermarks (checked-tick count, per-road
        // closure-drain and entered watermarks) are durable: a restored
        // guarded run must keep enforcing monotonicity across the
        // checkpoint boundary exactly as the uninterrupted run does. The
        // occupancy scratch buffer is rewritten every check and is not
        // state.
        writer.push(self.ticks);
        writer.push_usize(self.closed_occ.len());
        for slot in &self.closed_occ {
            match slot {
                Some(occ) => {
                    writer.push_bool(true);
                    writer.push_u32(*occ);
                }
                None => writer.push_bool(false),
            }
        }
        writer.push_usize(self.prev_entered.len());
        for &entered in &self.prev_entered {
            writer.push(entered);
        }
        self.inner.save_state(writer);
    }

    fn load_state(&mut self, reader: &mut StateReader<'_>) -> Result<(), StateError> {
        self.ticks = reader.take()?;
        let closed = reader.take_usize()?;
        self.closed_occ.clear();
        for _ in 0..closed {
            let watermark = if reader.take_bool()? {
                Some(reader.take_u32()?)
            } else {
                None
            };
            self.closed_occ.push(watermark);
        }
        let entered = reader.take_usize()?;
        self.prev_entered.clear();
        for _ in 0..entered {
            self.prev_entered.push(reader.take()?);
        }
        self.inner.load_state(reader)
    }
}

/// Builds the substrate for `backend` over `topology`, one controller per
/// intersection.
///
/// `micro` supplies the full microscopic configuration; the queueing
/// substrate derives its `Δt` and free-flow speed from it (on the
/// paper-exact instant-transfer model), so both backends simulate the
/// same physical setup. This is the one construction path every driver
/// shares — the scenario engine, the experiments runner, and the perf
/// harness all build through here.
///
/// # Panics
///
/// Panics if the controller count does not match the intersection count
/// or the configuration is invalid (see [`QueueSim::new`] /
/// [`MicroSim::new`]).
pub fn build_substrate(
    backend: Backend,
    topology: NetworkTopology,
    controllers: Vec<Box<dyn SignalController>>,
    micro: MicroSimConfig,
) -> Box<dyn TrafficSubstrate> {
    match backend {
        Backend::Queueing => Box::new(QueueSim::new(
            topology,
            controllers,
            QueueSimConfig {
                dt_seconds: micro.dt_seconds,
                free_speed_mps: micro.free_speed_mps,
                ..QueueSimConfig::paper_exact()
            },
        )),
        Backend::Microscopic => Box::new(MicroSim::new(topology, controllers, micro)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use utilbp_core::{Tick, UtilBp};
    use utilbp_netgen::{GridNetwork, GridSpec, Network, Pattern};

    fn controllers(n: usize) -> Vec<Box<dyn SignalController>> {
        (0..n)
            .map(|_| Box::new(UtilBp::paper()) as Box<dyn SignalController>)
            .collect()
    }

    #[test]
    fn both_backends_build_and_step_through_the_trait() {
        let grid = GridNetwork::new(GridSpec::paper());
        let net = Network::from_grid(&grid, Pattern::II);
        for backend in Backend::ALL {
            let n = grid.topology().num_intersections();
            let mut substrate = build_substrate(
                backend,
                grid.topology().clone(),
                controllers(n),
                MicroSimConfig::default(),
            );
            assert_eq!(substrate.backend(), backend);
            let mut demand = utilbp_netgen::DemandGenerator::new(
                &grid,
                utilbp_netgen::DemandConfig::new(utilbp_netgen::DemandSchedule::constant(
                    Pattern::II,
                    utilbp_core::Ticks::new(200),
                )),
                7,
            );
            let mut arrivals = Vec::new();
            let mut scratch = SubstrateScratch::new();
            for k in 0..200u64 {
                arrivals.clear();
                demand.poll_into(&grid, Tick::new(k), &mut arrivals);
                let decisions = substrate.step_into(&mut arrivals, &mut scratch);
                assert_eq!(decisions.len(), n);
                assert!(arrivals.is_empty(), "step must drain the arrivals");
            }
            assert!(substrate.ledger().completed() > 0, "{backend}");
            assert!(substrate.mean_waiting_including_active() >= 0.0);
            // Entered counters: every road entry shows cumulative traffic.
            let total_entered: u64 = net
                .topology()
                .road_ids()
                .map(|r| substrate.road_entered(r))
                .sum();
            assert!(total_entered > 0, "{backend}: entered counters track");
            // Closure round-trips through the trait.
            let internal = net
                .topology()
                .road_ids()
                .find(|&r| net.topology().road(r).is_internal())
                .unwrap();
            substrate.set_road_closed(internal, true);
            assert!(substrate.road_closed(internal));
            substrate.set_road_closed(internal, false);
            assert!(!substrate.road_closed(internal));
        }
    }

    #[test]
    fn guarded_runs_match_unguarded_runs_on_both_backends() {
        // The guard reads, never writes: stepping the same seed through
        // a guarded and an unguarded substrate (with a mid-run closure
        // and reopen) must produce identical ledgers and metrics, and no
        // check may fire on a healthy plant.
        let grid = GridNetwork::new(GridSpec::paper());
        let net = Network::from_grid(&grid, Pattern::II);
        let closed = net
            .topology()
            .road_ids()
            .find(|&r| net.topology().road(r).is_internal())
            .unwrap();
        for backend in Backend::ALL {
            let n = grid.topology().num_intersections();
            let run = |guard: bool| -> (u64, f64, usize) {
                let plant = build_substrate(
                    backend,
                    grid.topology().clone(),
                    controllers(n),
                    MicroSimConfig::default(),
                );
                let mut plain;
                let mut guarded;
                let substrate: &mut dyn TrafficSubstrate = if guard {
                    guarded = InvariantGuard::new(plant);
                    &mut guarded
                } else {
                    plain = plant;
                    &mut plain
                };
                let mut demand = utilbp_netgen::DemandGenerator::new(
                    &grid,
                    utilbp_netgen::DemandConfig::new(utilbp_netgen::DemandSchedule::constant(
                        Pattern::II,
                        utilbp_core::Ticks::new(300),
                    )),
                    11,
                );
                let mut arrivals = Vec::new();
                let mut scratch = SubstrateScratch::new();
                for k in 0..300u64 {
                    if k == 80 {
                        substrate.set_road_closed(closed, true);
                    }
                    if k == 200 {
                        substrate.set_road_closed(closed, false);
                    }
                    arrivals.clear();
                    demand.poll_into(&grid, Tick::new(k), &mut arrivals);
                    substrate.step_into(&mut arrivals, &mut scratch);
                }
                (
                    substrate.ledger().completed(),
                    substrate.mean_waiting_including_active(),
                    substrate.backlog_len(),
                )
            };
            assert_eq!(run(true), run(false), "{backend}");
        }
    }

    #[test]
    fn replan_walk_reports_committed_prefixes() {
        // Every visited vehicle must present a committed prefix that is
        // consistent with its route (at least the next crossing when in
        // the network, nothing when backlogged), and a `None`-returning
        // callback must rewrite nobody.
        let grid = GridNetwork::new(GridSpec::paper());
        for backend in Backend::ALL {
            let n = grid.topology().num_intersections();
            let mut substrate = build_substrate(
                backend,
                grid.topology().clone(),
                controllers(n),
                MicroSimConfig::default(),
            );
            let mut demand = utilbp_netgen::DemandGenerator::new(
                &grid,
                utilbp_netgen::DemandConfig::new(utilbp_netgen::DemandSchedule::constant(
                    Pattern::II,
                    utilbp_core::Ticks::new(150),
                )),
                9,
            );
            let mut arrivals = Vec::new();
            let mut scratch = SubstrateScratch::new();
            for k in 0..150u64 {
                arrivals.clear();
                demand.poll_into(&grid, Tick::new(k), &mut arrivals);
                substrate.step_into(&mut arrivals, &mut scratch);
            }
            let mut visited = 0u64;
            let mut last_id = None;
            let rewritten = substrate.replan_routes(&mut |id, route, fixed| {
                visited += 1;
                assert!(fixed <= route.len() + 1, "{backend}: prefix out of range");
                assert_ne!(
                    Some(id),
                    last_id,
                    "{backend}: each visit is a distinct vehicle"
                );
                last_id = Some(id);
                None
            });
            assert_eq!(rewritten, 0);
            assert!(visited > 0, "{backend}: a loaded network has vehicles");
        }
    }
}
