//! The discrete-time queueing-network simulator.
//!
//! Implements the paper's Section II dynamics exactly, on a whole network:
//!
//! - per-movement FIFO queues `q_i^{i'}(k)` at every intersection
//!   (dedicated turning lanes);
//! - queueing evolution `q(k+1) = q(k) + A(k,k+1) − S(k,k+1)` (Eq. 2);
//! - per-link service bounded by `µ_i^{i'}·Δt`, the movement queue, and the
//!   residual capacity `W_{i'} − q_{i'}` of the outgoing road;
//! - free-flow transit delays between intersections (a delay line per
//!   road), so downstream queues see arrivals later, as in the real
//!   network;
//! - boundary backlogs: vehicles arriving at a full entry road wait
//!   outside the network (their wait counts as queuing time).
//!
//! Controllers are invoked once per mini-slot per intersection with purely
//! local observations, mirroring the decentralized deployment the paper
//! assumes.

use std::collections::VecDeque;
use std::sync::Arc;

use utilbp_core::state::{StateError, StateReader, StateWriter};
use utilbp_core::{
    parallel, parallel::ControllerSlot, IncomingId, LinkId, ObservationBuffer, PhaseDecision,
    PhaseId, QueueObservation, SignalController, Tick, Ticks,
};
use utilbp_metrics::{VehicleId, WaitingLedger};
use utilbp_netgen::{Arrival, IntersectionId, NetworkTopology, RoadId, Route};

/// How vehicles travel between a junction's exit and the next queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransitModel {
    /// Served vehicles join the downstream movement queue at the next
    /// mini-slot — exactly the paper's store-and-forward dynamics
    /// (Eq. 2): `q(k+1) = q(k) + A(k,k+1) − S(k,k+1)`.
    Instant,
    /// Served vehicles spend the road's free-flow travel time in a delay
    /// line before joining the downstream queue (a realism refinement; the
    /// in-transit vehicles still count toward road occupancy and toward
    /// the movement counts controllers observe).
    #[default]
    FreeFlow,
}

/// Configuration of a [`QueueSim`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueSimConfig {
    /// Wall-clock seconds per mini-slot (`Δt`, 1 s in the paper).
    pub dt_seconds: f64,
    /// Free-flow speed used to turn road lengths into transit delays
    /// (13.89 m/s = 50 km/h). Ignored under [`TransitModel::Instant`].
    pub free_speed_mps: f64,
    /// Transit model between junctions.
    pub transit: TransitModel,
}

impl Default for QueueSimConfig {
    fn default() -> Self {
        QueueSimConfig {
            dt_seconds: 1.0,
            free_speed_mps: 13.89,
            transit: TransitModel::FreeFlow,
        }
    }
}

impl QueueSimConfig {
    /// The paper's exact discrete-time model: instantaneous transfer into
    /// downstream queues.
    pub fn paper_exact() -> Self {
        QueueSimConfig {
            transit: TransitModel::Instant,
            ..QueueSimConfig::default()
        }
    }
}

/// A vehicle waiting in a movement queue.
#[derive(Debug, Clone)]
struct QueuedVehicle {
    id: VehicleId,
    route: Arc<Route>,
    /// Index of the *current* hop (the intersection this queue belongs to).
    hop: usize,
    joined: Tick,
    /// Waiting ticks accumulated at *previous* queues (the dwell in this
    /// queue is credited when the vehicle is served). Flushed to the
    /// ledger once, at journey completion.
    waited: u64,
}

/// A vehicle in free-flow transit along a road.
#[derive(Debug, Clone)]
struct TransitVehicle {
    id: VehicleId,
    route: Arc<Route>,
    /// Index of the hop at the road's downstream end (meaningless for
    /// boundary exit roads).
    hop: usize,
    arrives: Tick,
    /// Waiting ticks accumulated so far, riding along to the next queue.
    waited: u64,
}

#[derive(Debug, Clone, Default)]
struct RoadState {
    /// Whether the road is closed to *entering* traffic (scenario events).
    /// Vehicles already on a closed road keep moving and may leave it;
    /// nothing new is served or injected onto it while closed.
    closed: bool,
    /// Vehicles physically on the road: in transit plus queued at its head.
    occupancy: u32,
    /// Cumulative vehicles that have entered the road (injections,
    /// backlog drains, junction transfers) — a monotone counter that lets
    /// callers observe where traffic actually went (e.g. detour roads
    /// after a replanned closure).
    entered: u64,
    /// Vehicles queued at the road's downstream junction (the `q_{i'}`
    /// the controllers observe) — maintained incrementally as vehicles
    /// join and leave the head queues, so the outgoing-road sensor is an
    /// O(1) read instead of a per-arm sum.
    queued: u32,
    /// Delay line, FIFO by arrival tick.
    transit: VecDeque<TransitVehicle>,
    /// Transit delay in ticks.
    travel: Ticks,
    /// Storage capacity `W` (copied from the topology for borrow-free
    /// access).
    capacity: u32,
    /// Destination intersection index, if the road feeds one.
    dest_intersection: Option<usize>,
}

#[derive(Debug, Clone)]
struct IntersectionState {
    /// One FIFO per feasible link, indexed by `LinkId`.
    queues: Vec<VecDeque<QueuedVehicle>>,
    /// Fractional service credit per link (supports non-integer `µ·Δt`).
    credit: Vec<f64>,
}

/// Precomputed per-link service lookup (avoids re-borrowing the topology in
/// the hot loop).
#[derive(Debug, Clone, Copy)]
struct LinkService {
    mu: f64,
    in_road: RoadId,
    out_road: RoadId,
}

/// Cumulative wall-clock seconds attributed to each section of the
/// queueing step pipeline by [`QueueSim::step_into_timed`]. Fields are
/// **added onto** across ticks, so one instance accumulates a whole
/// run's profile.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StepPhaseTimings {
    /// Transit arrivals landing on queues + boundary backlog drains.
    pub transit: f64,
    /// Sensing (observation rewrite) + controller decisions.
    pub decide: f64,
    /// Serving activated links.
    pub serve: f64,
    /// Exogenous arrival injection + report bookkeeping.
    pub inject: f64,
}

impl StepPhaseTimings {
    /// Total attributed seconds.
    pub fn total(&self) -> f64 {
        self.transit + self.decide + self.serve + self.inject
    }
}

/// Lap timer for [`QueueSim::step_into_timed`]: when disabled (`None`
/// timings) every call is a no-op the optimizer removes, so the untimed
/// hot path pays nothing.
struct SlotStopwatch<'a> {
    timings: Option<&'a mut StepPhaseTimings>,
    last: Option<std::time::Instant>,
}

impl<'a> SlotStopwatch<'a> {
    fn new(timings: Option<&'a mut StepPhaseTimings>) -> Self {
        let last = timings.as_ref().map(|_| std::time::Instant::now());
        SlotStopwatch { timings, last }
    }

    /// Adds the time since the previous lap onto the picked field.
    fn lap(&mut self, pick: fn(&mut StepPhaseTimings) -> &mut f64) {
        if let (Some(timings), Some(last)) = (self.timings.as_deref_mut(), self.last.as_mut()) {
            let now = std::time::Instant::now();
            *pick(timings) += now.duration_since(*last).as_secs_f64();
            *last = now;
        }
    }
}

/// What happened during one simulation step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepReport {
    /// The instant that was simulated.
    pub tick: Tick,
    /// The decision applied at each intersection, indexed by
    /// `IntersectionId`.
    pub decisions: Vec<PhaseDecision>,
    /// Vehicles served (moved through a junction) this step.
    pub served: u32,
    /// Vehicles that completed their journey this step.
    pub completed: u32,
    /// Vehicles injected into the network this step (excluding those pushed
    /// to a boundary backlog).
    pub injected: u32,
}

impl StepReport {
    /// An empty report, ready to be passed to
    /// [`QueueSim::step_into`] — its buffers are reused across ticks.
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

/// The mesoscopic network simulator.
///
/// # Examples
///
/// ```
/// use utilbp_core::{Tick, Ticks, UtilBp};
/// use utilbp_netgen::{
///     DemandConfig, DemandGenerator, DemandSchedule, GridNetwork, GridSpec,
///     Pattern,
/// };
/// use utilbp_queueing::{QueueSim, QueueSimConfig};
///
/// let grid = GridNetwork::new(GridSpec::paper());
/// let controllers = (0..9)
///     .map(|_| Box::new(UtilBp::paper()) as Box<dyn utilbp_core::SignalController>)
///     .collect();
/// let mut sim = QueueSim::new(
///     grid.topology().clone(),
///     controllers,
///     QueueSimConfig::default(),
/// );
/// let mut demand = DemandGenerator::new(
///     &grid,
///     DemandConfig::new(DemandSchedule::constant(Pattern::II, Ticks::new(300))),
///     7,
/// );
/// for k in 0..300 {
///     let arrivals = demand.poll(&grid, Tick::new(k));
///     sim.step(arrivals);
/// }
/// assert!(sim.ledger().completed() > 0);
/// ```
pub struct QueueSim {
    topology: NetworkTopology,
    config: QueueSimConfig,
    controllers: Vec<ControllerSlot>,
    intersections: Vec<IntersectionState>,
    roads: Vec<RoadState>,
    /// Reusable per-step observation scratch (no steady-state allocation).
    obs_buf: ObservationBuffer,
    /// `[intersection][link]` service lookup.
    links: Vec<Vec<LinkService>>,
    /// `[intersection][phase]` → activated link ids.
    phase_links: Vec<Vec<Vec<LinkId>>>,
    /// `[intersection][link]` → vehicles in transit on the incoming road
    /// destined for this movement (they count toward the controller's
    /// `q_i^{i'}` observation — every vehicle on a road is queued in the
    /// paper's store-and-forward model).
    transit_by_link: Vec<Vec<u32>>,
    /// Vehicles waiting outside full boundary entry roads, FIFO.
    backlogs: Vec<VecDeque<(VehicleId, Arc<Route>, Tick)>>,
    ledger: WaitingLedger,
    now: Tick,
    total_served: u64,
}

impl std::fmt::Debug for QueueSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueueSim")
            .field("now", &self.now)
            .field("intersections", &self.intersections.len())
            .field("roads", &self.roads.len())
            .field("total_served", &self.total_served)
            .field(
                "controllers",
                &self
                    .controllers
                    .iter()
                    .map(|slot| slot.controller.name())
                    .collect::<Vec<_>>(),
            )
            .finish_non_exhaustive()
    }
}

impl QueueSim {
    /// Creates a simulator over `topology`, one controller per
    /// intersection (indexed by [`IntersectionId`]).
    ///
    /// # Panics
    ///
    /// Panics if the controller count does not match the intersection
    /// count, or if `config` has non-positive `dt_seconds` /
    /// `free_speed_mps`.
    pub fn new(
        topology: NetworkTopology,
        controllers: Vec<Box<dyn SignalController>>,
        config: QueueSimConfig,
    ) -> Self {
        assert_eq!(
            controllers.len(),
            topology.num_intersections(),
            "one controller per intersection"
        );
        assert!(
            config.dt_seconds.is_finite() && config.dt_seconds > 0.0,
            "dt_seconds must be positive"
        );
        assert!(
            config.free_speed_mps.is_finite() && config.free_speed_mps > 0.0,
            "free_speed_mps must be positive"
        );

        let mut intersections = Vec::with_capacity(topology.num_intersections());
        let mut links = Vec::with_capacity(topology.num_intersections());
        let mut phase_links = Vec::with_capacity(topology.num_intersections());
        let mut transit_by_link = Vec::with_capacity(topology.num_intersections());
        for i in topology.intersection_ids() {
            let node = topology.intersection(i);
            let layout = node.layout();
            intersections.push(IntersectionState {
                queues: vec![VecDeque::new(); layout.num_links()],
                credit: vec![0.0; layout.num_links()],
            });
            transit_by_link.push(vec![0u32; layout.num_links()]);
            links.push(
                layout
                    .link_ids()
                    .map(|lid| {
                        let link = layout.link(lid);
                        LinkService {
                            mu: link.service_rate(),
                            in_road: node.incoming_road(link.from()),
                            out_road: node.outgoing_road(link.to()),
                        }
                    })
                    .collect(),
            );
            phase_links.push(
                layout
                    .phase_ids()
                    .map(|p| layout.phase(p).links().to_vec())
                    .collect(),
            );
        }

        let roads = topology
            .road_ids()
            .map(|r| {
                let road = topology.road(r);
                let travel = match config.transit {
                    TransitModel::Instant => Ticks::ZERO,
                    TransitModel::FreeFlow => {
                        let ticks = (road.length_m() / config.free_speed_mps / config.dt_seconds)
                            .ceil() as u64;
                        Ticks::new(ticks.max(1))
                    }
                };
                RoadState {
                    closed: false,
                    occupancy: 0,
                    entered: 0,
                    queued: 0,
                    transit: VecDeque::new(),
                    travel,
                    capacity: road.capacity(),
                    dest_intersection: road.dest().map(|(i, _)| i.index()),
                }
            })
            .collect();
        let backlogs = vec![VecDeque::new(); topology.num_roads()];

        let mut obs_buf = ObservationBuffer::new();
        obs_buf.shape_for(
            topology
                .intersection_ids()
                .map(|i| topology.intersection(i).layout()),
        );

        QueueSim {
            topology,
            config,
            controllers: ControllerSlot::wrap_all(controllers),
            intersections,
            roads,
            obs_buf,
            links,
            phase_links,
            transit_by_link,
            backlogs,
            ledger: WaitingLedger::new(),
            now: Tick::ZERO,
            total_served: 0,
        }
    }

    /// The simulated network.
    pub fn topology(&self) -> &NetworkTopology {
        &self.topology
    }

    /// The simulator configuration.
    pub fn config(&self) -> &QueueSimConfig {
        &self.config
    }

    /// The current instant (the next tick to be simulated).
    pub fn now(&self) -> Tick {
        self.now
    }

    /// Per-vehicle journey accounting and completed-vehicle waiting
    /// statistics. Active vehicles carry their waiting in simulator-side
    /// accumulators; use
    /// [`mean_waiting_including_active`](Self::mean_waiting_including_active)
    /// for the paper's headline metric.
    pub fn ledger(&self) -> &WaitingLedger {
        &self.ledger
    }

    /// Average waiting time per vehicle including vehicles still in the
    /// network — the paper's "average queuing time of a vehicle". Folds
    /// the per-vehicle accumulators carried by queued and in-transit
    /// vehicles into the ledger's completed statistics at query time;
    /// vehicles still waiting outside a full boundary entry contribute
    /// their backlog dwell so far (`now − since`, the amount that will be
    /// credited when they are admitted), matching the microscopic
    /// substrate — without it, congested runs would *understate* waiting
    /// by exactly their stuck vehicles.
    pub fn mean_waiting_including_active(&self) -> f64 {
        let now = self.now;
        let queued = self
            .intersections
            .iter()
            .flat_map(|i| i.queues.iter().flat_map(|q| q.iter().map(|v| v.waited)));
        let transit = self
            .roads
            .iter()
            .flat_map(|r| r.transit.iter().map(|v| v.waited));
        let backlogged = self.backlogs.iter().flat_map(move |b| {
            b.iter()
                .map(move |&(_, _, since)| now.saturating_since(since).count())
        });
        self.ledger
            .mean_waiting_including_active(queued.chain(transit).chain(backlogged))
    }

    /// Total vehicles served through junctions so far.
    pub fn total_served(&self) -> u64 {
        self.total_served
    }

    /// The number of vehicles physically queued at the junction head for
    /// `link` at `intersection` (the servable part of `q_i^{i'}`).
    ///
    /// # Panics
    ///
    /// Panics if the ids are out of range.
    pub fn movement_queue_len(&self, intersection: IntersectionId, link: LinkId) -> u32 {
        self.intersections[intersection.index()].queues[link.index()].len() as u32
    }

    /// The full movement count `q_i^{i'}` a controller observes: queued
    /// vehicles plus those still in transit on the incoming road but
    /// destined for this movement. In the paper's store-and-forward model
    /// every vehicle on a road is queued; under
    /// [`TransitModel::Instant`] this equals [`Self::movement_queue_len`]
    /// at decision time.
    ///
    /// # Panics
    ///
    /// Panics if the ids are out of range.
    pub fn movement_count(&self, intersection: IntersectionId, link: LinkId) -> u32 {
        self.movement_queue_len(intersection, link)
            + self.transit_by_link[intersection.index()][link.index()]
    }

    /// Total queue `q_i` (Eq. 1) at an incoming arm of an intersection —
    /// the quantity plotted in the paper's Fig. 5.
    ///
    /// # Panics
    ///
    /// Panics if the ids are out of range.
    pub fn incoming_queue_len(&self, intersection: IntersectionId, arm: IncomingId) -> u32 {
        let layout = self.topology.intersection(intersection).layout();
        layout
            .links_from(arm)
            .iter()
            .map(|&l| self.movement_queue_len(intersection, l))
            .sum()
    }

    /// The current occupancy of a road (transit + queued at its head).
    ///
    /// # Panics
    ///
    /// Panics if `road` is out of range.
    pub fn road_occupancy(&self, road: RoadId) -> u32 {
        self.roads[road.index()].occupancy
    }

    /// Cumulative vehicles that have entered `road` since the start
    /// (injections, backlog drains, and junction transfers).
    ///
    /// # Panics
    ///
    /// Panics if `road` is out of range.
    pub fn road_entered(&self, road: RoadId) -> u64 {
        self.roads[road.index()].entered
    }

    /// The number of vehicles *queued* on a road (waiting at its
    /// downstream junction; zero for boundary exit roads) — the `q_{i'}`
    /// the controllers observe, an O(1) read of the road's incrementally
    /// maintained counter. Under [`TransitModel::Instant`] this equals
    /// the occupancy.
    ///
    /// # Panics
    ///
    /// Panics if `road` is out of range.
    pub fn road_queue(&self, road: RoadId) -> u32 {
        self.roads[road.index()].queued
    }

    /// Vehicles currently waiting outside full boundary entry roads.
    pub fn backlog_len(&self) -> usize {
        self.backlogs.iter().map(|b| b.len()).sum()
    }

    /// Closes or reopens a road (a disruption event). A closed road admits
    /// no new traffic — junctions do not serve vehicles onto it and
    /// boundary arrivals on a closed entry road wait in the backlog — but
    /// vehicles already on it keep moving and may leave it, exactly like a
    /// street closed at its upstream end.
    ///
    /// # Panics
    ///
    /// Panics if `road` is out of range.
    pub fn set_road_closed(&mut self, road: RoadId, closed: bool) {
        self.roads[road.index()].closed = closed;
    }

    /// Whether `road` is currently closed to entering traffic.
    ///
    /// # Panics
    ///
    /// Panics if `road` is out of range.
    pub fn road_closed(&self, road: RoadId) -> bool {
        self.roads[road.index()].closed
    }

    /// The queue observation a controller at `intersection` would see now.
    ///
    /// Allocates a fresh observation; the step pipeline itself uses
    /// [`observe_into`](Self::observe_into) over a reused
    /// [`ObservationBuffer`].
    ///
    /// # Panics
    ///
    /// Panics if `intersection` is out of range.
    pub fn observe(&self, intersection: IntersectionId) -> QueueObservation {
        let layout = self.topology.intersection(intersection).layout();
        let mut obs = QueueObservation::zeros(layout);
        self.observe_into(intersection, &mut obs);
        obs
    }

    /// Writes the observation for `intersection` into `obs` (shaped for
    /// the intersection's layout) without allocating. All reads are O(1)
    /// per field: movement queues are deque lengths, outgoing occupancies
    /// the incremental per-road queue counters.
    ///
    /// # Panics
    ///
    /// Panics if `intersection` is out of range or `obs` has the wrong
    /// shape.
    pub fn observe_into(&self, intersection: IntersectionId, obs: &mut QueueObservation) {
        let node = self.topology.intersection(intersection);
        let layout = node.layout();
        for link in layout.link_ids() {
            obs.set_movement(link, self.movement_queue_len(intersection, link));
        }
        for out in layout.outgoing_ids() {
            let road = node.outgoing_road(out);
            obs.set_outgoing(out, self.road_queue(road));
        }
    }

    /// Validates the incremental-sensing invariant: every road's `queued`
    /// counter must equal the sum of the movement queues at its
    /// downstream arm. Debug/test facility backing the regression suite.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first divergent road.
    pub fn verify_sensors(&self) -> Result<(), String> {
        for r in self.topology.road_ids() {
            let expected = match self.topology.road(r).dest() {
                Some((i, arm)) => self
                    .topology
                    .intersection(i)
                    .layout()
                    .links_from(arm)
                    .iter()
                    .map(|&l| self.movement_queue_len(i, l))
                    .sum(),
                None => 0,
            };
            if self.roads[r.index()].queued != expected {
                return Err(format!(
                    "road {r}: incremental queued {} != rescan {expected}",
                    self.roads[r.index()].queued
                ));
            }
        }
        Ok(())
    }

    /// Simulates one mini-slot, injecting `arrivals` (produced for this
    /// tick by a demand generator).
    ///
    /// Step order within the slot: transit arrivals join queues → boundary
    /// backlogs drain → controllers decide on the state `Q(k)` → activated
    /// links serve → new exogenous arrivals are injected (Eq. 2's
    /// `A(k, k+1)`).
    pub fn step(&mut self, arrivals: Vec<Arrival>) -> StepReport {
        let mut arrivals = arrivals;
        let mut report = StepReport::empty();
        self.step_into(&mut arrivals, &mut report);
        report
    }

    /// Allocation-free variant of [`step`](Self::step): drains `arrivals`
    /// and overwrites `report` in place, reusing its buffers. This is the
    /// steady-state hot path — callers that reuse the same `Vec<Arrival>`
    /// and [`StepReport`] across ticks incur no per-tick heap allocation
    /// from the stepping machinery.
    pub fn step_into(&mut self, arrivals: &mut Vec<Arrival>, report: &mut StepReport) {
        self.step_impl(arrivals, report, None);
    }

    /// [`step_into`](Self::step_into) with per-section wall-clock
    /// attribution: each pipeline section's elapsed time is **added**
    /// onto the matching [`StepPhaseTimings`] field. Timing reads are
    /// measurements, not inputs — the simulated outcome is identical to
    /// the untimed path.
    pub fn step_into_timed(
        &mut self,
        arrivals: &mut Vec<Arrival>,
        report: &mut StepReport,
        timings: &mut StepPhaseTimings,
    ) {
        self.step_impl(arrivals, report, Some(timings));
    }

    fn step_impl(
        &mut self,
        arrivals: &mut Vec<Arrival>,
        report: &mut StepReport,
        timings: Option<&mut StepPhaseTimings>,
    ) {
        let mut watch = SlotStopwatch::new(timings);
        let now = self.now;

        let completed = self.move_transit_arrivals(now);
        self.drain_backlogs(now);
        watch.lap(|t| &mut t.transit);

        // Sense: rewrite the reusable observation buffer (O(1) reads per
        // field from deque lengths and the incremental road counters).
        let mut obs_buf = std::mem::take(&mut self.obs_buf);
        for i in self.topology.intersection_ids() {
            self.observe_into(i, obs_buf.get_mut(i.index()));
        }

        // Decide, per intersection, from purely local observations — one
        // controller per slot.
        {
            let topology = &self.topology;
            parallel::decide_all(&mut self.controllers, &obs_buf, now, |idx| {
                topology
                    .intersection(IntersectionId::new(idx as u32))
                    .layout()
            });
        }
        self.obs_buf = obs_buf;
        watch.lap(|t| &mut t.decide);

        // Serve activated links.
        let mut served = 0u32;
        for i in 0..self.controllers.len() {
            if let PhaseDecision::Control(phase) = self.controllers[i].decision {
                served += self.serve_phase(i, phase, now);
            }
        }
        watch.lap(|t| &mut t.serve);

        // Inject this slot's exogenous arrivals.
        let mut injected = 0u32;
        for arrival in arrivals.drain(..) {
            if self.inject(arrival, now) {
                injected += 1;
            }
        }

        self.total_served += served as u64;
        self.now = now.next();
        report.tick = now;
        report.decisions.clear();
        report
            .decisions
            .extend(self.controllers.iter().map(|slot| slot.decision));
        report.served = served;
        report.completed = completed;
        report.injected = injected;
        watch.lap(|t| &mut t.inject);
    }

    /// Runs `horizon` steps with no exogenous demand (useful to drain the
    /// network at the end of an experiment).
    pub fn run_empty(&mut self, horizon: Ticks) {
        for _ in 0..horizon.count() {
            self.step(Vec::new());
        }
    }

    /// Moves vehicles whose transit delay has elapsed into their movement
    /// queue (internal roads) or out of the network (exit roads); returns
    /// the number of journeys completed.
    fn move_transit_arrivals(&mut self, now: Tick) -> u32 {
        let mut completed = 0u32;
        for r in 0..self.roads.len() {
            let dest = self.roads[r].dest_intersection;
            loop {
                match self.roads[r].transit.front() {
                    Some(front) if front.arrives <= now => {}
                    _ => break,
                }
                let v = self.roads[r].transit.pop_front().expect("checked front");
                match dest {
                    Some(intersection) => {
                        let (_, link) = v
                            .route
                            .hop(v.hop)
                            .expect("route hop exists for internal road");
                        self.transit_by_link[intersection][link.index()] =
                            self.transit_by_link[intersection][link.index()].saturating_sub(1);
                        self.intersections[intersection].queues[link.index()].push_back(
                            QueuedVehicle {
                                id: v.id,
                                route: v.route,
                                hop: v.hop,
                                joined: now,
                                waited: v.waited,
                            },
                        );
                        // Occupancy unchanged: the queue is the head of the
                        // same road. The queued counter tracks the join.
                        self.roads[r].queued += 1;
                    }
                    None => {
                        // Boundary exit: the vehicle leaves the network,
                        // flushing its accumulated waiting to the ledger.
                        self.roads[r].occupancy = self.roads[r].occupancy.saturating_sub(1);
                        self.ledger.complete(v.id, now, v.waited);
                        completed += 1;
                    }
                }
            }
        }
        completed
    }

    /// Moves backlogged vehicles onto their entry road while space lasts.
    fn drain_backlogs(&mut self, now: Tick) {
        for r in 0..self.roads.len() {
            while !self.backlogs[r].is_empty()
                && !self.roads[r].closed
                && self.roads[r].occupancy < self.roads[r].capacity
            {
                let (id, route, queued_since) =
                    self.backlogs[r].pop_front().expect("checked non-empty");
                // The whole backlog dwell counts as waiting, credited to
                // the vehicle's accumulator in one shot.
                let waited = now.saturating_since(queued_since).count();
                self.enter_road(RoadId::new(r as u32), id, route, 0, now, waited);
            }
        }
    }

    /// Serves every link of `phase` at intersection index `i`; returns the
    /// number of vehicles served.
    fn serve_phase(&mut self, i: usize, phase: PhaseId, now: Tick) -> u32 {
        let dt = self.config.dt_seconds;
        let mut served = 0u32;
        let link_ids = std::mem::take(&mut self.phase_links[i][phase.index()]);

        for &link_id in &link_ids {
            let service = self.links[i][link_id.index()];
            // Fractional service credit supports µ·Δt < 1. The cap keeps
            // the per-slot budget at the service rate: a link cannot bank
            // green time it could not use (no queue or no space) to serve
            // a burst above µ later.
            let mu_dt = service.mu * dt;
            let credit = &mut self.intersections[i].credit[link_id.index()];
            *credit = (*credit + mu_dt).min(mu_dt.max(1.0));
            let mut budget = self.intersections[i].credit[link_id.index()].floor() as u32;

            while budget > 0 {
                let out = &self.roads[service.out_road.index()];
                if out.closed || out.occupancy >= out.capacity {
                    break;
                }
                let Some(vehicle) = self.intersections[i].queues[link_id.index()].pop_front()
                else {
                    break;
                };
                self.intersections[i].credit[link_id.index()] -= 1.0;
                budget -= 1;
                served += 1;

                // Queue dwell is waiting time, accumulated on the vehicle.
                let waited = vehicle.waited + now.saturating_since(vehicle.joined).count();
                // Leave the incoming road…
                let in_road = &mut self.roads[service.in_road.index()];
                in_road.occupancy = in_road.occupancy.saturating_sub(1);
                in_road.queued = in_road.queued.saturating_sub(1);
                // …and enter the outgoing one toward the next hop.
                self.enter_road(
                    service.out_road,
                    vehicle.id,
                    vehicle.route,
                    vehicle.hop + 1,
                    now,
                    waited,
                );
            }
        }
        self.phase_links[i][phase.index()] = link_ids;
        served
    }

    /// Puts a vehicle onto `road` with `waited` accumulated waiting ticks,
    /// scheduling its transit arrival.
    fn enter_road(
        &mut self,
        road: RoadId,
        id: VehicleId,
        route: Arc<Route>,
        hop: usize,
        now: Tick,
        waited: u64,
    ) {
        let state = &mut self.roads[road.index()];
        state.occupancy += 1;
        state.entered += 1;
        let arrives = now + state.travel;
        if let Some(i) = state.dest_intersection {
            let (_, link) = route.hop(hop).expect("internal road implies a further hop");
            self.transit_by_link[i][link.index()] += 1;
        }
        state.transit.push_back(TransitVehicle {
            id,
            route,
            hop,
            arrives,
            waited,
        });
    }

    /// Visits every vehicle that still has junction crossings ahead of it
    /// and lets `replan` rewrite its remaining route (en-route
    /// replanning; part of the `TrafficSubstrate` contract in
    /// `utilbp-substrate`).
    ///
    /// The walk order is deterministic: movement queues in intersection /
    /// link / FIFO order, then transit delay lines in road / FIFO order,
    /// then backlogs in road / FIFO order. The callback receives the
    /// vehicle's id, its route, and the number of committed leading hops —
    /// `hop + 1` for queued and in-transit vehicles, whose movement queue
    /// (and the incremental `transit_by_link` counter) is bound to the
    /// cursor's movement, and `0` for backlogged vehicles that have not
    /// entered yet. A returned replacement must preserve exactly that
    /// prefix. Returns the number of vehicles rewritten; draws no
    /// randomness.
    pub fn replan_routes(&mut self, replan: &mut utilbp_netgen::RouteRewrite<'_>) -> u64 {
        let mut diverted = 0u64;
        for intersection in &mut self.intersections {
            for queue in &mut intersection.queues {
                for v in queue.iter_mut() {
                    if let Some(route) = replan(v.id, &v.route, v.hop + 1) {
                        v.route = route;
                        diverted += 1;
                    }
                }
            }
        }
        for road in &mut self.roads {
            // Exit-road transit: the journey has no further crossings.
            if road.dest_intersection.is_none() {
                continue;
            }
            for v in road.transit.iter_mut() {
                if let Some(route) = replan(v.id, &v.route, v.hop + 1) {
                    v.route = route;
                    diverted += 1;
                }
            }
        }
        for backlog in &mut self.backlogs {
            for (id, route, _) in backlog.iter_mut() {
                if let Some(new_route) = replan(*id, route, 0) {
                    *route = new_route;
                    diverted += 1;
                }
            }
        }
        diverted
    }

    /// Fills `out` with every road's current occupancy, indexed by
    /// [`RoadId`] (the `TrafficSubstrate` occupancy-snapshot contract).
    /// O(roads) reads of the incrementally maintained counters.
    pub fn occupancy_snapshot(&self, out: &mut Vec<u32>) {
        out.clear();
        out.extend(self.roads.iter().map(|r| r.occupancy));
    }

    /// Serializes the full dynamic state into a durable word stream:
    /// clock, counters, per-road flags/counters/transit lines, movement
    /// queues with fractional credits, boundary backlogs, the waiting
    /// ledger, and every controller's state (in intersection order).
    ///
    /// Construction-time shape (topology, service lookups, phase→link
    /// tables, transit delays) and intra-step scratch (the observation
    /// buffer, per-slot decisions — rewritten by the next step's decide
    /// phase) are *not* state and are not written. The incremental
    /// `transit_by_link` counters are derived from the transit lines and
    /// are recomputed on load.
    pub fn save_state(&self, writer: &mut StateWriter) {
        writer.push(self.now.index());
        writer.push(self.total_served);
        writer.push_usize(self.roads.len());
        for road in &self.roads {
            writer.push_bool(road.closed);
            writer.push_u32(road.occupancy);
            writer.push(road.entered);
            writer.push_u32(road.queued);
            writer.push_usize(road.transit.len());
            for v in &road.transit {
                writer.push(v.id.raw());
                v.route.save_state(writer);
                writer.push_usize(v.hop);
                writer.push(v.arrives.index());
                writer.push(v.waited);
            }
        }
        writer.push_usize(self.intersections.len());
        for inter in &self.intersections {
            writer.push_usize(inter.queues.len());
            for queue in &inter.queues {
                writer.push_usize(queue.len());
                for v in queue {
                    writer.push(v.id.raw());
                    v.route.save_state(writer);
                    writer.push_usize(v.hop);
                    writer.push(v.joined.index());
                    writer.push(v.waited);
                }
            }
            for &credit in &inter.credit {
                writer.push_f64(credit);
            }
        }
        for backlog in &self.backlogs {
            writer.push_usize(backlog.len());
            for (id, route, since) in backlog {
                writer.push(id.raw());
                route.save_state(writer);
                writer.push(since.index());
            }
        }
        self.ledger.save_state(writer);
        for slot in &self.controllers {
            slot.controller.save_state(writer);
        }
    }

    /// Restores the state written by [`save_state`](Self::save_state)
    /// into a simulator built over the *same* topology, configuration,
    /// and controller stack. The restored simulator continues
    /// bit-identically to the original.
    ///
    /// # Errors
    ///
    /// Returns a [`StateError`] if the stream is truncated, or if the
    /// saved shape (road / intersection / movement-queue counts) does not
    /// match this simulator's topology.
    pub fn load_state(&mut self, reader: &mut StateReader<'_>) -> Result<(), StateError> {
        self.now = Tick::new(reader.take()?);
        self.total_served = reader.take()?;

        let roads = reader.take_usize()?;
        if roads != self.roads.len() {
            return Err(StateError::Invalid {
                what: "queueing road count",
                word: roads as u64,
            });
        }
        for road in &mut self.roads {
            road.closed = reader.take_bool()?;
            road.occupancy = reader.take_u32()?;
            road.entered = reader.take()?;
            road.queued = reader.take_u32()?;
            let transit = reader.take_usize()?;
            road.transit.clear();
            for _ in 0..transit {
                let id = VehicleId::new(reader.take()?);
                let route = Arc::new(Route::load_state(reader)?);
                let hop = reader.take_usize()?;
                let arrives = Tick::new(reader.take()?);
                let waited = reader.take()?;
                road.transit.push_back(TransitVehicle {
                    id,
                    route,
                    hop,
                    arrives,
                    waited,
                });
            }
        }

        let intersections = reader.take_usize()?;
        if intersections != self.intersections.len() {
            return Err(StateError::Invalid {
                what: "queueing intersection count",
                word: intersections as u64,
            });
        }
        for inter in &mut self.intersections {
            let queues = reader.take_usize()?;
            if queues != inter.queues.len() {
                return Err(StateError::Invalid {
                    what: "queueing movement queue count",
                    word: queues as u64,
                });
            }
            for queue in &mut inter.queues {
                let len = reader.take_usize()?;
                queue.clear();
                for _ in 0..len {
                    let id = VehicleId::new(reader.take()?);
                    let route = Arc::new(Route::load_state(reader)?);
                    let hop = reader.take_usize()?;
                    let joined = Tick::new(reader.take()?);
                    let waited = reader.take()?;
                    queue.push_back(QueuedVehicle {
                        id,
                        route,
                        hop,
                        joined,
                        waited,
                    });
                }
            }
            for credit in &mut inter.credit {
                *credit = reader.take_f64()?;
            }
        }

        for backlog in &mut self.backlogs {
            let len = reader.take_usize()?;
            backlog.clear();
            for _ in 0..len {
                let id = VehicleId::new(reader.take()?);
                let route = Arc::new(Route::load_state(reader)?);
                let since = Tick::new(reader.take()?);
                backlog.push_back((id, route, since));
            }
        }

        self.ledger = WaitingLedger::load_state(reader)?;
        for slot in &mut self.controllers {
            slot.controller.load_state(reader)?;
        }

        // Rebuild the derived in-transit movement counters from the
        // restored delay lines.
        for counts in &mut self.transit_by_link {
            counts.iter_mut().for_each(|c| *c = 0);
        }
        for road in &self.roads {
            let Some(i) = road.dest_intersection else {
                continue;
            };
            for v in &road.transit {
                let (_, link) = v.route.hop(v.hop).ok_or(StateError::Invalid {
                    what: "queueing transit hop",
                    word: v.hop as u64,
                })?;
                self.transit_by_link[i][link.index()] += 1;
            }
        }
        Ok(())
    }

    /// Injects an exogenous arrival; returns `false` if it was backlogged.
    fn inject(&mut self, arrival: Arrival, now: Tick) -> bool {
        let road = arrival.route.entry();
        let route = arrival.route;
        self.ledger.enter(arrival.vehicle, now);
        if !self.roads[road.index()].closed
            && self.roads[road.index()].occupancy < self.roads[road.index()].capacity
        {
            self.enter_road(road, arrival.vehicle, route, 0, now, 0);
            true
        } else {
            self.backlogs[road.index()].push_back((arrival.vehicle, route, now));
            false
        }
    }
}
