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
    decide, decide::ControllerSlot, IncomingId, LinkId, ObservationBuffer, OutgoingId,
    PhaseDecision, PhaseId, QueueObservation, SignalController, Tick, Ticks,
};
use utilbp_metrics::{VehicleId, WaitingLedger};
use utilbp_netgen::{Arrival, IntersectionId, NetworkTopology, RoadId, Route};
use utilbp_substrate::{Backend, StepReport, TrafficSubstrate};
use utilbp_telemetry::{PhaseStopwatch, Section, TickProfiler};

/// How vehicles travel between a junction's exit and the next queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransitModel {
    /// Served vehicles join the downstream movement queue at the next
    /// mini-slot — exactly the paper's store-and-forward dynamics
    /// (Eq. 2): `q(k+1) = q(k) + A(k,k+1) − S(k,k+1)`.
    Instant,
    /// Served vehicles spend the road's free-flow travel time in a delay
    /// line before joining the downstream queue (a realism refinement).
    /// In-transit vehicles count toward road occupancy, but not toward
    /// what controllers observe: [`QueueSim::observe`] reads only the
    /// movement queues' lengths and the roads' queued counts.
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
    /// The tick the vehicle entered the network (its arrival, before any
    /// backlog dwell): its journey time runs from here.
    entered: Tick,
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
    /// The tick the vehicle entered the network.
    entered: Tick,
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
    /// The intersection arm feeding the road, if any: its observation
    /// reads the road's `queued` counter as that arm's outgoing
    /// occupancy.
    source: Option<(IntersectionId, OutgoingId)>,
}

/// One feasible link of one intersection, in the flat per-link table
/// built once at construction (links of intersection `i` occupy
/// `link_off[i]..link_off[i + 1]`, in `LinkId` order).
#[derive(Debug, Clone, Copy)]
struct LinkService {
    /// Service credit a green tick earns (`µ·Δt`).
    mu_dt: f64,
    /// The incoming road.
    in_road: u32,
    /// The outgoing road.
    out_road: u32,
}

/// A set of road or intersection indices as a bitset. Ascending
/// iteration ([`next_from`](Self::next_from)) is index order, so a pass
/// over the members does its work in the same order as a pass over
/// every index.
#[derive(Debug)]
struct IndexSet {
    words: Vec<u64>,
}

impl IndexSet {
    fn new(len: usize) -> Self {
        IndexSet {
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Adds every member of `words`, a bitset of the same length.
    fn union_words(&mut self, words: &[u64]) {
        for (mine, &theirs) in self.words.iter_mut().zip(words) {
            *mine |= theirs;
        }
    }

    fn insert(&mut self, road: usize) {
        self.words[road / 64] |= 1 << (road % 64);
    }

    fn remove(&mut self, road: usize) {
        self.words[road / 64] &= !(1 << (road % 64));
    }

    fn contains(&self, road: usize) -> bool {
        self.words[road / 64] & (1 << (road % 64)) != 0
    }

    fn clear(&mut self) {
        self.words.fill(0);
    }

    /// The smallest member `≥ from`, if any.
    fn next_from(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut bits = *self.words.get(w)? & (!0 << (from % 64));
        loop {
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
            w += 1;
            bits = *self.words.get(w)?;
        }
    }
}

/// State a step would trip over — a counter that disagrees with the
/// storage it summarizes, or a route that leaves the topology — found by
/// `QueueSim::audit`: the offending word for a [`StateError::Invalid`]
/// and a message for `verify_sensors`.
struct AuditFailure {
    what: &'static str,
    word: u64,
    detail: String,
}

/// Decrements an incrementally maintained counter. A counter that would
/// go below zero means the plant's bookkeeping is broken; that is a bug,
/// so it panics (in release too) naming the counter, road and link.
#[track_caller]
fn decrement(counter: &mut u32, what: &str, road: usize, link: Option<usize>) {
    *counter = counter.checked_sub(1).unwrap_or_else(|| match link {
        Some(link) => panic!("{what} underflow on road {road} (link {link})"),
        None => panic!("{what} underflow on road {road}"),
    });
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
/// use utilbp_substrate::TrafficSubstrate;
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
    controllers: Vec<ControllerSlot>,
    roads: Vec<RoadState>,
    /// Every intersection's readings, updated in place where they
    /// change: a transit arrival joining a movement queue and a serve
    /// popping one each update the queue's movement reading at its
    /// intersection and the road's outgoing reading at its source.
    /// Derived state, never checkpointed: `load_state` rebuilds it with
    /// `observe_into`.
    obs_buf: ObservationBuffer,
    // Flat lookup tables, built once (plain integer indices for
    // borrow-free hot loops).
    /// Every intersection's links; intersection `i` owns
    /// `link_off[i]..link_off[i + 1]` (its "global" link indices).
    links: Vec<LinkService>,
    link_off: Vec<usize>,
    /// Every intersection's outgoing roads by `OutgoingId`; intersection
    /// `i` owns `out_off[i]..out_off[i + 1]`.
    out_roads: Vec<u32>,
    out_off: Vec<usize>,
    /// Every phase's links (global link indices): phase `p` of
    /// intersection `i` owns the range `phases[phase_base[i] + p]`.
    phase_links: Vec<u32>,
    phases: Vec<(usize, usize)>,
    phase_base: Vec<usize>,
    // Per-link state, indexed like `links`.
    /// One FIFO of queued vehicles per feasible link.
    queues: Vec<VecDeque<QueuedVehicle>>,
    /// Fractional service credit (supports non-integer `µ·Δt`).
    credit: Vec<f64>,
    /// Roads whose delay line is non-empty.
    transit_live: IndexSet,
    /// Roads whose boundary backlog is non-empty.
    backlog_live: IndexSet,
    /// Per intersection, the phase whose last serve left every one of
    /// its links with an empty queue and capped credit, so serving it
    /// again is a no-op, until a vehicle joins one of the intersection's
    /// queues. A cache of the step path, never checkpointed:
    /// `load_state` clears it.
    settled: Vec<Option<PhaseId>>,
    /// The intersections the serve pass visits: a superset of those
    /// holding a control phase that is not settled. Each step adds the
    /// decide phase's due set before deciding (only a called controller
    /// changes its decision, and a vehicle joining a queue marks its
    /// intersection due), and the serve pass drops an intersection once
    /// it is in amber or its phase is settled. Derived, never
    /// checkpointed: `load_state` fills it.
    serve_due: IndexSet,
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
            .field("intersections", &self.phase_base.len())
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

        let mut links = Vec::new();
        let mut link_off = vec![0];
        let mut out_roads = Vec::new();
        let mut out_off = vec![0];
        let mut phase_links = Vec::new();
        let mut phases = Vec::new();
        let mut phase_base = Vec::with_capacity(topology.num_intersections());
        for i in topology.intersection_ids() {
            let node = topology.intersection(i);
            let layout = node.layout();
            let base = links.len();
            links.extend(layout.link_ids().map(|l| {
                let link = layout.link(l);
                LinkService {
                    mu_dt: link.service_rate() * config.dt_seconds,
                    in_road: node.incoming_road(link.from()).index() as u32,
                    out_road: node.outgoing_road(link.to()).index() as u32,
                }
            }));
            link_off.push(links.len());
            out_roads.extend(
                layout
                    .outgoing_ids()
                    .map(|o| node.outgoing_road(o).index() as u32),
            );
            out_off.push(out_roads.len());
            phase_base.push(phases.len());
            for p in layout.phase_ids() {
                let start = phase_links.len();
                phase_links.extend(layout.phase(p).iter().map(|l| (base + l.index()) as u32));
                phases.push((start, phase_links.len()));
            }
        }
        let num_links = links.len();

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
                    source: road.source(),
                }
            })
            .collect();
        let num_roads = topology.num_roads();
        let num_intersections = phase_base.len();
        let backlogs = vec![VecDeque::new(); num_roads];

        let mut obs_buf = ObservationBuffer::new();
        obs_buf.shape_for(
            topology
                .intersection_ids()
                .map(|i| topology.intersection(i).layout()),
        );

        QueueSim {
            topology,
            controllers: ControllerSlot::wrap_all(controllers),
            roads,
            obs_buf,
            links,
            link_off,
            out_roads,
            out_off,
            phase_links,
            phases,
            phase_base,
            queues: vec![VecDeque::new(); num_links],
            credit: vec![0.0; num_links],
            transit_live: IndexSet::new(num_roads),
            backlog_live: IndexSet::new(num_roads),
            settled: vec![None; num_intersections],
            serve_due: IndexSet::new(num_intersections),
            backlogs,
            ledger: WaitingLedger::new(),
            now: Tick::ZERO,
            total_served: 0,
        }
    }

    /// Total vehicles served through junctions so far.
    pub fn total_served(&self) -> u64 {
        self.total_served
    }

    /// The flat (global) index of `link` of `intersection`.
    ///
    /// # Panics
    ///
    /// Panics if the ids are out of range.
    fn link_index(&self, intersection: IntersectionId, link: LinkId) -> usize {
        let i = intersection.index();
        let g = self.link_off[i] + link.index();
        assert!(
            g < self.link_off[i + 1],
            "link {link} out of range at intersection {intersection}"
        );
        g
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

    /// The queue observation a controller at `intersection` would see now.
    ///
    /// Allocates a fresh observation; the step pipeline itself writes
    /// observations into a reused [`ObservationBuffer`].
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
    /// the intersection's layout) without allocating. This is the plant's
    /// only sense gather: `load_state` runs it on every intersection to
    /// rebuild the observation buffer, which steps then keep current, and
    /// `verify_sensors` checks the buffer against the same readings. It
    /// gathers the intersection's slice of the flat movement queues
    /// (their lengths) and of the outgoing-road table (each road's
    /// incrementally maintained `queued` counter), with no topology or
    /// layout walk.
    ///
    /// # Panics
    ///
    /// Panics if `intersection` is out of range or `obs` has the wrong
    /// shape.
    pub(crate) fn observe_into(&self, intersection: IntersectionId, obs: &mut QueueObservation) {
        let i = intersection.index();
        let queues = &self.queues[self.link_off[i]..self.link_off[i + 1]];
        let movements = obs.movements_mut();
        assert_eq!(movements.len(), queues.len(), "observation shape");
        for (q, queue) in movements.iter_mut().zip(queues) {
            *q = queue.len() as u32;
        }
        let outs = &self.out_roads[self.out_off[i]..self.out_off[i + 1]];
        let outgoings = obs.outgoings_mut();
        assert_eq!(outgoings.len(), outs.len(), "observation shape");
        for (q, &road) in outgoings.iter_mut().zip(outs) {
            *q = self.roads[road as usize].queued;
        }
    }

    /// Every road's queued count, rescanned from the movement queues at
    /// its downstream arm. [`audit`](Self::audit) compares the
    /// incremental counters with it; [`load_state`](Self::load_state)
    /// installs it, since a capture stores no counter.
    fn rescan_queued(&self) -> Vec<u32> {
        let mut queued = vec![0u32; self.roads.len()];
        for (g, queue) in self.queues.iter().enumerate() {
            queued[self.links[g].in_road as usize] += queue.len() as u32;
        }
        queued
    }

    /// Checks the state a step relies on: every road's `queued` and
    /// `occupancy` counters against [`rescan_queued`](Self::rescan_queued)
    /// plus its delay line, and every vehicle's remaining route (see
    /// [`check_route`](Self::check_route)). Shared by
    /// [`verify_sensors`](Self::verify_sensors) and
    /// [`load_state`](Self::load_state), which must refuse a snapshot
    /// that would otherwise panic at step time.
    fn audit(&self) -> Result<(), AuditFailure> {
        let queued = self.rescan_queued();
        for (g, queue) in self.queues.iter().enumerate() {
            let in_road = self.links[g].in_road as usize;
            for v in queue {
                if self.check_route(in_road, &v.route, v.hop)? != Some(g) {
                    return Err(AuditFailure {
                        what: "queueing queued vehicle hop",
                        word: v.hop as u64,
                        detail: format!(
                            "link {g}: vehicle {} at hop {} is routed elsewhere",
                            v.id.raw(),
                            v.hop
                        ),
                    });
                }
            }
        }
        for (r, road) in self.roads.iter().enumerate() {
            for v in &road.transit {
                self.check_route(r, &v.route, v.hop)?;
            }
            for (_, route, _) in &self.backlogs[r] {
                self.check_route(r, route, 0)?;
            }
            if road.queued != queued[r] {
                return Err(AuditFailure {
                    what: "queueing road queued count",
                    word: u64::from(road.queued),
                    detail: format!(
                        "road {r}: incremental queued {} != rescan {}",
                        road.queued, queued[r]
                    ),
                });
            }
            let occupancy = queued[r] as usize + road.transit.len();
            if road.occupancy as usize != occupancy {
                return Err(AuditFailure {
                    what: "queueing road occupancy",
                    word: u64::from(road.occupancy),
                    detail: format!(
                        "road {r}: occupancy {} != queued plus in transit {occupancy}",
                        road.occupancy
                    ),
                });
            }
        }
        Ok(())
    }

    /// Walks `route` from hop `hop` on `road` to the network exit: each
    /// hop must cross the destination junction of the road the vehicle is
    /// on, by a link of that junction's layout leaving that road. Returns
    /// the first hop's global link index (`None` on an exit road).
    fn check_route(
        &self,
        mut road: usize,
        route: &Route,
        mut hop: usize,
    ) -> Result<Option<usize>, AuditFailure> {
        let mut first = None;
        while let Some(i) = self.roads[road].dest_intersection {
            let bad = |what: &'static str, word: u64| AuditFailure {
                what,
                word,
                detail: format!("road {road}: route hop {hop} does not continue the road"),
            };
            let (j, link) = route
                .hop(hop)
                .ok_or_else(|| bad("queueing route hop", hop as u64))?;
            let g = self.link_off[i] + link.index();
            if j.index() != i || g >= self.link_off[i + 1] || self.links[g].in_road as usize != road
            {
                return Err(bad("queueing route link", link.index() as u64));
            }
            first = first.or(Some(g));
            road = self.links[g].out_road as usize;
            hop += 1;
        }
        Ok(first)
    }

    /// Moves vehicles whose transit delay has elapsed into their movement
    /// queue (internal roads) or out of the network (exit roads); returns
    /// the number of journeys completed. Visits only the roads with a
    /// non-empty delay line, in road order (journey completions feed the
    /// ledger's floating-point statistics in that order).
    fn move_transit_arrivals(&mut self, now: Tick) -> u32 {
        let mut completed = 0u32;
        let mut next = self.transit_live.next_from(0);
        while let Some(r) = next {
            let dest = self.roads[r].dest_intersection;
            let source = self.roads[r].source;
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
                        let g = self.link_off[intersection] + link.index();
                        self.queues[g].push_back(QueuedVehicle {
                            id: v.id,
                            entered: v.entered,
                            route: v.route,
                            hop: v.hop,
                            joined: now,
                            waited: v.waited,
                        });
                        // Occupancy unchanged: the queue is the head of the
                        // same road. The queued counter tracks the join,
                        // and so do the readings that show it.
                        self.roads[r].queued += 1;
                        self.obs_buf.get_mut(intersection).movements_mut()[link.index()] += 1;
                        if let Some((u, arm)) = source {
                            self.obs_buf.get_mut(u.index()).outgoings_mut()[arm.index()] += 1;
                        }
                        self.settled[intersection] = None;
                    }
                    None => {
                        // Boundary exit: the vehicle leaves the network,
                        // flushing its accumulated waiting to the ledger.
                        decrement(&mut self.roads[r].occupancy, "occupancy", r, None);
                        self.ledger.complete(v.entered, now, v.waited);
                        completed += 1;
                    }
                }
            }
            if self.roads[r].transit.is_empty() {
                self.transit_live.remove(r);
            }
            next = self.transit_live.next_from(r + 1);
        }
        completed
    }

    /// Moves backlogged vehicles onto their entry road while space lasts.
    /// Visits only the roads with a non-empty backlog, in road order.
    fn drain_backlogs(&mut self, now: Tick) {
        let mut next = self.backlog_live.next_from(0);
        while let Some(r) = next {
            while !self.backlogs[r].is_empty()
                && !self.roads[r].closed
                && self.roads[r].occupancy < self.roads[r].capacity
            {
                let (id, route, since) = self.backlogs[r].pop_front().expect("checked non-empty");
                // The whole backlog dwell counts as waiting, credited to
                // the vehicle's accumulator in one shot.
                let waited = now.saturating_since(since).count();
                self.enter_road(RoadId::new(r as u32), (id, since), route, 0, now, waited);
            }
            if self.backlogs[r].is_empty() {
                self.backlog_live.remove(r);
            }
            next = self.backlog_live.next_from(r + 1);
        }
    }

    /// Serves every link of `phase` at intersection index `i`; returns the
    /// number of vehicles served. Records whether the phase is now
    /// settled: every link's queue was empty and its credit is at the
    /// cap, so serving the phase again changes nothing.
    fn serve_phase(&mut self, i: usize, phase: PhaseId, now: Tick) -> u32 {
        let mut served = 0u32;
        let mut settled = true;
        let (start, end) = self.phases[self.phase_base[i] + phase.index()];
        for k in start..end {
            let g = self.phase_links[k] as usize;
            let LinkService {
                mu_dt,
                in_road,
                out_road,
            } = self.links[g];
            // Fractional service credit supports µ·Δt < 1. The cap keeps
            // the per-slot budget at the service rate: a link cannot bank
            // green time it could not use (no queue or no space) to serve
            // a burst above µ later.
            let cap = mu_dt.max(1.0);
            let credit = &mut self.credit[g];
            *credit = (*credit + mu_dt).min(cap);
            let mut budget = credit.floor() as u32;
            if self.queues[g].is_empty() {
                settled &= *credit == cap;
                continue;
            }
            // A queued vehicle either leaves, spending credit, or stays.
            settled = false;

            while budget > 0 {
                let out = &self.roads[out_road as usize];
                if out.closed || out.occupancy >= out.capacity {
                    break;
                }
                let Some(vehicle) = self.queues[g].pop_front() else {
                    break;
                };
                self.credit[g] -= 1.0;
                budget -= 1;
                served += 1;

                // Queue dwell is waiting time, accumulated on the vehicle.
                let waited = vehicle.waited + now.saturating_since(vehicle.joined).count();
                // Leave the incoming road…
                let r = in_road as usize;
                let link = Some(g - self.link_off[i]);
                let in_state = &mut self.roads[r];
                decrement(&mut in_state.occupancy, "occupancy", r, link);
                decrement(&mut in_state.queued, "queued count", r, link);
                // …and its queue's readings, here and upstream…
                let source = in_state.source;
                self.obs_buf.get_mut(i).movements_mut()[g - self.link_off[i]] -= 1;
                if let Some((u, arm)) = source {
                    self.obs_buf.get_mut(u.index()).outgoings_mut()[arm.index()] -= 1;
                }
                // …and enter the outgoing one toward the next hop.
                self.enter_road(
                    RoadId::new(out_road),
                    (vehicle.id, vehicle.entered),
                    vehicle.route,
                    vehicle.hop + 1,
                    now,
                    waited,
                );
            }
        }
        self.settled[i] = settled.then_some(phase);
        served
    }

    /// Puts a vehicle, given by its id and entry tick, onto `road` with
    /// `waited` accumulated waiting ticks, scheduling its transit arrival.
    fn enter_road(
        &mut self,
        road: RoadId,
        (id, entered): (VehicleId, Tick),
        route: Arc<Route>,
        hop: usize,
        now: Tick,
        waited: u64,
    ) {
        let r = road.index();
        let state = &mut self.roads[r];
        state.occupancy += 1;
        state.entered += 1;
        let arrives = now + state.travel;
        state.transit.push_back(TransitVehicle {
            id,
            entered,
            route,
            hop,
            arrives,
            waited,
        });
        self.transit_live.insert(r);
    }

    /// Injects an exogenous arrival; returns `false` if it was backlogged.
    fn inject(&mut self, arrival: Arrival, now: Tick) -> bool {
        let road = arrival.route.entry();
        let route = arrival.route;
        self.ledger.enter();
        if !self.roads[road.index()].closed
            && self.roads[road.index()].occupancy < self.roads[road.index()].capacity
        {
            self.enter_road(road, (arrival.vehicle, now), route, 0, now, 0);
            true
        } else {
            self.backlogs[road.index()].push_back((arrival.vehicle, route, now));
            self.backlog_live.insert(road.index());
            false
        }
    }
}

impl TrafficSubstrate for QueueSim {
    fn backend(&self) -> Backend {
        Backend::Queueing
    }

    fn now(&self) -> Tick {
        self.now
    }

    /// Step order within the slot: transit arrivals join queues → boundary
    /// backlogs drain → controllers decide on the state `Q(k)` → activated
    /// links serve → new exogenous arrivals are injected (Eq. 2's
    /// `A(k, k+1)`). The profiler laps transit and backlog drains as
    /// [`Section::Landings`], decide as [`Section::Decide`], serve as
    /// [`Section::CarFollowing`] and injection as [`Section::Waiting`].
    fn step_into(
        &mut self,
        arrivals: &mut Vec<Arrival>,
        report: &mut StepReport,
        profiler: Option<&mut TickProfiler>,
    ) {
        let mut watch = PhaseStopwatch::new(profiler);
        let now = self.now;

        let completed = self.move_transit_arrivals(now);
        self.drain_backlogs(now);
        watch.lap(Section::Landings);

        // Sense is already done: the two sites that change a reading keep
        // the observation buffer current, marking what they touch. Decide,
        // per intersection, from purely local observations — one
        // controller per slot, called where readings changed or where it
        // is not at rest. Whatever is due to decide is due to serve.
        self.serve_due.union_words(self.obs_buf.due_words());
        let topology = &self.topology;
        let calls = decide::decide_all(&mut self.controllers, &mut self.obs_buf, now, |idx| {
            topology
                .intersection(IntersectionId::new(idx as u32))
                .layout()
        });
        watch.lap(Section::Decide);
        watch.count_decide_calls(calls);

        // Serve activated links, skipping settled phases (a no-op); an
        // intersection leaves the serve set once in amber or settled.
        let mut served = 0u32;
        let mut next = self.serve_due.next_from(0);
        while let Some(i) = next {
            match self.controllers[i].decision {
                PhaseDecision::Control(phase) if self.settled[i] != Some(phase) => {
                    served += self.serve_phase(i, phase, now);
                    if self.settled[i] == Some(phase) {
                        self.serve_due.remove(i);
                    }
                }
                _ => self.serve_due.remove(i),
            }
            next = self.serve_due.next_from(i + 1);
        }
        watch.lap(Section::CarFollowing);

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
        watch.lap(Section::Waiting);
    }

    /// Junctions do not serve vehicles onto a closed road, and boundary
    /// arrivals on a closed entry road wait in the backlog.
    fn set_road_closed(&mut self, road: RoadId, closed: bool) {
        self.roads[road.index()].closed = closed;
    }

    fn road_closed(&self, road: RoadId) -> bool {
        self.roads[road.index()].closed
    }

    /// Vehicles in transit on the road plus those queued at its head.
    fn road_occupancy(&self, road: RoadId) -> u32 {
        self.roads[road.index()].occupancy
    }

    fn road_entered(&self, road: RoadId) -> u64 {
        self.roads[road.index()].entered
    }

    /// The vehicles physically queued at the junction head for `link`
    /// (the servable part of `q_i^{i'}`).
    fn movement_queue_len(&self, intersection: IntersectionId, link: LinkId) -> u32 {
        self.queues[self.link_index(intersection, link)].len() as u32
    }

    fn incoming_queue_len(&self, intersection: IntersectionId, arm: IncomingId) -> u32 {
        let layout = self.topology.intersection(intersection).layout();
        layout
            .links_from(arm)
            .iter()
            .map(|&l| self.movement_queue_len(intersection, l))
            .sum()
    }

    fn occupancy_snapshot(&self, out: &mut Vec<u32>) {
        out.clear();
        out.extend(self.roads.iter().map(|r| r.occupancy));
    }

    fn backlog_len(&self) -> usize {
        self.backlogs.iter().map(|b| b.len()).sum()
    }

    fn ledger(&self) -> &WaitingLedger {
        &self.ledger
    }

    /// Folds the accumulators carried by queued and in-transit vehicles;
    /// vehicles still waiting outside a full boundary entry contribute
    /// their backlog dwell so far (`now − since`, the amount that will be
    /// credited when they are admitted), matching the microscopic
    /// substrate — without it, congested runs would *understate* waiting
    /// by exactly their stuck vehicles.
    fn mean_waiting_including_active(&self) -> f64 {
        let now = self.now;
        let queued = self.queues.iter().flat_map(|q| q.iter().map(|v| v.waited));
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

    /// The walk order: movement queues in intersection / link / FIFO
    /// order, then transit delay lines in road / FIFO order, then
    /// backlogs in road / FIFO order. The committed prefix is `hop + 1`
    /// for queued and in-transit vehicles, whose movement queue is bound
    /// to the cursor's movement, and `0` for backlogged vehicles that
    /// have not entered yet.
    fn replan_routes(&mut self, replan: &mut utilbp_netgen::RouteRewrite<'_>) -> u64 {
        let mut diverted = 0u64;
        for queue in &mut self.queues {
            for v in queue.iter_mut() {
                if let Some(route) = replan(v.id, &v.route, v.hop + 1) {
                    v.route = route;
                    diverted += 1;
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

    /// Validates the incremental bookkeeping: every road's `queued`
    /// counter must equal the sum of the movement queues at its
    /// downstream arm, its occupancy the queued vehicles plus its delay
    /// line, and the sets of roads with a non-empty delay line or
    /// backlog must match a rescan.
    /// It also validates what the step derives from that state: every
    /// intersection's buffered observation must equal a fresh
    /// [`observe`](Self::observe), every intersection holding a control
    /// phase that is not settled must be in the serve set, and every
    /// settled phase's links must have empty queues and capped credit.
    fn verify_sensors(&self) -> Result<(), String> {
        self.audit().map_err(|m| m.detail)?;
        for (r, road) in self.roads.iter().enumerate() {
            if self.transit_live.contains(r) == road.transit.is_empty() {
                return Err(format!(
                    "road {r}: delay-line set membership {} != non-empty line {}",
                    self.transit_live.contains(r),
                    !road.transit.is_empty()
                ));
            }
            if self.backlog_live.contains(r) == self.backlogs[r].is_empty() {
                return Err(format!(
                    "road {r}: backlog set membership {} != non-empty backlog {}",
                    self.backlog_live.contains(r),
                    !self.backlogs[r].is_empty()
                ));
            }
        }
        for (i, buffered) in self.obs_buf.as_slice().iter().enumerate() {
            // The buffered readings against the gather `observe_into`
            // would make, compared in place.
            let queues = &self.queues[self.link_off[i]..self.link_off[i + 1]];
            let movements = buffered.movements().iter().zip(queues);
            if let Some((l, (q, queue))) = movements
                .enumerate()
                .find(|(_, (&q, queue))| q as usize != queue.len())
            {
                return Err(format!(
                    "intersection {i}: buffered movement reading {l} is {q}, a fresh sense {}",
                    queue.len()
                ));
            }
            let outs = &self.out_roads[self.out_off[i]..self.out_off[i + 1]];
            let outgoings = buffered.outgoings().iter().zip(outs);
            if let Some((o, (q, &road))) = outgoings
                .enumerate()
                .find(|(_, (&q, &road))| q != self.roads[road as usize].queued)
            {
                return Err(format!(
                    "intersection {i}: buffered outgoing reading {o} is {q}, a fresh sense {}",
                    self.roads[road as usize].queued
                ));
            }
            if let PhaseDecision::Control(phase) = self.controllers[i].decision {
                if self.settled[i] != Some(phase) && !self.serve_due.contains(i) {
                    return Err(format!(
                        "intersection {i}: unsettled phase {phase} is missing from the serve set"
                    ));
                }
            }
            let Some(phase) = self.settled[i] else {
                continue;
            };
            let (start, end) = self.phases[self.phase_base[i] + phase.index()];
            for &g in &self.phase_links[start..end] {
                let g = g as usize;
                let cap = self.links[g].mu_dt.max(1.0);
                if !self.queues[g].is_empty() || self.credit[g] != cap {
                    return Err(format!(
                        "intersection {i}: settled on phase {phase} but link {g} holds {} \
                         queued at credit {} (cap {cap})",
                        self.queues[g].len(),
                        self.credit[g]
                    ));
                }
            }
        }
        Ok(())
    }

    /// Serializes the full dynamic state into a durable word stream:
    /// clock, served count, the waiting ledger, per-road flags/entered
    /// counters/transit lines, movement queues with fractional credits,
    /// boundary backlogs, and every controller's state (in intersection
    /// order).
    ///
    /// Construction-time shape (topology, service lookups, phase→link
    /// tables, transit delays) and intra-step scratch (the observation
    /// buffer, per-slot decisions — rewritten by the next step's decide
    /// phase) are *not* state and are not written. The roads' `queued`
    /// and `occupancy` counters and the sets of roads with a non-empty
    /// delay line or backlog are derived from the queues, transit lines
    /// and backlogs and are rebuilt on load. Queues and credits are written per
    /// intersection in `LinkId` order.
    fn save_state(&self, writer: &mut StateWriter) {
        writer.push(self.now.index());
        writer.push(self.total_served);
        self.ledger.save_state(writer);
        writer.push_usize(self.roads.len());
        for road in &self.roads {
            writer.push_bool(road.closed);
            writer.push(road.entered);
            writer.push_usize(road.transit.len());
            for v in &road.transit {
                writer.push(v.id.raw());
                writer.push(v.entered.index());
                v.route.save_state(writer);
                writer.push_usize(v.hop);
                writer.push(v.arrives.index());
                writer.push(v.waited);
            }
        }
        writer.push_usize(self.phase_base.len());
        for links in self.link_off.windows(2) {
            let links = links[0]..links[1];
            writer.push_usize(links.len());
            for queue in &self.queues[links.clone()] {
                writer.push_usize(queue.len());
                for v in queue {
                    writer.push(v.id.raw());
                    writer.push(v.entered.index());
                    v.route.save_state(writer);
                    writer.push_usize(v.hop);
                    writer.push(v.joined.index());
                    writer.push(v.waited);
                }
            }
            for &credit in &self.credit[links] {
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
    /// Returns a [`StateError`] if the stream is truncated, if the saved
    /// shape (road / intersection / movement-queue counts) does not match
    /// this simulator's topology, or — as [`StateError::Invalid`] — if a
    /// restored vehicle's remaining route leaves the topology (a hop
    /// past the route's end, or a link outside the destination layout or
    /// not leaving the vehicle's road) or a queued vehicle's route names
    /// another movement, if a vehicle's id is one the ledger has not
    /// counted in or its entry tick is at or past the clock, or if the
    /// ledger's live count is not the vehicles on the roads plus the
    /// backlog. The roads' `queued` and `occupancy` counters are not read
    /// but rebuilt from the restored queues and delay lines.
    fn load_state(&mut self, reader: &mut StateReader<'_>) -> Result<(), StateError> {
        // The settled marks describe the state being replaced, so every
        // intersection is served until its phase settles again.
        self.settled.fill(None);
        for i in 0..self.settled.len() {
            self.serve_due.insert(i);
        }
        self.now = Tick::new(reader.take()?);
        self.total_served = reader.take_count("queueing served count")?;
        self.ledger = WaitingLedger::load_state(reader)?;
        // Waiting accumulators and entry ticks cannot exceed the ticks
        // simulated so far, and ids the ledger has not counted in.
        let now = self.now.index();
        let ids = self.ledger.entered();

        let roads = reader.take_usize()?;
        if roads != self.roads.len() {
            return Err(StateError::Invalid {
                what: "queueing road count",
                word: roads as u64,
            });
        }
        for road in &mut self.roads {
            road.closed = reader.take_bool()?;
            road.entered = reader.take_count("queueing road entered count")?;
            let transit = reader.take_usize()?;
            road.transit.clear();
            for _ in 0..transit {
                let id = VehicleId::new(reader.take_below(ids, "vehicle id")?);
                let entered = Tick::new(reader.take_below(now, "vehicle entry tick")?);
                let route = Arc::new(Route::load_state(reader)?);
                let hop = reader.take_usize()?;
                let arrives = Tick::new(reader.take()?);
                let waited = reader.take_at_most(now, "queueing waiting ticks")?;
                road.transit.push_back(TransitVehicle {
                    id,
                    entered,
                    route,
                    hop,
                    arrives,
                    waited,
                });
            }
        }

        let intersections = reader.take_usize()?;
        if intersections != self.phase_base.len() {
            return Err(StateError::Invalid {
                what: "queueing intersection count",
                word: intersections as u64,
            });
        }
        for i in 0..intersections {
            let links = self.link_off[i]..self.link_off[i + 1];
            let queues = reader.take_usize()?;
            if queues != links.len() {
                return Err(StateError::Invalid {
                    what: "queueing movement queue count",
                    word: queues as u64,
                });
            }
            for queue in &mut self.queues[links.clone()] {
                let len = reader.take_usize()?;
                queue.clear();
                for _ in 0..len {
                    let id = VehicleId::new(reader.take_below(ids, "vehicle id")?);
                    let entered = Tick::new(reader.take_below(now, "vehicle entry tick")?);
                    let route = Arc::new(Route::load_state(reader)?);
                    let hop = reader.take_usize()?;
                    let joined = Tick::new(reader.take_at_most(now, "queueing queue entry tick")?);
                    let waited = reader.take_at_most(now, "queueing waiting ticks")?;
                    queue.push_back(QueuedVehicle {
                        id,
                        entered,
                        route,
                        hop,
                        joined,
                        waited,
                    });
                }
            }
            for credit in &mut self.credit[links] {
                *credit = reader.take_f64()?;
            }
        }

        for backlog in &mut self.backlogs {
            let len = reader.take_usize()?;
            backlog.clear();
            for _ in 0..len {
                let id = VehicleId::new(reader.take_below(ids, "vehicle id")?);
                let route = Arc::new(Route::load_state(reader)?);
                let since = Tick::new(reader.take_at_most(now, "queueing backlog entry tick")?);
                backlog.push_back((id, route, since));
            }
        }

        let topology = &self.topology;
        decide::load_all(&mut self.controllers, &mut self.obs_buf, reader, |i| {
            topology
                .intersection(IntersectionId::new(i as u32))
                .layout()
        })?;

        let queued = self.rescan_queued();
        for (road, queued) in self.roads.iter_mut().zip(queued) {
            road.queued = queued;
            road.occupancy = queued + road.transit.len() as u32;
        }
        self.audit().map_err(|m| StateError::Invalid {
            what: m.what,
            word: m.word,
        })?;
        // The guard's conservation check, once.
        let on_roads: usize = self.roads.iter().map(|r| r.occupancy as usize).sum();
        self.ledger.check_live(on_roads + self.backlog_len())?;
        // Rebuild the rest of the derived state from the restored (and
        // now audited) delay lines and backlogs: the sets of roads a step
        // visits.
        self.transit_live.clear();
        self.backlog_live.clear();
        for (r, road) in self.roads.iter().enumerate() {
            if !road.transit.is_empty() {
                self.transit_live.insert(r);
            }
            if !self.backlogs[r].is_empty() {
                self.backlog_live.insert(r);
            }
        }
        // The observation buffer is derived from the same state.
        let mut obs_buf = std::mem::take(&mut self.obs_buf);
        for (i, obs) in obs_buf.as_mut_slice().iter_mut().enumerate() {
            self.observe_into(IntersectionId::new(i as u32), obs);
        }
        self.obs_buf = obs_buf;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use utilbp_core::UtilBp;
    use utilbp_netgen::{
        DemandConfig, DemandGenerator, DemandSchedule, GridNetwork, GridSpec, Pattern,
    };

    fn sim(grid: &GridNetwork) -> QueueSim {
        let controllers = (0..grid.topology().num_intersections())
            .map(|_| Box::new(UtilBp::paper()) as Box<dyn SignalController>)
            .collect();
        QueueSim::new(
            grid.topology().clone(),
            controllers,
            QueueSimConfig::default(),
        )
    }

    fn demand(grid: &GridNetwork) -> DemandGenerator {
        DemandGenerator::new(
            grid,
            DemandConfig::new(DemandSchedule::constant(Pattern::I, Ticks::new(10_000))),
            5,
        )
    }

    fn capture(s: &QueueSim) -> Vec<u8> {
        let mut w = StateWriter::new();
        s.save_state(&mut w);
        w.bytes().to_vec()
    }

    /// A 3×3 free-flow run with vehicles queued, in transit on internal
    /// roads, and waiting outside a closed entry road.
    fn loaded() -> (GridNetwork, QueueSim) {
        let grid = GridNetwork::new(GridSpec::paper());
        let mut s = sim(&grid);
        let mut gen = demand(&grid);
        s.set_road_closed(grid.entries()[0].road, true);
        for k in 0..200 {
            s.step(gen.poll(&grid, Tick::new(k)));
        }
        assert!(s.queues.iter().any(|q| !q.is_empty()), "a queued vehicle");
        assert!(s.backlog_len() > 0, "a backlog");
        (grid, s)
    }

    /// Saves `s` after `craft` corrupts it, and loads the capture into a
    /// fresh simulator.
    fn reload(
        grid: &GridNetwork,
        mut s: QueueSim,
        craft: impl FnOnce(&mut QueueSim),
    ) -> Result<(), StateError> {
        craft(&mut s);
        let bytes = capture(&s);
        sim(grid).load_state(&mut StateReader::new(&bytes))
    }

    fn rejects(what: &str, result: Result<(), StateError>) {
        match result {
            Err(StateError::Invalid { what: got, .. }) => assert_eq!(got, what),
            other => panic!("expected an invalid {what}, got {other:?}"),
        }
    }

    /// The first vehicle in transit on a road that feeds a junction.
    fn internal_transit(s: &mut QueueSim) -> &mut TransitVehicle {
        s.roads
            .iter_mut()
            .filter(|r| r.dest_intersection.is_some())
            .flat_map(|r| r.transit.iter_mut())
            .next()
            .expect("a vehicle in transit on an internal road")
    }

    #[test]
    fn an_intact_capture_loads() {
        let (grid, s) = loaded();
        assert_eq!(reload(&grid, s, |_| {}), Ok(()));
    }

    #[test]
    fn transit_hop_past_the_route_end_is_rejected() {
        let (grid, s) = loaded();
        let craft = |s: &mut QueueSim| internal_transit(s).hop = 1 << 40;
        rejects("queueing route hop", reload(&grid, s, craft));
    }

    #[test]
    fn transit_link_outside_the_destination_layout_is_rejected() {
        let (grid, s) = loaded();
        let craft = |s: &mut QueueSim| {
            let v = internal_transit(s);
            let mut hops = v.route.hops().to_vec();
            hops[v.hop].1 = LinkId::new(99);
            v.route = Arc::new(Route::new(v.route.entry(), hops));
        };
        rejects("queueing route link", reload(&grid, s, craft));
    }

    #[test]
    fn backlogged_route_that_skips_the_entry_junction_is_rejected() {
        let (grid, s) = loaded();
        let craft = |s: &mut QueueSim| {
            let (_, route, _) = s
                .backlogs
                .iter_mut()
                .flat_map(|b| b.iter_mut())
                .next()
                .expect("a backlogged vehicle");
            *route = Arc::new(Route::new(route.entry(), route.hops()[1..].to_vec()));
        };
        rejects("queueing route link", reload(&grid, s, craft));
    }

    #[test]
    fn vehicle_records_outside_the_ledger_or_the_clock_are_rejected() {
        type Craft = fn(&mut QueueSim);
        let cases: [(&str, Craft); 5] = [
            ("vehicle id", |s| {
                internal_transit(s).id = VehicleId::new(s.ledger.entered());
            }),
            ("vehicle id", |s| {
                let ids = s.ledger.entered();
                let backlogged = s.backlogs.iter_mut().flat_map(|b| b.iter_mut()).next();
                backlogged.expect("a backlogged vehicle").0 = VehicleId::new(ids);
            }),
            ("vehicle entry tick", |s| {
                internal_transit(s).entered = s.now
            }),
            ("vehicle entry tick", |s| {
                let now = s.now;
                let queued = s.queues.iter_mut().flat_map(|q| q.iter_mut()).next();
                queued.expect("a queued vehicle").entered = now;
            }),
            // One vehicle more in the ledger than on the roads.
            ("ledger live count", |s| s.ledger.enter()),
        ];
        for (what, craft) in cases {
            let (grid, s) = loaded();
            rejects(what, reload(&grid, s, craft));
        }
    }

    #[test]
    fn queued_vehicle_in_another_movement_queue_is_rejected() {
        let (grid, s) = loaded();
        let craft = |s: &mut QueueSim| {
            let g = s.queues.iter().position(|q| !q.is_empty()).expect("queued");
            let v = s.queues[g].pop_front().expect("non-empty");
            // Another movement of the same arm: the road's counters
            // still agree, only the vehicle's route disowns the queue.
            let other = (0..s.links.len())
                .find(|&h| h != g && s.links[h].in_road == s.links[g].in_road)
                .expect("a sibling movement");
            s.queues[other].push_back(v);
        };
        rejects("queueing queued vehicle hop", reload(&grid, s, craft));
    }

    /// Corrupts a live counter with `craft`: the live audit behind
    /// `verify_sensors` names it as `what`, and the corruption never
    /// reaches a capture, which equals the pristine run's and loads with
    /// the counters rebuilt from the queues and delay lines.
    fn audited_not_captured(what: &str, craft: fn(&mut QueueSim)) {
        let (grid, pristine) = loaded();
        let (_, mut s) = loaded();
        craft(&mut s);
        match s.audit() {
            Err(m) => assert_eq!(m.what, what),
            Ok(()) => panic!("the audit missed a corrupted {what}"),
        }
        assert!(s.verify_sensors().is_err(), "{what}");
        let bytes = capture(&s);
        assert_eq!(bytes, capture(&pristine), "{what} is not captured");
        let mut back = sim(&grid);
        back.load_state(&mut StateReader::new(&bytes))
            .expect("an intact capture");
        back.verify_sensors()
            .expect("counters rebuilt from the queues");
    }

    #[test]
    fn queued_counter_that_disagrees_with_a_rescan_is_rejected() {
        audited_not_captured("queueing road queued count", |s| {
            let r = s.links[0].in_road as usize;
            s.roads[r].queued += 1;
        });
    }

    #[test]
    fn occupancy_that_disagrees_with_a_rescan_is_rejected() {
        // An occupancy one short of the road's vehicles would underflow
        // when the last of them leaves.
        audited_not_captured("queueing road occupancy", |s| {
            let r = (0..s.roads.len())
                .find(|&r| s.roads[r].occupancy > 0)
                .expect("an occupied road");
            s.roads[r].occupancy -= 1;
        });
    }

    #[test]
    #[should_panic(expected = "queued count underflow on road")]
    fn a_queued_counter_underflow_panics_naming_the_road() {
        let (_, mut s) = loaded();
        let g = s.queues.iter().position(|q| !q.is_empty()).expect("queued");
        let r = s.links[g].in_road as usize;
        s.roads[r].queued = 0;
        for _ in 0..200 {
            s.step(Vec::new());
        }
    }

    /// A capture taken mid-run — delay lines holding vehicles due over
    /// several future ticks, a closed entry road with a backlog — resumes
    /// in a fresh simulator byte for byte: both write the same state
    /// every tick, through the reopening and the backlog's drain.
    #[test]
    fn free_flow_capture_resumes_byte_identically() {
        let (grid, mut original) = loaded();
        let closed = grid.entries()[0].road;
        let partial = original.roads.iter().any(|r| {
            r.transit.len() > 1
                && r.transit.front().map(|v| v.arrives) != r.transit.back().map(|v| v.arrives)
        });
        assert!(partial, "a delay line with vehicles due on different ticks");

        let mut resumed = sim(&grid);
        resumed
            .load_state(&mut StateReader::new(&capture(&original)))
            .expect("an intact capture");
        assert_eq!(resumed.transit_live.words, original.transit_live.words);
        assert_eq!(resumed.backlog_live.words, original.backlog_live.words);

        let mut gen = demand(&grid);
        for k in 0..200 {
            gen.poll(&grid, Tick::new(k));
        }
        for k in 200..700 {
            if k == 300 {
                original.set_road_closed(closed, false);
                resumed.set_road_closed(closed, false);
            }
            let arrivals = gen.poll(&grid, Tick::new(k));
            let a = original.step(arrivals.clone());
            let b = resumed.step(arrivals);
            assert_eq!(a, b, "step report at k={k}");
            assert_eq!(capture(&original), capture(&resumed), "state at k={k}");
            resumed.verify_sensors().expect("resumed bookkeeping");
        }
        assert_eq!(original.backlog_len(), 0, "the backlog drained");
        assert!(original.road_entered(closed) > 0);
    }

    /// A join whose upstream reading update went missing: the buffered
    /// outgoing reading of a queued road's source falls one short.
    #[test]
    fn a_missed_reading_update_is_named_by_verify_sensors() {
        let (_, mut s) = loaded();
        s.verify_sensors().expect("a current buffer");
        let (u, arm) = s
            .roads
            .iter()
            .filter(|road| road.queued > 0)
            .find_map(|road| road.source)
            .expect("a queued internal road");
        s.obs_buf.get_mut(u.index()).outgoings_mut()[arm.index()] -= 1;
        let err = s.verify_sensors().expect_err("a stale reading");
        assert!(
            err.starts_with(&format!("intersection {}: buffered", u.index())),
            "{err}"
        );
    }

    #[test]
    fn a_false_settled_mark_is_named_by_verify_sensors() {
        let (grid, mut s) = loaded();
        // A phase with a vehicle queued on one of its links.
        let (i, phase) = (0..s.phase_base.len())
            .flat_map(|i| {
                let node = grid.topology().intersection(IntersectionId::new(i as u32));
                node.layout().phase_ids().map(move |p| (i, p))
            })
            .find(|&(i, p)| {
                let (start, end) = s.phases[s.phase_base[i] + p.index()];
                s.phase_links[start..end]
                    .iter()
                    .any(|&g| !s.queues[g as usize].is_empty())
            })
            .expect("a phase with a queue");
        s.settled[i] = Some(phase);
        let err = s
            .verify_sensors()
            .expect_err("a settled phase with a queue");
        assert!(
            err.starts_with(&format!("intersection {i}: settled on phase {phase}")),
            "{err}"
        );
    }

    #[test]
    fn a_missing_serve_bit_is_named_by_verify_sensors() {
        let (_, mut s) = loaded();
        // An intersection whose control phase still has work to serve.
        let i = (0..s.phase_base.len())
            .find(|&i| match s.controllers[i].decision {
                PhaseDecision::Control(p) => s.settled[i] != Some(p),
                PhaseDecision::Transition => false,
            })
            .expect("an unsettled control phase");
        s.verify_sensors().expect("the serve set covers it");
        s.serve_due.remove(i);
        let err = s
            .verify_sensors()
            .expect_err("an unsettled phase outside the serve set");
        assert!(
            err.starts_with(&format!("intersection {i}: unsettled phase")),
            "{err}"
        );
    }

    /// Once the network drains, a step serves nothing: every control
    /// phase is settled.
    #[test]
    fn a_drained_network_serves_nothing() {
        let (grid, mut s) = loaded();
        s.set_road_closed(grid.entries()[0].road, false);
        for _ in 0..2_000 {
            s.step(Vec::new());
        }
        assert_eq!(s.ledger().active(), 0, "the network drained");
        s.step(Vec::new());
        for (i, slot) in s.controllers.iter().enumerate() {
            assert_eq!(
                s.settled[i],
                slot.decision.phase(),
                "intersection {i} serves a settled phase"
            );
        }
        s.verify_sensors().expect("settled marks hold");
    }

    /// Under a fractional service rate (`µ·Δt < 1`) an empty phase banks
    /// credit over several serves, so it settles only once its credit is
    /// capped; the oracle holds every tick through load and drain.
    #[test]
    fn a_fractional_service_rate_settles_only_at_capped_credit() {
        let grid = GridNetwork::new(GridSpec {
            service_rate: 0.5,
            ..GridSpec::paper()
        });
        let mut s = sim(&grid);
        let mut gen = demand(&grid);
        for k in 0..1_500 {
            let arrivals = if k < 200 {
                gen.poll(&grid, Tick::new(k))
            } else {
                Vec::new()
            };
            s.step(arrivals);
            s.verify_sensors().unwrap_or_else(|e| panic!("k={k}: {e}"));
        }
        assert!(s.settled.iter().any(Option::is_some), "a settled phase");
    }

    /// The observation buffer and the settled marks are derived, not
    /// state: a capture loaded over a plant that has been running another
    /// demand — both describing that other run, busy or drained since —
    /// continues capture for capture like the capture's own run, and so
    /// does a fresh plant.
    #[test]
    fn a_capture_loaded_over_a_running_plant_continues_like_its_source() {
        let grid = GridNetwork::new(GridSpec::paper());
        let mut source = sim(&grid);
        let mut gen = demand(&grid);
        for k in 0..300 {
            source.step(gen.poll(&grid, Tick::new(k)));
        }
        // A lull drains part of the network, so that the capture has idle
        // junctions next to queued ones.
        for k in 300..340 {
            gen.poll(&grid, Tick::new(k));
            source.step(Vec::new());
        }
        let bytes = capture(&source);

        let other_run = |drain: u64| {
            let mut plant = sim(&grid);
            let mut other = DemandGenerator::new(
                &grid,
                DemandConfig::new(DemandSchedule::constant(Pattern::III, Ticks::new(10_000))),
                9,
            );
            for k in 0..250 {
                plant.step(other.poll(&grid, Tick::new(k)));
            }
            for _ in 0..drain {
                plant.step(Vec::new());
            }
            plant
        };
        let mut plants = [
            ("busy", other_run(0)),
            ("drained", other_run(1_500)),
            ("fresh", sim(&grid)),
        ];
        for (_, plant) in &mut plants {
            plant
                .load_state(&mut StateReader::new(&bytes))
                .expect("an intact capture");
        }

        for k in 340..840 {
            let arrivals = gen.poll(&grid, Tick::new(k));
            let want = source.step(arrivals.clone());
            let want_bytes = capture(&source);
            for (name, plant) in &mut plants {
                assert_eq!(plant.step(arrivals.clone()), want, "{name} report at k={k}");
                assert_eq!(capture(plant), want_bytes, "{name} state at k={k}");
                plant.verify_sensors().expect("restored caches");
            }
        }
    }
}
