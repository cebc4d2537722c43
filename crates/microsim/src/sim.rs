//! The microscopic network simulator.
//!
//! Stands in for SUMO in the paper's evaluation: vehicles follow the
//! Krauss model along dedicated per-movement lanes, junctions serve green
//! links with realistic discharge headways and a fixed box-traversal time,
//! ambers let the box clear before the next phase, and queue detectors
//! report the per-movement counts the controllers feed on.
//!
//! ## Physical layout
//!
//! Every road carries one single-file lane per turning movement at its
//! downstream junction (the paper's dedicated turning lanes, which rule out
//! head-of-line blocking); boundary exit roads carry enough lanes to match
//! their storage capacity. With the default 300 m roads and 7.5 m jam
//! spacing, 3 lanes hold 120 vehicles — exactly the paper's `W`.
//!
//! ## Crossing protocol
//!
//! The head vehicle of a lane is *released* when its movement is green,
//! the link has service credit (rate `µ`), the destination road is below
//! its capacity `W`, and the destination lane has room (counting vehicles
//! already crossing toward it). A released head drives through the stop
//! line, spends `crossing_ticks` in the junction box, then lands at the
//! start of its destination lane. During amber no releases happen but the
//! box keeps clearing — which is why the paper's 4 s amber covers the 3 s
//! box traversal.
//!
//! ## Step pipeline
//!
//! One call to [`MicroSim::step_into`] runs, in order: sense (write
//! per-intersection observations from the incremental detector counters)
//! → decide (one controller per intersection) → signal refresh → box
//! countdown → head release (crossings mutate shared junction/road
//! state) → car-following for the remaining vehicles (streaming over the
//! network-wide lane arena; the expensive phase) → landings →
//! insertions. The head and car-following phases walk the arena's
//! occupancy-ordered active-road list, so empty roads cost zero cache
//! lines (see [`crate::road`]). Waiting is accumulated *inside* the
//! car-following pass (per-vehicle accumulators; see [`crate::road`]),
//! so there is no separate waiting phase. See the crate
//! docs' "Performance architecture" section for the invariants each phase
//! relies on.

use std::collections::VecDeque;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use utilbp_core::state::{StateError, StateReader, StateWriter};
use utilbp_core::{
    decide, decide::ControllerSlot, IncomingId, LinkId, ObservationBuffer, PhaseDecision,
    QueueObservation, SignalController, Tick,
};
use utilbp_metrics::{VehicleId, WaitingLedger};
use utilbp_netgen::{Arrival, IntersectionId, NetworkTopology, RoadId, Route};
use utilbp_telemetry::{PhaseStopwatch, Section, TickProfiler};

use crate::config::MicroSimConfig;
use crate::krauss::{next_speed, LeaderInfo};
use crate::road::{
    advance_head, claim_slot, fold_counter, sweep_followers, HeadMode, LaneSensors,
    MovementCounters, NetworkLanes, SensorSpec, VehicleArena, LINK_NONE,
};

/// A vehicle traversing the junction box: its arena slot plus the wait
/// accumulator riding along (a boxed vehicle is moving, not waiting, but
/// its earlier waiting must survive to the ledger flush at completion).
#[derive(Debug, Clone)]
struct Crossing {
    slot: u32,
    wait: u64,
    /// Remaining box ticks; 0 means ready to land (may be held if the
    /// destination lane entry is blocked).
    remaining: u64,
    dest_road: usize,
    dest_lane: usize,
}

#[derive(Debug, Clone)]
pub(crate) struct RoadSim {
    // Vehicle state lives in the network-wide [`NetworkLanes`] arena on
    // `MicroSim` (road index == `RoadSim` index), and per-lane counters in
    // network-wide lane-indexed arrays, not here: every per-tick pass
    // streams flat storage instead of chasing per-road allocations.
    pub(crate) length: f64,
    capacity: u32,
    /// Whether the road is closed to *entering* traffic (scenario
    /// events). Vehicles already on a closed road keep driving and may
    /// leave it; no head release targets it and no insertion lands on it.
    closed: bool,
    /// Vehicles on the lanes plus reservations by vehicles crossing toward
    /// this road.
    occupancy: u32,
    /// Cumulative vehicles that have entered the road's lanes (boundary
    /// insertions + junction-box landings) — a monotone counter that lets
    /// callers observe where traffic actually went (e.g. detour roads
    /// after a replanned closure) without per-road event probes.
    entered: u64,
    /// Detector geometry shared by this road's lanes.
    pub(crate) spec: SensorSpec,
    /// Σ of the road's per-lane halted counters — the outgoing sensor
    /// `q_{i'}` in O(1).
    pub(crate) halted_sum: u32,
    /// Per-(road, link) movement counters, maintained only under
    /// [`LaneDiscipline::SharedMixed`](crate::LaneDiscipline) for roads
    /// feeding an intersection — the O(1) replacement for the mixed-lane
    /// per-decision rescans. `None` under dedicated lanes (the per-lane
    /// counters already answer per-movement queries) and on exit roads.
    pub(crate) move_counts: Option<MovementCounters>,
    /// This road's dawdling stream. Car-following noise is drawn per road
    /// (not from one global generator), so skipping empty roads in the
    /// active-road sweep perturbs no other road's draws.
    pub(crate) rng: SmallRng,
}

impl RoadSim {
    /// An empty, open road of `length` m holding up to `capacity`
    /// vehicles.
    pub(crate) fn new(
        length: f64,
        capacity: u32,
        cfg: &MicroSimConfig,
        rng: SmallRng,
        move_counts: Option<MovementCounters>,
    ) -> Self {
        RoadSim {
            length,
            capacity,
            closed: false,
            occupancy: 0,
            entered: 0,
            spec: SensorSpec::for_road(length, cfg),
            halted_sum: 0,
            move_counts,
            rng,
        }
    }

    /// Registers a vehicle appearing on global lane `lane` of this road
    /// (landing or insertion) in the dense sensor counters.
    pub(crate) fn sensor_add(
        &mut self,
        sensors: &mut LaneSensors,
        lane: usize,
        pos: f64,
        speed: f64,
    ) {
        if pos >= self.spec.detect_from {
            sensors.detected[lane] += 1;
        }
        if speed < self.spec.halt_speed {
            sensors.halted[lane] += 1;
            self.halted_sum += 1;
        }
    }
}

/// One feasible link of one intersection, in the flat per-link table
/// built once at construction (links of intersection `i` occupy
/// `link_off[i]..link_off[i + 1]`, in `LinkId` order).
#[derive(Debug, Clone, Copy)]
struct LinkEntry {
    /// Global index of the incoming road's lane dedicated to this link.
    in_lane: u32,
    /// The incoming road.
    in_road: u32,
    /// The outgoing road.
    out_road: u32,
    /// Service credit a green tick earns (`µ·Δt`).
    mu_dt: f64,
}

/// A vehicle waiting outside a full or closed boundary entry. Its backlog
/// dwell is credited to its wait accumulator in one shot when it finally
/// inserts (`now − since`), so backlogs are never scanned per tick.
#[derive(Debug, Clone)]
struct Backlogged {
    id: VehicleId,
    route: Arc<Route>,
    since: Tick,
}

/// A counter that disagrees with the storage it summarizes, or a route
/// that disagrees with where its vehicle is, found by
/// `MicroSim::audit_counters` or `MicroSim::audit_routes`: the offending
/// word for a [`StateError::Invalid`] and a message for `verify_sensors`.
struct CounterMismatch {
    what: &'static str,
    word: u64,
    detail: String,
}

/// The counters a step maintains incrementally, as
/// `MicroSim::rescan_counters` recomputes them: per global lane, pending
/// reservations and detector counters; per road, occupancy, halt sum and
/// (under SharedMixed) movement counters.
struct Counters {
    pending: Vec<u32>,
    sensors: LaneSensors,
    roads: Vec<(u32, u32, Option<MovementCounters>)>,
}

/// What happened during one microscopic step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepReport {
    /// The instant that was simulated.
    pub(crate) tick: Tick,
    /// The decision applied at each intersection, indexed by
    /// `IntersectionId`.
    pub decisions: Vec<PhaseDecision>,
    /// Stop-line crossings started this step.
    pub(crate) crossings: u32,
    /// Vehicles that left the network this step.
    pub(crate) completed: u32,
    /// Vehicles inserted at boundary entries this step (excluding those
    /// pushed to a backlog).
    pub(crate) injected: u32,
}

impl StepReport {
    /// An empty report, ready to be passed to
    /// [`MicroSim::step_into`] — its buffers are reused across ticks.
    pub fn empty() -> Self {
        StepReport {
            tick: Tick::ZERO,
            decisions: Vec::new(),
            crossings: 0,
            completed: 0,
            injected: 0,
        }
    }
}

/// The microscopic simulator (SUMO substitute).
///
/// # Examples
///
/// ```
/// use utilbp_core::{SignalController, Tick, Ticks, UtilBp};
/// use utilbp_microsim::{MicroSim, MicroSimConfig};
/// use utilbp_netgen::{
///     DemandConfig, DemandGenerator, DemandSchedule, GridNetwork, GridSpec,
///     Pattern,
/// };
///
/// let grid = GridNetwork::new(GridSpec::paper());
/// let controllers = (0..9)
///     .map(|_| Box::new(UtilBp::paper()) as Box<dyn SignalController>)
///     .collect();
/// let mut sim = MicroSim::new(
///     grid.topology().clone(),
///     controllers,
///     MicroSimConfig::default(),
/// );
/// let mut demand = DemandGenerator::new(
///     &grid,
///     DemandConfig::new(DemandSchedule::constant(Pattern::II, Ticks::new(120))),
///     7,
/// );
/// for k in 0..120 {
///     let arrivals = demand.poll(&grid, Tick::new(k));
///     sim.step(arrivals);
/// }
/// assert!(sim.vehicles_in_network() > 0);
/// ```
pub struct MicroSim {
    topology: NetworkTopology,
    config: MicroSimConfig,
    controllers: Vec<ControllerSlot>,
    roads: Vec<RoadSim>,
    /// Every lane of every road in one network-wide segmented SoA arena,
    /// with the sorted active-road list the head and follower phases
    /// iterate (empty roads cost zero cache lines). Indexed by road.
    net: NetworkLanes,
    /// Per junction: the vehicles traversing its box.
    boxes: Vec<Vec<Crossing>>,
    /// Per-journey vehicle state (id, entry tick, route, cursor),
    /// slab-allocated.
    arena: VehicleArena,
    backlogs: Vec<VecDeque<Backlogged>>,
    ledger: WaitingLedger,
    now: Tick,
    total_crossings: u64,
    // Reusable per-step scratch (no steady-state allocation).
    /// One observation per intersection, rewritten every tick.
    obs_buf: ObservationBuffer,
    /// Drain buffer for the landing phase (empty between steps).
    landing_scratch: Vec<Crossing>,
    // Flat lookup tables, built once (plain integer indices for
    // borrow-free hot loops).
    /// Per road: destination intersection index, if internal/entry.
    road_dest: Vec<Option<usize>>,
    /// Every intersection's links; intersection `i` owns
    /// `link_off[i]..link_off[i + 1]`.
    links: Vec<LinkEntry>,
    link_off: Vec<usize>,
    /// Every intersection's outgoing roads by `OutgoingId`; intersection
    /// `i` owns `out_off[i]..out_off[i + 1]`.
    out_roads: Vec<u32>,
    out_off: Vec<usize>,
    /// Every phase's links (local `LinkId` indices): phase `p` of
    /// intersection `i` owns the range `phases[phase_base[i] + p]`.
    phase_links: Vec<u16>,
    phases: Vec<(usize, usize)>,
    phase_base: Vec<usize>,
    // Per-link state, indexed like `links`.
    /// Service credit (rate `µ` accumulates while green).
    credit: Vec<f64>,
    /// Whether the link is green this tick.
    link_active: Vec<bool>,
    // Per-lane state, indexed by global lane (`NetworkLanes::lane0(r) + l`).
    /// The movement link (at the road's destination) the lane is
    /// dedicated to; [`LINK_NONE`] on exit-road lanes.
    lane_link: Vec<u16>,
    /// Detector counters (vehicles in the detection window, halted).
    sensors: LaneSensors,
    /// Vehicles in a junction box heading for the lane — the
    /// reservations [`MicroSim::dest_lane_has_room`] reads in O(1).
    pending: Vec<u32>,
    /// Whether the lane's movement is green *with* service credit this
    /// tick, written by the signal-refresh pass (which visits every link
    /// anyway) so the head phase reads one flag per lane. Read only under
    /// dedicated lanes, where the lane→link map is static; a link's
    /// credit can drop below 1 mid-phase only by its own lane's release,
    /// and each lane is visited once, so the flag stays exact for the
    /// whole head phase.
    lane_green: Vec<bool>,
}

impl std::fmt::Debug for MicroSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MicroSim")
            .field("now", &self.now)
            .field("roads", &self.roads.len())
            .field("junctions", &self.boxes.len())
            .field("vehicles", &self.vehicles_in_network())
            .field("total_crossings", &self.total_crossings)
            .finish_non_exhaustive()
    }
}

impl MicroSim {
    /// Creates a simulator over `topology`, one controller per intersection
    /// (indexed by [`IntersectionId`]).
    ///
    /// # Panics
    ///
    /// Panics if the controller count does not match the intersection
    /// count or if a `config` field is out of range (see each field of
    /// [`MicroSimConfig`]).
    pub fn new(
        topology: NetworkTopology,
        controllers: Vec<Box<dyn SignalController>>,
        config: MicroSimConfig,
    ) -> Self {
        assert_eq!(
            controllers.len(),
            topology.num_intersections(),
            "one controller per intersection"
        );
        if let Err(msg) = config.validate() {
            panic!("invalid microsim config: {msg}");
        }

        // Lanes per road, by the link each is dedicated to: one per
        // movement at the destination junction; exit roads get enough
        // lanes to hold the declared W.
        let road_links: Vec<Vec<u16>> = topology
            .road_ids()
            .map(|r| {
                let road = topology.road(r);
                match road.dest() {
                    Some((i, arm)) => topology
                        .intersection(i)
                        .layout()
                        .links_from(arm)
                        .iter()
                        .map(|l| l.index() as u16)
                        .collect(),
                    None => {
                        let lane_cap =
                            (road.length_m() / config.jam_spacing_m()).floor().max(1.0) as u32;
                        vec![LINK_NONE; road.capacity().div_ceil(lane_cap).max(1) as usize]
                    }
                }
            })
            .collect();

        // Resident vehicles per lane are bounded by the road geometry;
        // sizing the network arena at the plateau up front keeps lane
        // growth out of the steady-state allocation profile.
        let shapes: Vec<(usize, usize)> = topology
            .road_ids()
            .map(|r| {
                let road = topology.road(r);
                let lane_capacity = (road.length_m() / config.jam_spacing_m()).floor() as usize + 1;
                (road_links[r.index()].len(), lane_capacity)
            })
            .collect();
        let net = NetworkLanes::new(&shapes);
        let num_lanes = net.total_lanes();

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
            for l in layout.link_ids() {
                let link = layout.link(l);
                let in_road = node.incoming_road(link.from()).index();
                let lane = layout
                    .links_from(link.from())
                    .iter()
                    .position(|&x| x == l)
                    .expect("a link leaves its own arm");
                links.push(LinkEntry {
                    in_lane: (net.lane0(in_road) + lane) as u32,
                    in_road: in_road as u32,
                    out_road: node.outgoing_road(link.to()).index() as u32,
                    mu_dt: link.service_rate() * config.dt_seconds,
                });
            }
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
                phase_links.extend(layout.phase(p).iter().map(|l| l.index() as u16));
                phases.push((start, phase_links.len()));
            }
        }

        let seed = config.seed;
        let roads: Vec<RoadSim> = topology
            .road_ids()
            .map(|r| {
                let road = topology.road(r);
                let move_counts = match (config.lane_discipline, road.dest()) {
                    (crate::LaneDiscipline::SharedMixed, Some((i, _))) => Some(
                        MovementCounters::new(topology.intersection(i).layout().num_links()),
                    ),
                    _ => None,
                };
                // Decorrelate road streams with a splitmix-style odd
                // multiplier; SmallRng scrambles the seed further.
                let rng = SmallRng::seed_from_u64(
                    seed ^ (r.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                RoadSim::new(road.length_m(), road.capacity(), &config, rng, move_counts)
            })
            .collect();

        let mut obs_buf = ObservationBuffer::new();
        obs_buf.shape_for(
            topology
                .intersection_ids()
                .map(|i| topology.intersection(i).layout()),
        );

        MicroSim {
            boxes: vec![Vec::new(); topology.num_intersections()],
            road_dest: topology
                .road_ids()
                .map(|r| topology.road(r).dest().map(|(i, _)| i.index()))
                .collect(),
            topology,
            config,
            controllers: ControllerSlot::wrap_all(controllers),
            roads,
            net,
            arena: VehicleArena::new(),
            backlogs: vec![VecDeque::new(); shapes.len()],
            ledger: WaitingLedger::new(),
            now: Tick::ZERO,
            total_crossings: 0,
            obs_buf,
            landing_scratch: Vec::new(),
            credit: vec![0.0; links.len()],
            link_active: vec![false; links.len()],
            links,
            link_off,
            out_roads,
            out_off,
            phase_links,
            phases,
            phase_base,
            lane_link: road_links.concat(),
            sensors: LaneSensors::new(num_lanes),
            pending: vec![0; num_lanes],
            lane_green: vec![false; num_lanes],
        }
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
    /// network (and those queued outside full entries) — the paper's
    /// "average queuing time of a vehicle". Folds the live per-vehicle
    /// wait accumulators into the ledger's completed statistics at query
    /// time; O(active vehicles), never touched by the step path.
    pub fn mean_waiting_including_active(&self) -> f64 {
        let now = self.now;
        let lane_waits = self.net.all_waits();
        let box_waits = self.boxes.iter().flat_map(|b| b.iter().map(|c| c.wait));
        let backlog_waits = self
            .backlogs
            .iter()
            .flat_map(|b| b.iter().map(move |e| now.saturating_since(e.since).count()));
        self.ledger
            .mean_waiting_including_active(lane_waits.chain(box_waits).chain(backlog_waits))
    }

    /// Stop-line crossings since the start.
    pub fn total_crossings(&self) -> u64 {
        self.total_crossings
    }

    /// Vehicles currently on lanes or in junction boxes.
    pub fn vehicles_in_network(&self) -> usize {
        let on_lanes = self.net.total_vehicles();
        let in_boxes: usize = self.boxes.iter().map(Vec::len).sum();
        on_lanes + in_boxes
    }

    /// Vehicles waiting outside full boundary entries.
    pub fn backlog_len(&self) -> usize {
        self.backlogs.iter().map(|b| b.len()).sum()
    }

    /// Debug/test digest of the fleet state: `(on-lane vehicles, in-box
    /// vehicles, Σ position, Σ speed)`, with the sums taken over on-lane
    /// vehicles in road/lane/front-to-back order. Backs the
    /// arena-vs-legacy semantics oracle in the regression suite.
    pub fn fleet_digest(&self) -> (usize, usize, f64, f64) {
        let mut on_lanes = 0usize;
        let mut pos = 0.0f64;
        let mut speed = 0.0f64;
        for r in 0..self.roads.len() {
            for l in 0..self.net.num_lanes(r) {
                for i in 0..self.net.len(r, l) {
                    on_lanes += 1;
                    pos += self.net.pos_at(r, l, i);
                    speed += self.net.speed_at(r, l, i);
                }
            }
        }
        let in_boxes: usize = self.boxes.iter().map(Vec::len).sum();
        (on_lanes, in_boxes, pos, speed)
    }

    /// Closes or reopens a road (a disruption event). A closed road admits
    /// no new traffic — heads are never released toward it and boundary
    /// insertions on a closed entry road stay in the backlog — but
    /// vehicles already on it keep driving and may leave it, like a
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

    /// Detected queue `q_i^{i'}` for `link` at `intersection`: vehicles
    /// present on the movement's dedicated lane within the detector range
    /// of the stop line. Presence (rather than halting) is used upstream
    /// so a *discharging* queue keeps exerting pressure until it has
    /// physically cleared the junction — halting counts collapse the
    /// moment the queue starts rolling, which makes every adaptive
    /// controller thrash.
    ///
    /// Under [`LaneDiscipline::DedicatedPerMovement`](crate::LaneDiscipline)
    /// this is an O(1) read of the lane's incrementally maintained
    /// detector counter.
    ///
    /// # Panics
    ///
    /// Panics if the ids are out of range.
    pub fn movement_queue_len(&self, intersection: IntersectionId, link: LinkId) -> u32 {
        let i = intersection.index();
        self.link_queue(&self.links[self.link_off[i] + link.index()], link.index())
    }

    /// Total vehicles bound for `link` on the incoming road, over its
    /// whole length, regardless of the detector range.
    ///
    /// # Panics
    ///
    /// Panics if the ids are out of range.
    pub fn movement_count(&self, intersection: IntersectionId, link: LinkId) -> u32 {
        let entry = self.links[self.link_off[intersection.index()] + link.index()];
        let r = entry.in_road as usize;
        match &self.roads[r].move_counts {
            // SharedMixed: the per-(road, link) counter.
            Some(mv) => mv.total[link.index()],
            None => self.net.len(r, entry.in_lane as usize - self.net.lane0(r)) as u32,
        }
    }

    /// The detected queue of link `entry` (local index `link`): the
    /// dedicated lane's detector counter, or under
    /// [`LaneDiscipline::SharedMixed`](crate::LaneDiscipline), where a
    /// movement's vehicles may sit on any lane, the incoming road's
    /// per-link counter.
    #[inline]
    fn link_queue(&self, entry: &LinkEntry, link: usize) -> u32 {
        if self.config.lane_discipline == crate::LaneDiscipline::DedicatedPerMovement {
            return self.sensors.detected[entry.in_lane as usize];
        }
        self.roads[entry.in_road as usize]
            .move_counts
            .as_ref()
            .map_or(0, |mv| mv.detected[link])
    }

    /// Halted vehicles across all lanes of a road (whole length) — the
    /// outgoing-road sensor reading `q_{i'}`, an O(1) read of the road's
    /// incremental halt sum.
    ///
    /// # Panics
    ///
    /// Panics if `road` is out of range.
    pub fn road_halted(&self, road: RoadId) -> u32 {
        self.roads[road.index()].halted_sum
    }

    /// Detected total queue `q_i` (Eq. 1) at an incoming arm — the paper's
    /// Fig. 5 quantity.
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

    /// Occupancy of a road (vehicles on its lanes plus inbound junction-box
    /// reservations).
    ///
    /// # Panics
    ///
    /// Panics if `road` is out of range.
    pub fn road_occupancy(&self, road: RoadId) -> u32 {
        self.roads[road.index()].occupancy
    }

    /// Cumulative vehicles that have entered `road` since the start
    /// (boundary insertions plus junction-box landings).
    ///
    /// # Panics
    ///
    /// Panics if `road` is out of range.
    pub fn road_entered(&self, road: RoadId) -> u64 {
        self.roads[road.index()].entered
    }

    /// Writes the observation the controller at `intersection` sees into
    /// `obs` (shaped for the intersection's layout) without allocating.
    /// Returns whether any reading differs from the one it overwrote,
    /// which is how the sense pass marks the intersections whose
    /// controllers must decide again.
    ///
    /// # Panics
    ///
    /// Panics if `intersection` is out of range or `obs` has the wrong
    /// shape.
    pub(crate) fn observe_into(
        &self,
        intersection: IntersectionId,
        obs: &mut QueueObservation,
    ) -> bool {
        // A gather over the flat link and outgoing-road tables: no
        // topology or layout walk.
        let i = intersection.index();
        let mut changed = false;
        let links = &self.links[self.link_off[i]..self.link_off[i + 1]];
        let movements = obs.movements_mut();
        assert_eq!(movements.len(), links.len(), "observation shape");
        for (l, (q, entry)) in movements.iter_mut().zip(links).enumerate() {
            let reading = self.link_queue(entry, l);
            changed |= *q != reading;
            *q = reading;
        }
        let outs = &self.out_roads[self.out_off[i]..self.out_off[i + 1]];
        let outgoings = obs.outgoings_mut();
        assert_eq!(outgoings.len(), outs.len(), "observation shape");
        for (q, &road) in outgoings.iter_mut().zip(outs) {
            let reading = self.roads[road as usize].halted_sum;
            changed |= *q != reading;
            *q = reading;
        }
        changed
    }

    /// Validates the incremental-sensing invariants: every lane's detector
    /// and halt counters must equal a from-scratch rescan, every lane's
    /// pending-reservation counter must equal the number of junction-box
    /// crossings heading for it, the movement counters must equal a
    /// rescan of the lanes' cached links, and every vehicle's route must
    /// continue from where the vehicle is (see `audit_routes`).
    /// Debug/test facility backing the regression suite.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first divergent road/lane.
    pub fn verify_sensors(&self) -> Result<(), String> {
        self.net.verify_active()?;
        self.audit_routes().map_err(|m| m.detail)?;
        for (r, backlog) in self.backlogs.iter().enumerate() {
            for entry in backlog {
                (self.check_backlog_route(r, &entry.route)).map_err(|m| m.detail)?;
            }
        }
        self.audit_counters().map_err(|m| m.detail)
    }

    /// Checks the remaining route of every vehicle on a lane or in a
    /// junction box, without allocating: a lane vehicle's route must
    /// continue from its road, its next movement being the lane's cached
    /// link (and, under dedicated lanes, the lane's own movement); a
    /// junction-box vehicle's from its destination road, into the
    /// destination lane dedicated to its next movement. Shared by
    /// [`verify_sensors`](Self::verify_sensors) and
    /// [`load_state`](Self::load_state), which must refuse a snapshot
    /// whose routes would otherwise panic at step time; both check
    /// backlogged routes with [`check_backlog_route`](Self::check_backlog_route).
    fn audit_routes(&self) -> Result<(), CounterMismatch> {
        let dedicated = self.config.lane_discipline == crate::LaneDiscipline::DedicatedPerMovement;
        for r in 0..self.roads.len() {
            for l in 0..self.net.num_lanes(r) {
                let g = self.net.lane0(r) + l;
                for i in 0..self.net.len(r, l) {
                    let slot = self.net.slot_at(r, l, i);
                    let next = self.check_route(r, self.arena.route(slot), self.arena.hop(slot))?;
                    let link = self.net.link_at(r, l, i);
                    let routed = match (next, self.road_dest[r]) {
                        (Some(k), Some(j)) => {
                            usize::from(link) == k - self.link_off[j]
                                && (!dedicated || self.links[k].in_lane as usize == g)
                        }
                        _ => link == LINK_NONE,
                    };
                    if !routed {
                        return Err(CounterMismatch {
                            what: "lane vehicle route",
                            word: u64::from(link),
                            detail: format!(
                                "road {r} lane {l} vehicle {i}: cached link {link} is not the \
                                 route's next movement on this lane"
                            ),
                        });
                    }
                }
            }
        }
        for c in self.boxes.iter().flatten() {
            let next = self.check_route(
                c.dest_road,
                self.arena.route(c.slot),
                self.arena.hop(c.slot),
            )?;
            let lane = self.net.lane0(c.dest_road) + c.dest_lane;
            if let (true, Some(k)) = (dedicated, next) {
                if self.links[k].in_lane as usize != lane {
                    return Err(CounterMismatch {
                        what: "crossing destination lane",
                        word: c.dest_lane as u64,
                        detail: format!(
                            "road {}: crossing lands in lane {}, not its next movement's",
                            c.dest_road, c.dest_lane
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    /// Checks a backlogged vehicle's route: it must enter at `r`, the
    /// road whose backlog holds it, and continue from there (see
    /// [`check_route`](Self::check_route)).
    fn check_backlog_route(&self, r: usize, route: &Route) -> Result<(), CounterMismatch> {
        if route.entry().index() != r {
            return Err(CounterMismatch {
                what: "backlog route entry",
                word: route.entry().index() as u64,
                detail: format!("road {r}: backlogged route enters elsewhere"),
            });
        }
        self.check_route(r, route, 0).map(|_| ())
    }

    /// Walks `route` from hop `hop` on `road` to the network exit: each
    /// hop must name a link of its junction's layout, leaving the road
    /// the previous hop entered (the first, `road`), and the last hop
    /// must enter an exit road. Returns the first hop's global link index
    /// (`None` on an exit road). Each hop's lookups are independent of
    /// the previous hop's, so long backlogs validate at memory speed.
    fn check_route(
        &self,
        road: usize,
        route: &Route,
        hop: usize,
    ) -> Result<Option<usize>, CounterMismatch> {
        let bad = |what: &'static str, at: usize| CounterMismatch {
            what,
            word: at as u64,
            detail: format!("road {road}: route hop {at} does not continue from hop {hop}"),
        };
        let hops = route
            .hops()
            .get(hop..)
            .ok_or_else(|| bad("route hop", hop))?;
        let mut from = road as u32;
        for (n, &(i, link)) in hops.iter().enumerate() {
            let k = match self.link_off.get(i.index()..i.index() + 2) {
                Some(&[start, end]) if link.index() < end - start => start + link.index(),
                _ => return Err(bad("route link", hop + n)),
            };
            let entry = &self.links[k];
            if entry.in_road != from {
                return Err(bad("route link", hop + n));
            }
            from = entry.out_road;
        }
        if self.road_dest[from as usize].is_some() {
            return Err(bad("route hop", route.len()));
        }
        Ok(hops
            .first()
            .map(|&(i, link)| self.link_off[i.index()] + link.index()))
    }

    /// Every incrementally maintained counter, recomputed from the
    /// storage it summarizes: per-lane detector and halt counters and the
    /// roads' halt sums from a rescan of the lanes, pending reservations
    /// from the junction boxes, road occupancies from the lanes and the
    /// reservations, movement counters from the lanes' cached links
    /// (which [`audit_routes`](Self::audit_routes), run first, has
    /// checked). [`audit_counters`](Self::audit_counters) compares the
    /// live counters with it; [`load_state`](Self::load_state) installs
    /// it, since a capture stores no counter.
    fn rescan_counters(&self) -> Counters {
        let mut fresh = Counters {
            pending: vec![0; self.pending.len()],
            sensors: LaneSensors::new(self.pending.len()),
            roads: Vec::with_capacity(self.roads.len()),
        };
        for c in self.boxes.iter().flatten() {
            fresh.pending[self.net.lane0(c.dest_road) + c.dest_lane] += 1;
        }
        for (r, road) in self.roads.iter().enumerate() {
            let num_links =
                self.road_dest[r].map_or(0, |j| self.link_off[j + 1] - self.link_off[j]);
            let mut moves = road
                .move_counts
                .as_ref()
                .map(|_| MovementCounters::new(num_links));
            let mut halted_sum = 0;
            for l in 0..self.net.num_lanes(r) {
                let g = self.net.lane0(r) + l;
                let (detected, halted) = self.net.rescan_sensors(r, l, road.spec);
                (fresh.sensors.detected[g], fresh.sensors.halted[g]) = (detected, halted);
                halted_sum += halted;
                if let Some(moves) = moves.as_mut() {
                    for i in 0..self.net.len(r, l) {
                        let link = usize::from(self.net.link_at(r, l, i));
                        moves.add(link, self.net.pos_at(r, l, i), road.spec);
                    }
                }
            }
            let lanes = self.net.lane0(r)..self.net.lane0(r) + self.net.num_lanes(r);
            let reserved: u32 = fresh.pending[lanes].iter().sum();
            let occupancy = self.net.road_len(r) as u32 + reserved;
            fresh.roads.push((occupancy, halted_sum, moves));
        }
        fresh
    }

    /// Checks every incrementally maintained counter against
    /// [`rescan_counters`](Self::rescan_counters). Backs
    /// [`verify_sensors`](Self::verify_sensors).
    fn audit_counters(&self) -> Result<(), CounterMismatch> {
        let fresh = self.rescan_counters();
        for (r, road) in self.roads.iter().enumerate() {
            for l in 0..self.net.num_lanes(r) {
                let g = self.net.lane0(r) + l;
                let counters = (self.sensors.detected[g], self.sensors.halted[g]);
                let rescan = (fresh.sensors.detected[g], fresh.sensors.halted[g]);
                if counters != rescan {
                    return Err(CounterMismatch {
                        what: "lane sensor counter",
                        word: u64::from(counters.0),
                        detail: format!(
                            "road {r} lane {l}: incremental (detected {}, halted {}) != rescan \
                             (detected {}, halted {})",
                            counters.0, counters.1, rescan.0, rescan.1
                        ),
                    });
                }
                if self.pending[g] != fresh.pending[g] {
                    return Err(CounterMismatch {
                        what: "lane pending reservations",
                        word: u64::from(self.pending[g]),
                        detail: format!(
                            "road {r} lane {l}: pending reservations {} != in-box scan {}",
                            self.pending[g], fresh.pending[g]
                        ),
                    });
                }
            }
            let (occupancy, halted_sum, moves) = &fresh.roads[r];
            if road.occupancy != *occupancy {
                return Err(CounterMismatch {
                    what: "road occupancy",
                    word: u64::from(road.occupancy),
                    detail: format!(
                        "road {r}: occupancy {} != vehicles on its lanes plus crossings \
                         bound for it {occupancy}",
                        road.occupancy
                    ),
                });
            }
            if road.halted_sum != *halted_sum {
                return Err(CounterMismatch {
                    what: "road sensor sum",
                    word: u64::from(road.halted_sum),
                    detail: format!(
                        "road {r}: halted sum {} != rescan {halted_sum}",
                        road.halted_sum
                    ),
                });
            }
            if let (Some(mv), Some(moves)) = (&road.move_counts, moves) {
                if (&mv.total, &mv.detected) != (&moves.total, &moves.detected) {
                    return Err(CounterMismatch {
                        what: "movement counter",
                        word: r as u64,
                        detail: format!(
                            "road {r}: incremental movement counters (total {:?}, detected {:?}) \
                             != rescan (total {:?}, detected {:?})",
                            mv.total, mv.detected, moves.total, moves.detected
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    /// Simulates one step of `Δt`, injecting this tick's `arrivals`.
    pub fn step(&mut self, arrivals: Vec<Arrival>) -> StepReport {
        let mut arrivals = arrivals;
        let mut report = StepReport::empty();
        self.step_into(&mut arrivals, &mut report, None);
        report
    }

    /// Allocation-free variant of [`step`](Self::step): drains `arrivals`
    /// and overwrites `report` in place, reusing its buffers. This is the
    /// steady-state hot path — callers that reuse the same `Vec<Arrival>`
    /// and [`StepReport`] across ticks incur no per-tick heap allocation
    /// from observations or decision vectors. With a `profiler`
    /// attached, the step laps each of its four phase groups into it
    /// once (see [`Section`] for what each lap covers); without, the
    /// step takes no clock readings.
    pub fn step_into(
        &mut self,
        arrivals: &mut Vec<Arrival>,
        report: &mut StepReport,
        profiler: Option<&mut TickProfiler>,
    ) {
        let now = self.now;
        let mut watch = PhaseStopwatch::new(profiler);

        // 1. Sense: rewrite the per-intersection observation buffer from
        //    the incremental detector counters, gathered through the flat
        //    link tables (O(links) per junction), marking the junctions
        //    whose readings differ.
        let mut obs_buf = std::mem::take(&mut self.obs_buf);
        for i in 0..obs_buf.len() {
            obs_buf.sense(i, |obs| {
                self.observe_into(IntersectionId::new(i as u32), obs)
            });
        }

        // 2. Decide: one controller per intersection, reading only its own
        //    observation, called where readings changed or where it is
        //    not at rest.
        let topology = &self.topology;
        let calls = decide::decide_all(&mut self.controllers, &mut obs_buf, now, |idx| {
            topology
                .intersection(IntersectionId::new(idx as u32))
                .layout()
        });
        watch.count_decide_calls(calls);
        self.obs_buf = obs_buf;

        // 3. Refresh per-link green flags and service credits, and each
        //    link's lane green-with-credit flag, in one pass over the flat
        //    link table.
        for i in 0..self.boxes.len() {
            let (a, b) = (self.link_off[i], self.link_off[i + 1]);
            let active = &mut self.link_active[a..b];
            active.fill(false);
            if let PhaseDecision::Control(phase) = self.controllers[i].decision {
                let (start, end) = self.phases[self.phase_base[i] + phase.index()];
                for &l in &self.phase_links[start..end] {
                    active[usize::from(l)] = true;
                }
            }
            for k in a..b {
                let LinkEntry { in_lane, mu_dt, .. } = self.links[k];
                let green = self.link_active[k];
                let credit = &mut self.credit[k];
                *credit = if green {
                    (*credit + mu_dt).min(mu_dt.max(1.0))
                } else {
                    0.0
                };
                self.lane_green[in_lane as usize] = green && *credit >= 1.0;
            }
        }
        watch.lap(Section::Decide);

        // 4. Box countdown.
        for c in self.boxes.iter_mut().flatten() {
            if c.remaining > 0 {
                c.remaining -= 1;
            }
        }

        // 5. Head phase: decide release for every lane head and advance
        //    it; crossings mutate shared junction/road state (credits,
        //    occupancies, reservations). Head decisions see the
        //    tick-start state of other roads plus crossings already
        //    applied earlier in this loop.
        let mut crossings = 0u32;
        let mut completed = 0u32;
        // Occupancy-ordered sweep: only roads with vehicles are visited
        // (ascending road index, same per-road order as a full scan, so
        // the per-road RNG streams are untouched — empty lanes never drew).
        // During road `r`'s turn the only possible active-list mutation
        // is `r` itself deactivating (pops land in junction boxes, not on
        // other roads' lanes), so the cursor advances only when `r` is
        // still listed at it.
        let mut ai = 0usize;
        while ai < self.net.num_active() {
            let r = self.net.active_road(ai);
            let length = self.roads[r].length;
            let spec = self.roads[r].spec;
            let dest = self.road_dest[r];
            let lane0 = self.net.lane0(r);
            for lane_idx in 0..self.net.num_lanes(r) {
                if self.net.is_empty(r, lane_idx) {
                    continue;
                }
                let g = lane0 + lane_idx;
                // Release decision for the head vehicle.
                let (mode, head_dest) = match dest {
                    None => (HeadMode::Release, None),
                    Some(j) => {
                        // Green-with-credit: the refresh pass's per-lane
                        // flag under dedicated lanes; the live per-link
                        // verdict under SharedMixed (head-of-line
                        // semantics — whatever movement the *head* vehicle
                        // needs governs the lane; its cached link never
                        // changes on-road).
                        let (green, k) = match self.config.lane_discipline {
                            crate::LaneDiscipline::DedicatedPerMovement => (
                                self.lane_green[g],
                                self.link_off[j] + usize::from(self.lane_link[g]),
                            ),
                            crate::LaneDiscipline::SharedMixed => {
                                let k = self.link_off[j]
                                    + usize::from(self.net.link_at(r, lane_idx, 0));
                                (self.link_active[k] && self.credit[k] >= 1.0, k)
                            }
                        };
                        let out_r = self.links[k].out_road as usize;
                        if green
                            && !self.roads[out_r].closed
                            && self.roads[out_r].occupancy < self.roads[out_r].capacity
                        {
                            let slot = self.net.slot_at(r, lane_idx, 0);
                            let dest_lane = self.choose_dest_lane(
                                out_r,
                                self.arena.hop(slot) + 1,
                                self.arena.route(slot),
                            );
                            if self.dest_lane_has_room(out_r, dest_lane) {
                                (HeadMode::Release, Some((j, k, out_r, dest_lane)))
                            } else {
                                (HeadMode::Blocked, None)
                            }
                        } else {
                            (HeadMode::Blocked, None)
                        }
                    }
                };

                let road = &mut self.roads[r];
                let outcome = advance_head(
                    &mut self.net,
                    r,
                    lane_idx,
                    length,
                    mode,
                    &self.config,
                    spec,
                    &mut road.rng,
                    road.move_counts.as_mut(),
                );
                // Folded unconditionally: a zero delta is a no-op, and a
                // data-dependent skip would be one more mispredicted branch.
                let (dd, hd) = (outcome.detected_delta.into(), outcome.halted_delta.into());
                fold_counter(&mut self.sensors.detected[g], dd, || {
                    format!("road {r} lane {lane_idx} detected")
                });
                fold_counter(&mut self.sensors.halted[g], hd, || {
                    format!("road {r} lane {lane_idx} halted")
                });
                fold_counter(&mut road.halted_sum, hd, || format!("road {r} halted sum"));
                if let Some((slot, wait)) = outcome.crossed {
                    match head_dest {
                        None => {
                            // Exit road: the vehicle leaves the network,
                            // flushing its accumulated waiting.
                            fold_counter(&mut road.occupancy, -1, || format!("road {r} occupancy"));
                            let entered = self.arena.release(slot);
                            self.ledger.complete(entered, now, wait);
                            completed += 1;
                        }
                        Some((j, k, out_r, dest_lane)) => {
                            self.credit[k] -= 1.0;
                            fold_counter(&mut road.occupancy, -1, || format!("road {r} occupancy"));
                            self.roads[out_r].occupancy += 1;
                            self.pending[self.net.lane0(out_r) + dest_lane] += 1;
                            self.arena.bump_hop(slot);
                            self.boxes[j].push(Crossing {
                                slot,
                                wait,
                                remaining: self.config.crossing_ticks,
                                dest_road: out_r,
                                dest_lane,
                            });
                            crossings += 1;
                            self.total_crossings += 1;
                        }
                    }
                }
            }
            // Advance past `r` unless its last vehicle just crossed (then
            // the list already shifted left under the cursor).
            if ai < self.net.num_active() && self.net.active_road(ai) == r {
                ai += 1;
            }
        }

        // 6. Car-following for the remaining vehicles: per-road work with
        //    no cross-road reads or writes — the expensive phase. It walks
        //    the active-road list over the network arena (a few linear
        //    sweeps, zero allocation), keeping several roads in flight
        //    (see `sweep_followers`).
        sweep_followers(
            &mut self.net,
            &mut self.roads,
            &mut self.sensors,
            &self.config,
        );
        watch.lap(Section::CarFollowing);

        // 7. Land vehicles whose box traversal finished. Ready crossings
        //    are drained through a reused scratch vector so box order is
        //    preserved for the held ones, without per-tick allocation.
        {
            let roads = &mut self.roads;
            let net = &mut self.net;
            let sensors = &mut self.sensors;
            let pending = &mut self.pending;
            let config = &self.config;
            let scratch = &mut self.landing_scratch;
            let arena = &self.arena;
            for in_box in self.boxes.iter_mut() {
                if in_box.is_empty() {
                    continue;
                }
                std::mem::swap(in_box, scratch);
                for crossing in scratch.drain(..) {
                    if crossing.remaining > 0 {
                        in_box.push(crossing);
                        continue;
                    }
                    let road = &mut roads[crossing.dest_road];
                    if !net.entry_clear(crossing.dest_road, crossing.dest_lane, road.length, config)
                    {
                        // Held in the box until the lane entry clears.
                        in_box.push(crossing);
                        continue;
                    }
                    let leader = lane_entry_leader(
                        net,
                        crossing.dest_road,
                        crossing.dest_lane,
                        road.length,
                        config,
                    );
                    let speed = next_speed(config.insertion_speed_mps, leader, 0.0, config);
                    let mut wait = crossing.wait;
                    if speed < config.waiting_speed_mps {
                        // Landed into a standing queue: this tick already
                        // counts as waiting (the follower phase that
                        // normally records it has passed).
                        wait += 1;
                    }
                    let link = arena
                        .route(crossing.slot)
                        .hop(arena.hop(crossing.slot))
                        .map_or(LINK_NONE, |(_, l)| l.index() as u16);
                    let g = net.lane0(crossing.dest_road) + crossing.dest_lane;
                    road.sensor_add(sensors, g, 0.0, speed);
                    if let (Some(mv), true) = (road.move_counts.as_mut(), link != LINK_NONE) {
                        mv.add(link as usize, 0.0, road.spec);
                    }
                    net.push(
                        crossing.dest_road,
                        crossing.dest_lane,
                        0.0,
                        speed,
                        wait,
                        crossing.slot,
                        link,
                    );
                    pending[g] -= 1;
                    road.entered += 1;
                }
            }
        }
        watch.lap(Section::Landings);

        // 8. Insertions: backlog first, then this tick's arrivals. The
        //    slot is probed before popping, so nothing is cloned and a
        //    backlogged vehicle is only removed once its insert succeeds;
        //    its whole backlog dwell is credited to its wait accumulator
        //    here, in one shot (backlogs are never scanned per tick).
        let mut injected = 0u32;
        for r in 0..self.roads.len() {
            while let Some(front) = self.backlogs[r].front() {
                let Some(lane_idx) = self.insert_slot(r, &front.route) else {
                    break;
                };
                let entry = self.backlogs[r].pop_front().expect("checked front");
                let dwell = now.saturating_since(entry.since).count();
                self.place_vehicle(r, lane_idx, entry.id, entry.since, entry.route, dwell);
            }
        }
        for arrival in arrivals.drain(..) {
            let Arrival { vehicle, route, .. } = arrival;
            let r = route.entry().index();
            self.ledger.enter();
            if self.backlogs[r].is_empty() {
                if let Some(lane_idx) = self.insert_slot(r, &route) {
                    self.place_vehicle(r, lane_idx, vehicle, now, route, 0);
                    injected += 1;
                    continue;
                }
            }
            self.backlogs[r].push_back(Backlogged {
                id: vehicle,
                route,
                since: now,
            });
        }

        self.now = now.next();
        report.tick = now;
        report.decisions.clear();
        report
            .decisions
            .extend(self.controllers.iter().map(|slot| slot.decision));
        report.crossings = crossings;
        report.completed = completed;
        report.injected = injected;
        watch.lap(Section::Waiting);
    }

    /// The destination lane on `out_road` for a vehicle whose next hop is
    /// `hop`.
    fn choose_dest_lane(&self, out_road: usize, hop: usize, route: &Route) -> usize {
        match (self.road_dest[out_road], self.config.lane_discipline) {
            (Some(_next_i), crate::LaneDiscipline::DedicatedPerMovement) => {
                let (next_i, link) = route
                    .hop(hop)
                    .expect("internal destination road implies a further hop");
                debug_assert_eq!(next_i.index(), _next_i, "route disagrees with topology");
                self.dedicated_lane(out_road, link)
            }
            // Exit roads and mixed-lane roads: pick the lane with the most
            // entry space.
            _ => self.emptiest_lane(out_road),
        }
    }

    /// The lane of `road` dedicated to `link` at the road's destination.
    fn dedicated_lane(&self, road: usize, link: LinkId) -> usize {
        let j = self.road_dest[road].expect("a lane dedicated to a link feeds a junction");
        self.links[self.link_off[j] + link.index()].in_lane as usize - self.net.lane0(road)
    }

    /// The lane of `road` with the most entry space.
    fn emptiest_lane(&self, road: usize) -> usize {
        let length = self.roads[road].length;
        let mut best = 0usize;
        let mut best_tail = f64::NEG_INFINITY;
        for i in 0..self.net.num_lanes(road) {
            let tail = self.net.tail_position(road, i, length);
            if tail > best_tail {
                best_tail = tail;
                best = i;
            }
        }
        best
    }

    /// Whether `dest_lane` on `out_road` can absorb one more crossing,
    /// counting vehicles already in boxes heading for the same lane —
    /// an O(1) read of the road's pending-reservation counter.
    fn dest_lane_has_room(&self, out_road: usize, dest_lane: usize) -> bool {
        let road = &self.roads[out_road];
        let pending = self.pending[self.net.lane0(out_road) + dest_lane] as f64;
        let tail = self.net.tail_position(out_road, dest_lane, road.length);
        tail >= self.config.jam_spacing_m() * (pending + 1.0)
    }

    /// The lane on entry road `r` that can absorb `route`'s vehicle right
    /// now, or `None` if the road is full or the lane entry is blocked.
    fn insert_slot(&self, r: usize, route: &Route) -> Option<usize> {
        if self.roads[r].closed || self.roads[r].occupancy >= self.roads[r].capacity {
            return None;
        }
        let (_, link) = route.hop(0).expect("routes have at least one hop");
        let lane_idx = match self.config.lane_discipline {
            crate::LaneDiscipline::DedicatedPerMovement => self.dedicated_lane(r, link),
            crate::LaneDiscipline::SharedMixed => self.emptiest_lane(r),
        };
        if !self
            .net
            .entry_clear(r, lane_idx, self.roads[r].length, &self.config)
        {
            return None;
        }
        Some(lane_idx)
    }

    /// Inserts a vehicle that entered the network at `entered` at the
    /// start of lane `lane_idx` of road `r` (which
    /// [`insert_slot`](Self::insert_slot) must have cleared), seeding its
    /// wait accumulator with `wait` already-accrued ticks (backlog
    /// dwell).
    fn place_vehicle(
        &mut self,
        r: usize,
        lane_idx: usize,
        id: VehicleId,
        entered: Tick,
        route: Arc<Route>,
        mut wait: u64,
    ) {
        let (_, link) = route.hop(0).expect("routes have at least one hop");
        let link = link.index() as u16;
        let slot = self.arena.insert(id, entered, route);
        let length = self.roads[r].length;
        let leader = lane_entry_leader(&self.net, r, lane_idx, length, &self.config);
        let speed = next_speed(self.config.insertion_speed_mps, leader, 0.0, &self.config);
        if speed < self.config.waiting_speed_mps {
            // Inserted into a standing queue after the follower phase:
            // this tick already counts as waiting.
            wait += 1;
        }
        let road = &mut self.roads[r];
        road.sensor_add(&mut self.sensors, self.net.lane0(r) + lane_idx, 0.0, speed);
        if let Some(mv) = road.move_counts.as_mut() {
            mv.add(link as usize, 0.0, road.spec);
        }
        road.occupancy += 1;
        road.entered += 1;
        self.net.push(r, lane_idx, 0.0, speed, wait, slot, link);
    }

    /// Visits every vehicle that still has junction crossings ahead of it
    /// and lets `replan` rewrite its remaining route (en-route
    /// replanning; part of the `TrafficSubstrate` contract in
    /// `utilbp-substrate`).
    ///
    /// The walk order is deterministic: roads in index order (lanes in
    /// order, head to tail), then junction boxes in index order (box
    /// order), then backlogs in road order (FIFO). The callback receives
    /// the vehicle's id, its route, and the number of committed leading hops —
    /// `cursor + 1` for vehicles in the network, whose current lane (or,
    /// while crossing, destination lane) is bound to the cursor's
    /// movement, and `0` for backlogged vehicles that have not entered
    /// yet. A returned replacement must preserve exactly that prefix; the
    /// lanes' cached link indices and the pending-reservation counters
    /// stay valid because the bound movement never changes. Returns the
    /// number of vehicles rewritten; draws no randomness.
    pub fn replan_routes(&mut self, replan: &mut utilbp_netgen::RouteRewrite<'_>) -> u64 {
        let mut diverted = 0u64;
        for r in 0..self.roads.len() {
            for lane_idx in 0..self.net.num_lanes(r) {
                for i in 0..self.net.len(r, lane_idx) {
                    let slot = self.net.slot_at(r, lane_idx, i);
                    let fixed = self.arena.hop(slot) + 1;
                    if let Some(route) = replan(self.arena.id(slot), self.arena.route(slot), fixed)
                    {
                        self.arena.set_route(slot, route);
                        diverted += 1;
                    }
                }
            }
        }
        for j in 0..self.boxes.len() {
            for c in 0..self.boxes[j].len() {
                let slot = self.boxes[j][c].slot;
                let fixed = self.arena.hop(slot) + 1;
                if let Some(route) = replan(self.arena.id(slot), self.arena.route(slot), fixed) {
                    self.arena.set_route(slot, route);
                    diverted += 1;
                }
            }
        }
        for backlog in &mut self.backlogs {
            for entry in backlog.iter_mut() {
                if let Some(route) = replan(entry.id, &entry.route, 0) {
                    entry.route = route;
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

    /// Serializes the whole plant state — the waiting ledger, the fleet
    /// (arena + lanes), per-road RNG stream positions, junction boxes and
    /// credits, closure flags, backlogs, and every controller's state — such
    /// that [`load_state`](Self::load_state) into a freshly built
    /// simulator (same topology, config, and controller composition)
    /// continues bit-identically to the uninterrupted run.
    ///
    /// Intra-step scratch (observation buffers, per-step green flags,
    /// landing drains, the lanes' dequeue offsets) is *not* state: it is
    /// rebuilt by the next step's earlier phases, and canonicalizing it
    /// away makes save → load → save a byte-level fixed point. Nor are
    /// the incremental counters (road occupancies, halt sums, per-lane
    /// detector counters and pending reservations, movement counters):
    /// they summarize the fleet and the junction boxes, and load
    /// rebuilds them from those.
    pub fn save_state(&self, writer: &mut StateWriter) {
        writer.push(self.now.index());
        writer.push(self.total_crossings);
        self.ledger.save_state(writer);
        self.arena.save_state(writer);
        writer.push_usize(self.roads.len());
        for (r, road) in self.roads.iter().enumerate() {
            writer.push_bool(road.closed);
            writer.push(road.entered);
            writer.push_usize(self.net.num_lanes(r));
            for l in 0..self.net.num_lanes(r) {
                self.net.save_lane(r, l, writer);
            }
            for word in road.rng.state() {
                writer.push(word);
            }
        }
        writer.push_usize(self.boxes.len());
        for (j, in_box) in self.boxes.iter().enumerate() {
            writer.push_usize(in_box.len());
            for c in in_box {
                writer.push_u32(c.slot);
                writer.push(c.wait);
                writer.push(c.remaining);
                writer.push_usize(c.dest_road);
                writer.push_usize(c.dest_lane);
            }
            let credits = &self.credit[self.link_off[j]..self.link_off[j + 1]];
            writer.push_usize(credits.len());
            for &credit in credits {
                writer.push_f64(credit);
            }
        }
        for backlog in &self.backlogs {
            writer.push_usize(backlog.len());
            for entry in backlog {
                writer.push(entry.id.raw());
                writer.push(entry.since.index());
                entry.route.save_state(writer);
            }
        }
        for slot in &self.controllers {
            slot.controller.save_state(writer);
        }
    }

    /// Restores plant state saved by [`save_state`](Self::save_state)
    /// into this simulator, which must have been built over the same
    /// topology, configuration, and controller composition.
    ///
    /// # Errors
    ///
    /// Returns a [`StateError`] on a truncated or corrupt stream; when
    /// the saved shape (road/lane/junction counts) disagrees with this
    /// simulator's topology; on an index that points nowhere (a lane or
    /// junction-box vehicle slot that is not live in the arena or is
    /// shared, a live slot no vehicle holds, a crossing's destination
    /// road or lane out of range); on a counter or waiting time past the
    /// clock; on a vehicle id the ledger has not counted in or an entry
    /// tick at or past the clock; when the ledger's live count is not the
    /// vehicles on the network plus the backlog; when a vehicle's route
    /// does not continue from where the vehicle is; or when a
    /// controller's restored phase is not in its layout. Either way the
    /// error is typed: a crafted snapshot never
    /// reaches the step path to panic there. The incremental counters are
    /// not read but rebuilt from the restored fleet and junction boxes,
    /// so they agree with them by construction.
    pub fn load_state(&mut self, reader: &mut StateReader<'_>) -> Result<(), StateError> {
        self.now = Tick::new(reader.take()?);
        self.total_crossings = reader.take_count("crossing count")?;
        self.ledger = WaitingLedger::load_state(reader)?;
        let ids = self.ledger.entered();
        self.arena.load_state(reader, ids, self.now)?;
        // Live arena slots not yet claimed by a lane or junction-box
        // vehicle: each vehicle claims its own, so none is shared, and
        // none may be left over.
        let mut unplaced = self.arena.live_mask();
        let num_roads = reader.take_usize()?;
        if num_roads != self.roads.len() {
            return Err(StateError::Invalid {
                what: "road count",
                word: num_roads as u64,
            });
        }
        for r in 0..num_roads {
            {
                let road = &mut self.roads[r];
                road.closed = reader.take_bool()?;
                road.entered = reader.take_count("road entered count")?;
            }
            let num_lanes = reader.take_usize()?;
            if num_lanes != self.net.num_lanes(r) {
                return Err(StateError::Invalid {
                    what: "lane count",
                    word: num_lanes as u64,
                });
            }
            for l in 0..num_lanes {
                self.net
                    .load_lane(r, l, &mut unplaced, self.now.index(), reader)?;
            }
            let mut rng_state = [0u64; 4];
            for word in &mut rng_state {
                *word = reader.take()?;
            }
            self.roads[r].rng = SmallRng::from_state(rng_state);
        }
        let num_junctions = reader.take_usize()?;
        if num_junctions != self.boxes.len() {
            return Err(StateError::Invalid {
                what: "junction count",
                word: num_junctions as u64,
            });
        }
        for j in 0..num_junctions {
            let in_box = reader.take_len(5, "junction box length")?;
            self.boxes[j].clear();
            for _ in 0..in_box {
                let slot = reader.take_u32()?;
                let wait = reader.take_at_most(self.now.index(), "crossing waiting ticks")?;
                let remaining = reader.take()?;
                let dest_road = reader.take_usize()?;
                let dest_lane = reader.take_usize()?;
                claim_slot(&mut unplaced, slot, "crossing vehicle slot")?;
                if dest_road >= self.roads.len() {
                    return Err(StateError::Invalid {
                        what: "crossing destination road",
                        word: dest_road as u64,
                    });
                }
                if dest_lane >= self.net.num_lanes(dest_road) {
                    return Err(StateError::Invalid {
                        what: "crossing destination lane",
                        word: dest_lane as u64,
                    });
                }
                self.boxes[j].push(Crossing {
                    slot,
                    wait,
                    remaining,
                    dest_road,
                    dest_lane,
                });
            }
            let credits = &mut self.credit[self.link_off[j]..self.link_off[j + 1]];
            let len = reader.take_usize()?;
            if len != credits.len() {
                return Err(StateError::Invalid {
                    what: "credit count",
                    word: len as u64,
                });
            }
            for credit in credits {
                *credit = reader.take_f64()?;
            }
        }
        if let Some(slot) = unplaced.iter().position(|&u| u) {
            return Err(StateError::Invalid {
                what: "arena slot without a vehicle",
                word: slot as u64,
            });
        }
        let invalid = |m: CounterMismatch| StateError::Invalid {
            what: m.what,
            word: m.word,
        };
        // Audited before the backlog is decoded, while the fleet's routes
        // are still in cache.
        self.audit_routes().map_err(invalid)?;
        for r in 0..self.backlogs.len() {
            let len = reader.take_usize()?;
            self.backlogs[r].clear();
            for _ in 0..len {
                let id = VehicleId::new(reader.take_below(ids, "vehicle id")?);
                let since = Tick::new(reader.take_at_most(self.now.index(), "backlog entry tick")?);
                let route = Route::load_state(reader)?;
                self.check_backlog_route(r, &route).map_err(invalid)?;
                let route = Arc::new(route);
                self.backlogs[r].push_back(Backlogged { id, route, since });
            }
        }
        // The guard's conservation check, once.
        self.ledger
            .check_live(self.vehicles_in_network() + self.backlog_len())?;
        let topology = &self.topology;
        decide::load_all(&mut self.controllers, &mut self.obs_buf, reader, |i| {
            topology
                .intersection(IntersectionId::new(i as u32))
                .layout()
        })?;
        let fresh = self.rescan_counters();
        self.pending = fresh.pending;
        self.sensors = fresh.sensors;
        for (road, (occupancy, halted_sum, moves)) in self.roads.iter_mut().zip(fresh.roads) {
            (road.occupancy, road.halted_sum, road.move_counts) = (occupancy, halted_sum, moves);
        }
        Ok(())
    }
}

/// The leader a vehicle entering at `pos = 0` of lane `l` of road `r`
/// faces.
fn lane_entry_leader(
    net: &NetworkLanes,
    r: usize,
    l: usize,
    length: f64,
    cfg: &MicroSimConfig,
) -> LeaderInfo {
    if net.is_empty(r, l) {
        LeaderInfo::Wall { distance_m: length }
    } else {
        let last = net.len(r, l) - 1;
        LeaderInfo::Vehicle {
            net_gap_m: net.pos_at(r, l, last) - cfg.vehicle_length_m - cfg.min_gap_m,
            speed_mps: net.speed_at(r, l, last),
        }
    }
}

#[cfg(test)]
mod occupancy_probe {
    use super::*;
    use utilbp_core::{SignalController, Ticks, UtilBp};
    use utilbp_netgen::{
        DemandConfig, DemandGenerator, DemandSchedule, GridNetwork, GridSpec, Pattern,
    };

    /// Manual lane-occupancy probe for the 10×10 bench workload:
    /// `cargo test -p utilbp-microsim --release -- --ignored --nocapture occupancy`.
    #[test]
    #[ignore = "manual probe"]
    fn occupancy_histogram() {
        let g = GridNetwork::new(GridSpec::with_size(10, 10));
        let n = g.topology().num_intersections();
        let controllers = (0..n)
            .map(|_| Box::new(UtilBp::paper()) as Box<dyn SignalController>)
            .collect();
        let mut sim = MicroSim::new(g.topology().clone(), controllers, MicroSimConfig::default());
        let mut gen = DemandGenerator::new(
            &g,
            DemandConfig::new(DemandSchedule::constant(
                Pattern::I,
                Ticks::new(u64::MAX / 2),
            )),
            7,
        );
        let mut arrivals = Vec::new();
        let mut report = crate::StepReport::empty();
        for k in 0..500u64 {
            arrivals.clear();
            gen.poll_into(&g, utilbp_core::Tick::new(k), &mut arrivals);
            sim.step_into(&mut arrivals, &mut report, None);
        }
        let mut hist = [0usize; 64];
        let (mut lanes_total, mut lanes_occupied, mut vehicles) = (0usize, 0usize, 0usize);
        for r in 0..sim.roads.len() {
            for l in 0..sim.net.num_lanes(r) {
                let len = sim.net.len(r, l);
                lanes_total += 1;
                if len > 0 {
                    lanes_occupied += 1;
                    vehicles += len;
                    hist[len.min(63)] += 1;
                }
            }
        }
        eprintln!(
            "lanes {lanes_total} ({lanes_occupied} occupied), vehicles {vehicles}, mean occupied len {:.2}; active roads {}/{}",
            vehicles as f64 / lanes_occupied.max(1) as f64,
            sim.net.num_active(),
            sim.roads.len(),
        );
        for (len, count) in hist.iter().enumerate() {
            if *count > 0 {
                eprintln!("  len {len:2}: {count}");
            }
        }
    }

    /// A road closure must drain the road out of the occupancy-ordered
    /// sweep entirely (off the active list, all bookkeeping consistent),
    /// and a reopen must re-register it once traffic returns — the
    /// active-list maintenance edge case a steady-state run never hits.
    #[test]
    fn closure_drains_road_out_of_the_active_sweep() {
        let g = GridNetwork::new(GridSpec::paper());
        let n = g.topology().num_intersections();
        let controllers = (0..n)
            .map(|_| Box::new(UtilBp::paper()) as Box<dyn SignalController>)
            .collect();
        let mut sim = MicroSim::new(g.topology().clone(), controllers, MicroSimConfig::default());
        let mut gen = DemandGenerator::new(
            &g,
            DemandConfig::new(DemandSchedule::constant(
                Pattern::I,
                Ticks::new(u64::MAX / 2),
            )),
            7,
        );
        let mut arrivals = Vec::new();
        let mut report = crate::StepReport::empty();
        let mut k = 0u64;
        let mut step = |sim: &mut MicroSim, gen: &mut DemandGenerator, k: &mut u64| {
            arrivals.clear();
            gen.poll_into(&g, utilbp_core::Tick::new(*k), &mut arrivals);
            sim.step_into(&mut arrivals, &mut report, None);
            *k += 1;
        };
        for _ in 0..200 {
            step(&mut sim, &mut gen, &mut k);
        }
        // Pick an occupied internal road (it has a downstream junction,
        // so closing it blocks upstream releases toward it).
        let r = (0..sim.roads.len())
            .find(|&r| sim.net.road_len(r) > 0 && sim.road_dest[r].is_some())
            .expect("an occupied internal road after warm-up");
        sim.set_road_closed(RoadId::new(r as u32), true);
        // Keep demand flowing: the rest of the network must stay live
        // while the closed road drains (on-road vehicles leave, in-box
        // vehicles still land, nothing new enters).
        let mut drained = false;
        for _ in 0..3000 {
            step(&mut sim, &mut gen, &mut k);
            let lanes = sim.net.lane0(r)..sim.net.lane0(r) + sim.net.num_lanes(r);
            if sim.net.road_len(r) == 0 && sim.pending[lanes].iter().all(|&p| p == 0) {
                drained = true;
                break;
            }
        }
        assert!(drained, "closed road failed to drain within 3000 ticks");
        assert!(
            sim.net.active_roads().binary_search(&(r as u32)).is_err(),
            "drained road must leave the active list"
        );
        sim.verify_sensors().unwrap();

        sim.set_road_closed(RoadId::new(r as u32), false);
        let mut refilled = false;
        for _ in 0..3000 {
            step(&mut sim, &mut gen, &mut k);
            if sim.net.road_len(r) > 0 {
                refilled = true;
                break;
            }
        }
        assert!(refilled, "reopened road saw no traffic within 3000 ticks");
        assert!(
            sim.net.active_roads().binary_search(&(r as u32)).is_ok(),
            "reopened road must re-register in the active list"
        );
        sim.verify_sensors().unwrap();
    }
}

#[cfg(test)]
mod load_validation {
    use super::*;
    use crate::LaneDiscipline;
    use utilbp_core::{SignalController, Ticks, UtilBp};
    use utilbp_netgen::{
        DemandConfig, DemandGenerator, DemandSchedule, GridNetwork, GridSpec, Pattern,
    };

    fn sim(grid: &GridNetwork, discipline: LaneDiscipline) -> MicroSim {
        let n = grid.topology().num_intersections();
        let controllers = (0..n)
            .map(|_| Box::new(UtilBp::paper()) as Box<dyn SignalController>)
            .collect();
        MicroSim::new(
            grid.topology().clone(),
            controllers,
            MicroSimConfig {
                lane_discipline: discipline,
                ..MicroSimConfig::default()
            },
        )
    }

    /// A 3×3 run stopped at a tick with vehicles in a junction box.
    fn loaded(discipline: LaneDiscipline) -> (GridNetwork, MicroSim) {
        let grid = GridNetwork::new(GridSpec::paper());
        let mut s = sim(&grid, discipline);
        let mut gen = DemandGenerator::new(
            &grid,
            DemandConfig::new(DemandSchedule::constant(Pattern::I, Ticks::new(10_000))),
            5,
        );
        for k in 0..400 {
            s.step(gen.poll(&grid, Tick::new(k)));
            if k > 150 && s.boxes.iter().any(|b| !b.is_empty()) {
                break;
            }
        }
        assert!(
            s.boxes.iter().any(|b| !b.is_empty()),
            "a crossing in flight"
        );
        (grid, s)
    }

    /// Saves `s` after `craft` corrupts it, and loads the capture into a
    /// fresh simulator.
    fn reload(
        grid: &GridNetwork,
        discipline: LaneDiscipline,
        mut s: MicroSim,
        craft: impl FnOnce(&mut MicroSim),
    ) -> Result<(), StateError> {
        craft(&mut s);
        let mut w = StateWriter::new();
        s.save_state(&mut w);
        sim(grid, discipline).load_state(&mut StateReader::new(w.bytes()))
    }

    fn rejects(what: &str, result: Result<(), StateError>) {
        match result {
            Err(StateError::Invalid { what: got, .. }) => assert_eq!(got, what),
            other => panic!("expected an invalid {what}, got {other:?}"),
        }
    }

    fn first_crossing(s: &mut MicroSim) -> &mut Crossing {
        s.boxes.iter_mut().flatten().next().expect("a crossing")
    }

    #[test]
    fn an_intact_capture_loads() {
        let (grid, s) = loaded(LaneDiscipline::DedicatedPerMovement);
        assert_eq!(
            reload(&grid, LaneDiscipline::DedicatedPerMovement, s, |_| {}),
            Ok(())
        );
    }

    #[test]
    fn crossing_destination_road_out_of_range_is_rejected() {
        let (grid, s) = loaded(LaneDiscipline::DedicatedPerMovement);
        let craft = |s: &mut MicroSim| first_crossing(s).dest_road = 1 << 40;
        rejects(
            "crossing destination road",
            reload(&grid, LaneDiscipline::DedicatedPerMovement, s, craft),
        );
    }

    #[test]
    fn crossing_destination_lane_out_of_range_is_rejected() {
        let (grid, s) = loaded(LaneDiscipline::DedicatedPerMovement);
        let craft = |s: &mut MicroSim| first_crossing(s).dest_lane = 7;
        rejects(
            "crossing destination lane",
            reload(&grid, LaneDiscipline::DedicatedPerMovement, s, craft),
        );
    }

    #[test]
    fn crossing_slot_that_is_not_live_is_rejected() {
        let (grid, s) = loaded(LaneDiscipline::DedicatedPerMovement);
        let craft = |s: &mut MicroSim| first_crossing(s).slot = u32::MAX;
        rejects(
            "crossing vehicle slot",
            reload(&grid, LaneDiscipline::DedicatedPerMovement, s, craft),
        );
    }

    /// Corrupts a live counter with `craft`: the live audit behind
    /// `verify_sensors` names it as `what`, and the corruption never
    /// reaches a capture, which equals the pristine run's and loads with
    /// every counter rebuilt from the fleet.
    fn audited_not_captured(what: &str, discipline: LaneDiscipline, craft: fn(&mut MicroSim)) {
        let (grid, pristine) = loaded(discipline);
        let (_, mut s) = loaded(discipline);
        craft(&mut s);
        match s.audit_counters() {
            Err(m) => assert_eq!(m.what, what),
            Ok(()) => panic!("the audit missed a corrupted {what}"),
        }
        assert!(s.verify_sensors().is_err(), "{what}");
        let capture = |s: &MicroSim| {
            let mut w = StateWriter::new();
            s.save_state(&mut w);
            w.bytes().to_vec()
        };
        let bytes = capture(&s);
        assert_eq!(bytes, capture(&pristine), "{what} is not captured");
        let mut back = sim(&grid, discipline);
        back.load_state(&mut StateReader::new(&bytes))
            .expect("an intact capture");
        back.verify_sensors()
            .expect("counters rebuilt from the fleet");
    }

    #[test]
    fn sensor_counter_that_disagrees_with_a_rescan_is_rejected() {
        // An empty lane claiming a halted vehicle would wrap in release
        // at its first fold.
        audited_not_captured(
            "lane sensor counter",
            LaneDiscipline::DedicatedPerMovement,
            |s| {
                let g = (0..s.sensors.halted.len())
                    .find(|&g| s.sensors.halted[g] == 0)
                    .expect("an unhalted lane");
                s.sensors.halted[g] = u32::MAX;
            },
        );
    }

    #[test]
    fn road_sum_that_disagrees_with_its_lanes_is_rejected() {
        audited_not_captured(
            "road sensor sum",
            LaneDiscipline::DedicatedPerMovement,
            |s| s.roads[0].halted_sum += 1,
        );
        audited_not_captured(
            "road occupancy",
            LaneDiscipline::DedicatedPerMovement,
            |s| s.roads[0].occupancy += 1,
        );
    }

    #[test]
    fn pending_count_that_disagrees_with_the_boxes_is_rejected() {
        audited_not_captured(
            "lane pending reservations",
            LaneDiscipline::DedicatedPerMovement,
            |s| {
                let c = first_crossing(s).clone();
                let g = s.net.lane0(c.dest_road) + c.dest_lane;
                s.pending[g] -= 1;
            },
        );
    }

    #[test]
    fn movement_counter_that_disagrees_with_a_rescan_is_rejected() {
        let (grid, s) = loaded(LaneDiscipline::SharedMixed);
        assert_eq!(
            reload(&grid, LaneDiscipline::SharedMixed, s, |_| {}),
            Ok(())
        );
        audited_not_captured("movement counter", LaneDiscipline::SharedMixed, |s| {
            let mv = s
                .roads
                .iter_mut()
                .find_map(|r| r.move_counts.as_mut())
                .expect("mixed roads keep movement counters");
            mv.detected[0] += 1;
        });
    }

    /// The slot of a vehicle on an internal road with at least two
    /// crossings ahead of it.
    fn lane_vehicle_with_two_hops_left(s: &MicroSim) -> u32 {
        (0..s.roads.len())
            .filter(|&r| s.road_dest[r].is_some())
            .flat_map(|r| (0..s.net.num_lanes(r)).map(move |l| (r, l)))
            .flat_map(|(r, l)| (0..s.net.len(r, l)).map(move |i| s.net.slot_at(r, l, i)))
            .find(|&slot| s.arena.route(slot).len() >= s.arena.hop(slot) + 2)
            .expect("a vehicle two junctions from its exit")
    }

    #[test]
    fn fleet_that_disagrees_with_its_routes_or_clock_is_rejected() {
        type Craft = fn(&mut MicroSim);
        let cases: [(&str, Craft); 10] = [
            // A route cursor one junction ahead of the vehicle's road.
            ("route link", |s| {
                s.arena.bump_hop(lane_vehicle_with_two_hops_left(s));
            }),
            // A crossing bound for a lane of another movement.
            ("crossing destination lane", |s| {
                let c = (s.boxes.iter_mut().flatten())
                    .find(|c| s.road_dest[c.dest_road].is_some())
                    .expect("a crossing bound for an internal road");
                c.dest_lane = (c.dest_lane + 1) % s.net.num_lanes(c.dest_road);
            }),
            // A backlogged route that enters at another road.
            ("backlog route entry", |s| {
                let route = Arc::clone(s.arena.route(lane_vehicle_with_two_hops_left(s)));
                let elsewhere = (0..s.backlogs.len())
                    .find(|&r| r != route.entry().index() && s.road_dest[r].is_some())
                    .expect("another road");
                let (id, since) = (VehicleId::new(0), Tick::ZERO);
                s.backlogs[elsewhere].push_back(Backlogged { id, route, since });
            }),
            // Two vehicles holding one arena slot.
            ("crossing vehicle slot", |s| {
                first_crossing(s).slot = lane_vehicle_with_two_hops_left(s);
            }),
            // A live arena slot no vehicle holds.
            ("arena slot without a vehicle", |s| {
                let route = Arc::clone(s.arena.route(lane_vehicle_with_two_hops_left(s)));
                s.arena.insert(VehicleId::new(0), Tick::ZERO, route);
            }),
            // A vehicle id the ledger never counted in.
            ("vehicle id", |s| {
                let route = Arc::clone(s.arena.route(lane_vehicle_with_two_hops_left(s)));
                let id = VehicleId::new(s.ledger.entered());
                s.arena.insert(id, Tick::ZERO, route);
            }),
            ("vehicle id", |s| {
                let route = Arc::clone(s.arena.route(lane_vehicle_with_two_hops_left(s)));
                let (id, since) = (VehicleId::new(s.ledger.entered()), Tick::ZERO);
                s.backlogs[route.entry().index()].push_back(Backlogged { id, route, since });
            }),
            // A vehicle that entered at the clock, which no step has run.
            ("vehicle entry tick", |s| {
                let route = Arc::clone(s.arena.route(lane_vehicle_with_two_hops_left(s)));
                s.arena.insert(VehicleId::new(0), s.now, route);
            }),
            // One vehicle more in the ledger than on the network.
            ("ledger live count", |s| s.ledger.enter()),
            ("crossing waiting ticks", |s| {
                first_crossing(s).wait = s.now.index() + 1;
            }),
        ];
        for (what, craft) in cases {
            let (grid, s) = loaded(LaneDiscipline::DedicatedPerMovement);
            rejects(
                what,
                reload(&grid, LaneDiscipline::DedicatedPerMovement, s, craft),
            );
        }
    }
}
