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
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use utilbp_core::state::{StateError, StateReader, StateWriter};
use utilbp_core::{
    parallel, parallel::ControllerSlot, IncomingId, LinkId, ObservationBuffer, PhaseDecision,
    QueueObservation, SignalController, Tick,
};
use utilbp_metrics::{VehicleId, WaitingLedger};
use utilbp_netgen::{Arrival, IntersectionId, NetworkTopology, RoadId, Route};

use crate::config::{Fidelity, MicroSimConfig};
use crate::krauss::{next_speed, LeaderInfo};
use crate::road::{
    advance_followers, advance_followers_batched_road, advance_head, DawdleSource, HeadMode,
    LaneView, MovementCounters, NetworkLanes, RoadSpan, SensorSpec, VehicleArena, LINK_NONE,
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

#[derive(Debug, Clone, Default)]
struct JunctionSim {
    in_box: Vec<Crossing>,
    /// Per-link service credit (rate `µ` accumulates while green).
    credit: Vec<f64>,
    /// Per-link green flag for the current step.
    active: Vec<bool>,
}

#[derive(Debug, Clone)]
struct RoadSim {
    // Vehicle state lives in the network-wide [`NetworkLanes`] arena on
    // `MicroSim` (road index == `RoadSim` index), not here: the
    // car-following phase streams the whole *network* through contiguous
    // storage instead of chasing per-road allocations.
    length: f64,
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
    /// Per-lane count of vehicles currently in a junction box heading for
    /// that lane — the reservations [`MicroSim::dest_lane_has_room`]
    /// consults in O(1) instead of scanning every junction's box.
    pending: Vec<u32>,
    /// Detector geometry shared by this road's lanes.
    spec: SensorSpec,
    /// Per-lane count of vehicles inside the detection window — dense, so
    /// the sense phase reads a short array instead of walking `Lane`
    /// structs. Maintained from the deltas the advance functions return.
    lane_detected: Vec<u32>,
    /// Per-lane halted-vehicle count (whole lane), dense like
    /// `lane_detected`.
    lane_halted: Vec<u32>,
    /// Σ `lane_detected` — the `PresenceNearJunction` outgoing sensor in
    /// O(1).
    detected_sum: u32,
    /// Σ `lane_halted` — the `HaltedWholeRoad` outgoing sensor in O(1).
    halted_sum: u32,
    /// Per-(road, link) movement counters, maintained only under
    /// [`LaneDiscipline::SharedMixed`](crate::LaneDiscipline) for roads
    /// feeding an intersection — the O(1) replacement for the mixed-lane
    /// per-decision rescans. `None` under dedicated lanes (the per-lane
    /// counters already answer per-movement queries) and on exit roads.
    move_counts: Option<MovementCounters>,
    /// This road's dawdling stream. Car-following noise is drawn per road
    /// (not from one global generator), so skipping empty roads in the
    /// active-road sweep perturbs no other road's draws.
    rng: SmallRng,
}

impl RoadSim {
    /// Registers a vehicle appearing on `lane` (landing or insertion) in
    /// the dense sensor counters.
    fn sensor_add(&mut self, lane: usize, pos: f64, speed: f64) {
        if pos >= self.spec.detect_from {
            self.lane_detected[lane] += 1;
            self.detected_sum += 1;
        }
        if speed < self.spec.halt_speed {
            self.lane_halted[lane] += 1;
            self.halted_sum += 1;
        }
    }
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

/// What happened during one microscopic step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepReport {
    /// The instant that was simulated.
    pub tick: Tick,
    /// The decision applied at each intersection, indexed by
    /// `IntersectionId`.
    pub decisions: Vec<PhaseDecision>,
    /// Stop-line crossings started this step.
    pub crossings: u32,
    /// Vehicles that left the network this step.
    pub completed: u32,
    /// Vehicles inserted at boundary entries this step (excluding those
    /// pushed to a backlog).
    pub injected: u32,
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

/// Cumulative wall-clock seconds spent in each phase group of the step
/// pipeline, filled by [`MicroSim::step_into_timed`]. Lets the perf
/// harness attribute throughput wins to phases instead of guessing.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimings {
    /// Sense + controller decide + signal refresh.
    pub decide: f64,
    /// Box countdown + head release + follower car-following (the
    /// physics).
    pub car_following: f64,
    /// Junction-box landings.
    pub landings: f64,
    /// Insertions, backlog drain, and waiting/report bookkeeping.
    pub waiting: f64,
}

impl PhaseTimings {
    /// Total time across all phases.
    pub fn total(&self) -> f64 {
        self.decide + self.car_following + self.landings + self.waiting
    }
}

/// Accumulates phase laps into a [`PhaseTimings`]; a no-op when detached
/// (the untimed step path takes no `Instant` readings at all).
struct PhaseStopwatch<'a> {
    timings: Option<&'a mut PhaseTimings>,
    last: Option<Instant>,
}

impl<'a> PhaseStopwatch<'a> {
    fn new(timings: Option<&'a mut PhaseTimings>) -> Self {
        let last = timings.as_ref().map(|_| Instant::now());
        PhaseStopwatch { timings, last }
    }

    fn lap(&mut self, pick: fn(&mut PhaseTimings) -> &mut f64) {
        if let (Some(t), Some(last)) = (self.timings.as_deref_mut(), self.last) {
            let now = Instant::now();
            *pick(t) += now.duration_since(last).as_secs_f64();
            self.last = Some(now);
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
    junctions: Vec<JunctionSim>,
    /// Per-journey vehicle state (id, route, cursor), slab-allocated.
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
    // Lookups (indices are plain usizes for borrow-free hot loops).
    /// Per road: destination intersection index, if internal/entry.
    road_dest: Vec<Option<usize>>,
    /// Per road, per lane: the movement link (at the destination
    /// intersection) this lane feeds; `None` on exit-road lanes.
    lane_links: Vec<Vec<Option<LinkId>>>,
    /// Per road: lane index by `LinkId::index()` at the destination
    /// intersection (`usize::MAX` when not applicable).
    lane_index_by_link: Vec<Vec<usize>>,
    /// Per intersection, per link: incoming road index.
    link_in_road: Vec<Vec<usize>>,
    /// Per intersection, per link: outgoing road index.
    link_out_road: Vec<Vec<usize>>,
    /// Per road, per lane: whether the lane's movement is green *with*
    /// service credit this tick — precomputed in the signal-refresh pass
    /// (which visits every link anyway) so the head phase reads one local
    /// flag instead of two scattered junction lookups per lane. Only
    /// maintained under dedicated lanes, where the lane→link map is
    /// static; a link's credit can drop below 1 mid-phase only by its own
    /// lane's release, and each lane is visited once, so the flag stays
    /// exact for the whole head phase.
    lane_green: Vec<Vec<bool>>,
}

impl std::fmt::Debug for MicroSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MicroSim")
            .field("now", &self.now)
            .field("roads", &self.roads.len())
            .field("junctions", &self.junctions.len())
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
    /// count or if `config` fails [`MicroSimConfig::validate`].
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

        let num_roads = topology.num_roads();
        let mut road_dest = vec![None; num_roads];
        let mut lane_links: Vec<Vec<Option<LinkId>>> = vec![Vec::new(); num_roads];
        let mut lane_index_by_link: Vec<Vec<usize>> = vec![Vec::new(); num_roads];

        for r in topology.road_ids() {
            let road = topology.road(r);
            match road.dest() {
                Some((i, arm)) => {
                    road_dest[r.index()] = Some(i.index());
                    let layout = topology.intersection(i).layout();
                    let links = layout.links_from(arm);
                    lane_links[r.index()] = links.iter().map(|&l| Some(l)).collect();
                    let mut by_link = vec![usize::MAX; layout.num_links()];
                    for (lane, &l) in links.iter().enumerate() {
                        by_link[l.index()] = lane;
                    }
                    lane_index_by_link[r.index()] = by_link;
                }
                None => {
                    // Exit road: enough lanes to hold the declared W.
                    let lane_cap =
                        (road.length_m() / config.jam_spacing_m()).floor().max(1.0) as u32;
                    let lanes = road.capacity().div_ceil(lane_cap).max(1) as usize;
                    lane_links[r.index()] = vec![None; lanes];
                }
            }
        }

        let mut link_in_road = Vec::with_capacity(topology.num_intersections());
        let mut link_out_road = Vec::with_capacity(topology.num_intersections());
        let mut junctions = Vec::with_capacity(topology.num_intersections());
        for i in topology.intersection_ids() {
            let node = topology.intersection(i);
            let layout = node.layout();
            link_in_road.push(
                layout
                    .link_ids()
                    .map(|l| node.incoming_road(layout.link(l).from()).index())
                    .collect(),
            );
            link_out_road.push(
                layout
                    .link_ids()
                    .map(|l| node.outgoing_road(layout.link(l).to()).index())
                    .collect(),
            );
            junctions.push(JunctionSim {
                in_box: Vec::new(),
                credit: vec![0.0; layout.num_links()],
                active: vec![false; layout.num_links()],
            });
        }

        // Resident vehicles per lane are bounded by the road geometry;
        // sizing the network arena at the plateau up front keeps lane
        // growth out of the steady-state allocation profile.
        let shapes: Vec<(usize, usize)> = topology
            .road_ids()
            .map(|r| {
                let road = topology.road(r);
                let lane_capacity = (road.length_m() / config.jam_spacing_m()).floor() as usize + 1;
                (lane_links[r.index()].len(), lane_capacity)
            })
            .collect();
        let net = NetworkLanes::new(&shapes);

        let seed = config.seed;
        let roads: Vec<RoadSim> = topology
            .road_ids()
            .map(|r| {
                let road = topology.road(r);
                let num_lanes = lane_links[r.index()].len();
                RoadSim {
                    length: road.length_m(),
                    capacity: road.capacity(),
                    closed: false,
                    occupancy: 0,
                    entered: 0,
                    pending: vec![0; num_lanes],
                    spec: SensorSpec::for_road(road.length_m(), &config),
                    lane_detected: vec![0; num_lanes],
                    lane_halted: vec![0; num_lanes],
                    detected_sum: 0,
                    halted_sum: 0,
                    move_counts: match (config.lane_discipline, road.dest()) {
                        (crate::LaneDiscipline::SharedMixed, Some((i, _))) => Some(
                            MovementCounters::new(topology.intersection(i).layout().num_links()),
                        ),
                        _ => None,
                    },
                    // Decorrelate road streams with a splitmix-style odd
                    // multiplier; SmallRng scrambles the seed further.
                    rng: SmallRng::seed_from_u64(
                        seed ^ (r.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    ),
                }
            })
            .collect();

        let mut obs_buf = ObservationBuffer::new();
        obs_buf.shape_for(
            topology
                .intersection_ids()
                .map(|i| topology.intersection(i).layout()),
        );

        MicroSim {
            topology,
            config,
            controllers: ControllerSlot::wrap_all(controllers),
            roads,
            net,
            junctions,
            arena: VehicleArena::new(),
            backlogs: vec![VecDeque::new(); num_roads],
            ledger: WaitingLedger::new(),
            now: Tick::ZERO,
            total_crossings: 0,
            obs_buf,
            landing_scratch: Vec::new(),
            lane_green: lane_links
                .iter()
                .map(|links| vec![false; links.len()])
                .collect(),
            road_dest,
            lane_links,
            lane_index_by_link,
            link_in_road,
            link_out_road,
        }
    }

    /// The simulated network.
    pub fn topology(&self) -> &NetworkTopology {
        &self.topology
    }

    /// The simulator configuration.
    pub fn config(&self) -> &MicroSimConfig {
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
    /// network (and those queued outside full entries) — the paper's
    /// "average queuing time of a vehicle". Folds the live per-vehicle
    /// wait accumulators into the ledger's completed statistics at query
    /// time; O(active vehicles), never touched by the step path.
    pub fn mean_waiting_including_active(&self) -> f64 {
        let now = self.now;
        let lane_waits = self.net.all_waits();
        let box_waits = self
            .junctions
            .iter()
            .flat_map(|j| j.in_box.iter().map(|c| c.wait));
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
        let in_boxes: usize = self.junctions.iter().map(|j| j.in_box.len()).sum();
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
        let in_boxes: usize = self.junctions.iter().map(|j| j.in_box.len()).sum();
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
        let r = self.link_in_road[intersection.index()][link.index()];
        if self.config.lane_discipline == crate::LaneDiscipline::DedicatedPerMovement {
            let lane = self.lane_index_by_link[r][link.index()];
            return self.roads[r].lane_detected[lane];
        }
        if let Some(mv) = &self.roads[r].move_counts {
            // SharedMixed: the incrementally maintained per-(road, link)
            // counter (vehicles for a movement may sit on any lane).
            return mv.detected[link.index()];
        }
        self.movement_detected(intersection, link, self.config.detection_range_m)
    }

    /// Total vehicles bound for `link` on the incoming road, over its
    /// whole length, regardless of the detector range.
    ///
    /// # Panics
    ///
    /// Panics if the ids are out of range.
    pub fn movement_count(&self, intersection: IntersectionId, link: LinkId) -> u32 {
        let r = self.link_in_road[intersection.index()][link.index()];
        if self.config.lane_discipline == crate::LaneDiscipline::DedicatedPerMovement {
            let lane = self.lane_index_by_link[r][link.index()];
            return self.net.len(r, lane) as u32;
        }
        if let Some(mv) = &self.roads[r].move_counts {
            return mv.total[link.index()];
        }
        self.movement_detected(intersection, link, f64::INFINITY)
    }

    /// Rescan-based detector read for arbitrary ranges (and the
    /// [`LaneDiscipline::SharedMixed`](crate::LaneDiscipline) fallback,
    /// where per-movement counts cannot be kept per lane). Reads the
    /// lanes' cached per-vehicle movement links, so no route is chased.
    fn movement_detected(&self, intersection: IntersectionId, link: LinkId, range: f64) -> u32 {
        let r = self.link_in_road[intersection.index()][link.index()];
        let length = self.roads[r].length;
        match self.config.lane_discipline {
            crate::LaneDiscipline::DedicatedPerMovement => {
                let lane = self.lane_index_by_link[r][link.index()];
                self.net.detected(r, lane, length, range)
            }
            crate::LaneDiscipline::SharedMixed => {
                // Vehicles for this movement may sit on any lane.
                let li = link.index() as u16;
                (0..self.net.num_lanes(r))
                    .map(|l| {
                        (0..self.net.len(r, l))
                            .filter(|&i| {
                                self.net.pos_at(r, l, i) >= length - range
                                    && self.net.link_at(r, l, i) == li
                            })
                            .count() as u32
                    })
                    .sum()
            }
        }
    }

    /// Halted vehicles across all lanes of a road (whole length) — an
    /// O(lanes) read of the incremental halt counters.
    ///
    /// # Panics
    ///
    /// Panics if `road` is out of range.
    pub fn road_halted(&self, road: RoadId) -> u32 {
        self.roads[road.index()].halted_sum
    }

    /// The outgoing-road sensor reading `q_{i'}` per the configured
    /// [`OutgoingSensor`](crate::OutgoingSensor) — O(1) from the dense
    /// incremental counters, whatever the variant.
    ///
    /// # Panics
    ///
    /// Panics if `road` is out of range.
    pub fn road_sensor(&self, road: RoadId) -> u32 {
        use crate::config::OutgoingSensor;
        match self.config.outgoing_sensor {
            OutgoingSensor::HaltedWholeRoad => self.road_halted(road),
            OutgoingSensor::PresenceNearJunction => self.roads[road.index()].detected_sum,
            OutgoingSensor::Occupancy => self.roads[road.index()].occupancy,
        }
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

    /// The queue observation the controller at `intersection` sees.
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
    /// the intersection's layout) without allocating.
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
            obs.set_outgoing(out, self.road_sensor(node.outgoing_road(out)));
        }
    }

    /// Validates the incremental-sensing invariants: every lane's detector
    /// and halt counters must equal a from-scratch rescan, every lane's
    /// pending-reservation counter must equal the number of junction-box
    /// crossings heading for it (the scan it replaced), and every cached
    /// per-vehicle movement link must equal the one derived from the
    /// arena's route cursor. Debug/test facility backing the regression
    /// suite.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first divergent road/lane.
    pub fn verify_sensors(&self) -> Result<(), String> {
        self.net.verify_active()?;
        for (r, road) in self.roads.iter().enumerate() {
            let mut detected_sum = 0u32;
            let mut halted_sum = 0u32;
            for l in 0..self.net.num_lanes(r) {
                let (detected, halted) = self.net.rescan_sensors(r, l, road.spec);
                detected_sum += detected;
                halted_sum += halted;
                if road.lane_detected[l] != detected || road.lane_halted[l] != halted {
                    return Err(format!(
                        "road {r} lane {l}: incremental (detected {}, halted {}) != rescan \
                         (detected {detected}, halted {halted})",
                        road.lane_detected[l], road.lane_halted[l],
                    ));
                }
                let pending = self
                    .junctions
                    .iter()
                    .flat_map(|j| j.in_box.iter())
                    .filter(|c| c.dest_road == r && c.dest_lane == l)
                    .count() as u32;
                if road.pending[l] != pending {
                    return Err(format!(
                        "road {r} lane {l}: pending reservations {} != in-box scan {pending}",
                        road.pending[l]
                    ));
                }
                for i in 0..self.net.len(r, l) {
                    let slot = self.net.slot_at(r, l, i);
                    let derived = self
                        .arena
                        .route(slot)
                        .hop(self.arena.hop(slot))
                        .map_or(LINK_NONE, |(_, link)| link.index() as u16);
                    if self.net.link_at(r, l, i) != derived {
                        return Err(format!(
                            "road {r} lane {l} vehicle {i}: cached link {} != route-derived \
                             {derived}",
                            self.net.link_at(r, l, i)
                        ));
                    }
                }
            }
            if road.detected_sum != detected_sum || road.halted_sum != halted_sum {
                return Err(format!(
                    "road {r}: sums (detected {}, halted {}) != rescan (detected \
                     {detected_sum}, halted {halted_sum})",
                    road.detected_sum, road.halted_sum,
                ));
            }
            if let Some(mv) = &road.move_counts {
                for link in 0..mv.total.len() {
                    let (mut total, mut detected) = (0u32, 0u32);
                    for l in 0..self.net.num_lanes(r) {
                        for i in 0..self.net.len(r, l) {
                            if self.net.link_at(r, l, i) == link as u16 {
                                total += 1;
                                if self.net.pos_at(r, l, i) >= road.spec.detect_from {
                                    detected += 1;
                                }
                            }
                        }
                    }
                    if mv.total[link] != total || mv.detected[link] != detected {
                        return Err(format!(
                            "road {r} link {link}: incremental movement (total {}, detected {})                              != rescan (total {total}, detected {detected})",
                            mv.total[link], mv.detected[link]
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Simulates one step of `Δt`, injecting this tick's `arrivals`.
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
    /// from observations or decision vectors.
    pub fn step_into(&mut self, arrivals: &mut Vec<Arrival>, report: &mut StepReport) {
        self.step_phases(arrivals, report, None);
    }

    /// [`step_into`](Self::step_into) with per-phase wall-clock
    /// attribution: each phase group's elapsed time is *added* to
    /// `timings`, so one accumulator can span a whole measured run.
    pub fn step_into_timed(
        &mut self,
        arrivals: &mut Vec<Arrival>,
        report: &mut StepReport,
        timings: &mut PhaseTimings,
    ) {
        self.step_phases(arrivals, report, Some(timings));
    }

    fn step_phases(
        &mut self,
        arrivals: &mut Vec<Arrival>,
        report: &mut StepReport,
        timings: Option<&mut PhaseTimings>,
    ) {
        let now = self.now;
        let mut watch = PhaseStopwatch::new(timings);

        // 1. Sense: rewrite the per-intersection observation buffer from
        //    the incremental detector counters (O(links) per junction).
        let mut obs_buf = std::mem::take(&mut self.obs_buf);
        for i in self.topology.intersection_ids() {
            self.observe_into(i, obs_buf.get_mut(i.index()));
        }

        // 2. Decide: one controller per intersection, reading only its own
        //    observation.
        {
            let topology = &self.topology;
            parallel::decide_all(&mut self.controllers, &obs_buf, now, |idx| {
                topology
                    .intersection(IntersectionId::new(idx as u32))
                    .layout()
            });
        }
        self.obs_buf = obs_buf;

        // 3. Refresh per-link green flags and service credits.
        for i in self.topology.intersection_ids() {
            let layout = self.topology.intersection(i).layout();
            let j = &mut self.junctions[i.index()];
            j.active.iter_mut().for_each(|a| *a = false);
            if let PhaseDecision::Control(phase) = self.controllers[i.index()].decision {
                for &l in layout.phase(phase).links() {
                    j.active[l.index()] = true;
                }
            }
            for l in layout.link_ids() {
                let idx = l.index();
                if j.active[idx] {
                    let mu_dt = layout.link(l).service_rate() * self.config.dt_seconds;
                    j.credit[idx] = (j.credit[idx] + mu_dt).min(mu_dt.max(1.0));
                } else {
                    j.credit[idx] = 0.0;
                }
                if self.config.lane_discipline == crate::LaneDiscipline::DedicatedPerMovement {
                    let in_road = self.link_in_road[i.index()][idx];
                    let lane = self.lane_index_by_link[in_road][idx];
                    self.lane_green[in_road][lane] = j.active[idx] && j.credit[idx] >= 1.0;
                }
            }
        }
        watch.lap(|t| &mut t.decide);

        // 4. Box countdown.
        for j in &mut self.junctions {
            for c in &mut j.in_box {
                if c.remaining > 0 {
                    c.remaining -= 1;
                }
            }
        }

        // 5. Head phase: decide release for every lane head and advance
        //    it; crossings mutate shared junction/road state (credits,
        //    occupancies, reservations). Head decisions see the
        //    tick-start state of other roads plus crossings already
        //    applied earlier in this loop.
        let mut crossings = 0u32;
        let mut completed = 0u32;
        // Fidelity decides where dawdle noise comes from: the road's
        // sequential stream (exact) or stateless counter draws (batched).
        let (fidelity, dawdle_seed) = (self.config.fidelity, self.config.seed);
        let tick = now.index();
        // Occupancy-ordered sweep: only roads with vehicles are visited
        // (ascending road index, same per-road order as a full scan, so
        // exact-mode RNG streams are untouched — empty lanes never drew).
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
            for lane_idx in 0..self.net.num_lanes(r) {
                if self.net.is_empty(r, lane_idx) {
                    continue;
                }
                // Release decision for the head vehicle.
                let (mode, head_dest) = match dest {
                    None => (HeadMode::Release, None),
                    Some(j) => {
                        // Green-with-credit: the precomputed per-lane flag
                        // under dedicated lanes; the live junction lookup
                        // under SharedMixed (head-of-line semantics —
                        // whatever movement the *head* vehicle needs
                        // governs the lane; its cached link never changes
                        // on-road).
                        let (green, li) = match self.config.lane_discipline {
                            crate::LaneDiscipline::DedicatedPerMovement => {
                                (self.lane_green[r][lane_idx], usize::MAX)
                            }
                            crate::LaneDiscipline::SharedMixed => {
                                let li = self.net.link_at(r, lane_idx, 0) as usize;
                                (
                                    self.junctions[j].active[li]
                                        && self.junctions[j].credit[li] >= 1.0,
                                    li,
                                )
                            }
                        };
                        if green {
                            let li = if li != usize::MAX {
                                li
                            } else {
                                self.lane_links[r][lane_idx]
                                    .expect("dedicated lanes always map to a link")
                                    .index()
                            };
                            let out_r = self.link_out_road[j][li];
                            if !self.roads[out_r].closed
                                && self.roads[out_r].occupancy < self.roads[out_r].capacity
                            {
                                let slot = self.net.slot_at(r, lane_idx, 0);
                                let dest_lane = self.choose_dest_lane(
                                    out_r,
                                    self.arena.hop(slot) + 1,
                                    self.arena.route(slot),
                                );
                                if self.dest_lane_has_room(out_r, dest_lane) {
                                    (HeadMode::Release, Some((j, li, out_r, dest_lane)))
                                } else {
                                    (HeadMode::Blocked, None)
                                }
                            } else {
                                (HeadMode::Blocked, None)
                            }
                        } else {
                            (HeadMode::Blocked, None)
                        }
                    }
                };

                let road = &mut self.roads[r];
                let mut noise = match fidelity {
                    Fidelity::Exact => DawdleSource::Stream(&mut road.rng),
                    Fidelity::Batched => DawdleSource::Counter {
                        seed: dawdle_seed,
                        tick,
                    },
                };
                let outcome = advance_head(
                    &mut self.net,
                    r,
                    lane_idx,
                    length,
                    mode,
                    &self.config,
                    spec,
                    &mut noise,
                    road.move_counts.as_mut(),
                );
                if outcome.detected_delta != 0 {
                    road.lane_detected[lane_idx] =
                        (road.lane_detected[lane_idx] as i32 + outcome.detected_delta) as u32;
                    road.detected_sum = (road.detected_sum as i32 + outcome.detected_delta) as u32;
                }
                if outcome.halted_delta != 0 {
                    road.lane_halted[lane_idx] =
                        (road.lane_halted[lane_idx] as i32 + outcome.halted_delta) as u32;
                    road.halted_sum = (road.halted_sum as i32 + outcome.halted_delta) as u32;
                }
                if let Some((slot, wait)) = outcome.crossed {
                    match head_dest {
                        None => {
                            // Exit road: the vehicle leaves the network,
                            // flushing its accumulated waiting.
                            road.occupancy = road.occupancy.saturating_sub(1);
                            let id = self.arena.release(slot);
                            self.ledger.complete(id, now, wait);
                            completed += 1;
                        }
                        Some((j, li, out_r, dest_lane)) => {
                            self.junctions[j].credit[li] -= 1.0;
                            self.roads[r].occupancy = self.roads[r].occupancy.saturating_sub(1);
                            self.roads[out_r].occupancy += 1;
                            self.roads[out_r].pending[dest_lane] += 1;
                            self.arena.bump_hop(slot);
                            self.junctions[j].in_box.push(Crossing {
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
        //    the active-road list over one view of the network arena (a
        //    few linear sweeps, zero allocation).
        {
            let (mut view, spans, active) = self.net.follower_parts();
            for &r in active {
                let r = r as usize;
                follow_road(&mut view, &spans[r], &mut self.roads[r], &self.config, tick);
            }
        }
        watch.lap(|t| &mut t.car_following);

        // 7. Land vehicles whose box traversal finished. Ready crossings
        //    are drained through a reused scratch vector so box order is
        //    preserved for the held ones, without per-tick allocation.
        {
            let junctions = &mut self.junctions;
            let roads = &mut self.roads;
            let net = &mut self.net;
            let config = &self.config;
            let scratch = &mut self.landing_scratch;
            let arena = &self.arena;
            for junction in junctions.iter_mut() {
                if junction.in_box.is_empty() {
                    continue;
                }
                std::mem::swap(&mut junction.in_box, scratch);
                for crossing in scratch.drain(..) {
                    if crossing.remaining > 0 {
                        junction.in_box.push(crossing);
                        continue;
                    }
                    let road = &mut roads[crossing.dest_road];
                    if !net.entry_clear(crossing.dest_road, crossing.dest_lane, road.length, config)
                    {
                        // Held in the box until the lane entry clears.
                        junction.in_box.push(crossing);
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
                    road.sensor_add(crossing.dest_lane, 0.0, speed);
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
                        arena.id(crossing.slot).raw(),
                    );
                    road.pending[crossing.dest_lane] -= 1;
                    road.entered += 1;
                }
            }
        }
        watch.lap(|t| &mut t.landings);

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
                self.place_vehicle(r, lane_idx, entry.id, entry.route, dwell);
            }
        }
        for arrival in arrivals.drain(..) {
            let Arrival { vehicle, route, .. } = arrival;
            let r = route.entry().index();
            self.ledger.enter(vehicle, now);
            if self.backlogs[r].is_empty() {
                if let Some(lane_idx) = self.insert_slot(r, &route) {
                    self.place_vehicle(r, lane_idx, vehicle, route, 0);
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
        watch.lap(|t| &mut t.waiting);
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
                self.lane_index_by_link[out_road][link.index()]
            }
            // Exit roads and mixed-lane roads: pick the lane with the most
            // entry space.
            _ => self.emptiest_lane(out_road),
        }
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
        let pending = road.pending[dest_lane] as f64;
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
            crate::LaneDiscipline::DedicatedPerMovement => self.lane_index_by_link[r][link.index()],
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

    /// Inserts a vehicle at the start of lane `lane_idx` of road `r`
    /// (which [`insert_slot`](Self::insert_slot) must have cleared),
    /// seeding its wait accumulator with `wait` already-accrued ticks
    /// (backlog dwell).
    fn place_vehicle(
        &mut self,
        r: usize,
        lane_idx: usize,
        id: VehicleId,
        route: Arc<Route>,
        mut wait: u64,
    ) {
        let (_, link) = route.hop(0).expect("routes have at least one hop");
        let link = link.index() as u16;
        let slot = self.arena.insert(id, route);
        let length = self.roads[r].length;
        let leader = lane_entry_leader(&self.net, r, lane_idx, length, &self.config);
        let speed = next_speed(self.config.insertion_speed_mps, leader, 0.0, &self.config);
        if speed < self.config.waiting_speed_mps {
            // Inserted into a standing queue after the follower phase:
            // this tick already counts as waiting.
            wait += 1;
        }
        let road = &mut self.roads[r];
        road.sensor_add(lane_idx, 0.0, speed);
        if let Some(mv) = road.move_counts.as_mut() {
            mv.add(link as usize, 0.0, road.spec);
        }
        road.occupancy += 1;
        road.entered += 1;
        self.net
            .push(r, lane_idx, 0.0, speed, wait, slot, link, id.raw());
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
        for j in 0..self.junctions.len() {
            for c in 0..self.junctions[j].in_box.len() {
                let slot = self.junctions[j].in_box[c].slot;
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

    /// Serializes the whole plant state — fleet (arena + lanes), per-road
    /// RNG stream positions, incremental sensor/movement counters,
    /// junction boxes and credits, closure flags, backlogs, the waiting
    /// ledger, and every controller's state — such that
    /// [`load_state`](Self::load_state) into a freshly built simulator
    /// (same topology, config, and controller composition) continues
    /// bit-identically to the uninterrupted run.
    ///
    /// Intra-step scratch (observation buffers, per-step green flags,
    /// landing drains, the lanes' dequeue offsets) is *not* state: it is
    /// rebuilt by the next step's earlier phases, and canonicalizing it
    /// away makes save → load → save a byte-level fixed point.
    pub fn save_state(&self, writer: &mut StateWriter) {
        writer.push(self.now.index());
        writer.push(self.total_crossings);
        self.arena.save_state(writer);
        writer.push_usize(self.roads.len());
        for (r, road) in self.roads.iter().enumerate() {
            writer.push_bool(road.closed);
            writer.push_u32(road.occupancy);
            writer.push(road.entered);
            writer.push_usize(self.net.num_lanes(r));
            for l in 0..self.net.num_lanes(r) {
                self.net.save_lane(r, l, writer);
            }
            for &p in &road.pending {
                writer.push_u32(p);
            }
            for &d in &road.lane_detected {
                writer.push_u32(d);
            }
            for &h in &road.lane_halted {
                writer.push_u32(h);
            }
            writer.push_u32(road.detected_sum);
            writer.push_u32(road.halted_sum);
            match &road.move_counts {
                None => writer.push_bool(false),
                Some(mv) => {
                    writer.push_bool(true);
                    mv.save_state(writer);
                }
            }
            for word in road.rng.state() {
                writer.push(word);
            }
        }
        writer.push_usize(self.junctions.len());
        for junction in &self.junctions {
            writer.push_usize(junction.in_box.len());
            for c in &junction.in_box {
                writer.push_u32(c.slot);
                writer.push(c.wait);
                writer.push(c.remaining);
                writer.push_usize(c.dest_road);
                writer.push_usize(c.dest_lane);
            }
            writer.push_usize(junction.credit.len());
            for &credit in &junction.credit {
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
        self.ledger.save_state(writer);
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
    /// Returns a [`StateError`] on a truncated or corrupt stream, or
    /// when the saved shape (road/lane/junction counts) disagrees with
    /// this simulator's topology.
    pub fn load_state(&mut self, reader: &mut StateReader<'_>) -> Result<(), StateError> {
        self.now = Tick::new(reader.take()?);
        self.total_crossings = reader.take()?;
        self.arena.load_state(reader)?;
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
                road.occupancy = reader.take_u32()?;
                road.entered = reader.take()?;
            }
            let num_lanes = reader.take_usize()?;
            if num_lanes != self.net.num_lanes(r) {
                return Err(StateError::Invalid {
                    what: "lane count",
                    word: num_lanes as u64,
                });
            }
            for l in 0..num_lanes {
                self.net.load_lane(r, l, reader)?;
            }
            // The lanes' cached vehicle ids are not on the wire; rebuild
            // them from the (already restored) arena.
            self.net.refresh_ids_road(r, &self.arena);
            let road = &mut self.roads[r];
            for p in &mut road.pending {
                *p = reader.take_u32()?;
            }
            for d in &mut road.lane_detected {
                *d = reader.take_u32()?;
            }
            for h in &mut road.lane_halted {
                *h = reader.take_u32()?;
            }
            road.detected_sum = reader.take_u32()?;
            road.halted_sum = reader.take_u32()?;
            let has_moves = reader.take_bool()?;
            match (&mut road.move_counts, has_moves) {
                (Some(mv), true) => mv.load_state(reader)?,
                (None, false) => {}
                (_, word) => {
                    return Err(StateError::Invalid {
                        what: "movement counter presence",
                        word: word as u64,
                    })
                }
            }
            let mut rng_state = [0u64; 4];
            for word in &mut rng_state {
                *word = reader.take()?;
            }
            road.rng = SmallRng::from_state(rng_state);
        }
        let num_junctions = reader.take_usize()?;
        if num_junctions != self.junctions.len() {
            return Err(StateError::Invalid {
                what: "junction count",
                word: num_junctions as u64,
            });
        }
        for junction in &mut self.junctions {
            let in_box = reader.take_usize()?;
            junction.in_box.clear();
            for _ in 0..in_box {
                junction.in_box.push(Crossing {
                    slot: reader.take_u32()?,
                    wait: reader.take()?,
                    remaining: reader.take()?,
                    dest_road: reader.take_usize()?,
                    dest_lane: reader.take_usize()?,
                });
            }
            let credits = reader.take_usize()?;
            if credits != junction.credit.len() {
                return Err(StateError::Invalid {
                    what: "credit count",
                    word: credits as u64,
                });
            }
            for credit in &mut junction.credit {
                *credit = reader.take_f64()?;
            }
        }
        for backlog in &mut self.backlogs {
            let len = reader.take_usize()?;
            backlog.clear();
            for _ in 0..len {
                let id = VehicleId::new(reader.take()?);
                let since = Tick::new(reader.take()?);
                let route = Arc::new(Route::load_state(reader)?);
                backlog.push_back(Backlogged { id, route, since });
            }
        }
        self.ledger = WaitingLedger::load_state(reader)?;
        for slot in &mut self.controllers {
            slot.controller.load_state(reader)?;
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

/// Runs the follower phase for one road under the configured fidelity,
/// folding the kernels' sensor deltas into the road's dense counters.
fn follow_road(
    view: &mut LaneView<'_>,
    span: &RoadSpan,
    road: &mut RoadSim,
    config: &MicroSimConfig,
    tick: u64,
) {
    let RoadSim {
        length,
        spec,
        rng,
        move_counts,
        lane_detected,
        lane_halted,
        detected_sum,
        halted_sum,
        ..
    } = road;
    match config.fidelity {
        Fidelity::Exact => {
            for l in 0..span.num_lanes {
                let (dd, hd) = advance_followers(
                    view,
                    span,
                    l,
                    *length,
                    config,
                    *spec,
                    rng,
                    move_counts.as_mut(),
                );
                if dd != 0 {
                    lane_detected[l] = (lane_detected[l] as i64 + dd) as u32;
                    *detected_sum = (*detected_sum as i64 + dd) as u32;
                }
                if hd != 0 {
                    lane_halted[l] = (lane_halted[l] as i64 + hd) as u32;
                    *halted_sum = (*halted_sum as i64 + hd) as u32;
                }
            }
        }
        // The batched kernel advances the whole road in one call and
        // folds per-lane sensor deltas itself.
        Fidelity::Batched => {
            let (dd, hd) = advance_followers_batched_road(
                view,
                span,
                *length,
                config,
                *spec,
                config.seed,
                tick,
                move_counts.as_mut(),
                lane_detected,
                lane_halted,
            );
            *detected_sum = (*detected_sum as i64 + dd) as u32;
            *halted_sum = (*halted_sum as i64 + hd) as u32;
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
            sim.step_into(&mut arrivals, &mut report);
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
            sim.step_into(&mut arrivals, &mut report);
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
            if sim.net.road_len(r) == 0 && sim.roads[r].pending.iter().all(|&p| p == 0) {
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

    /// Manual interleaved exact/batched A/B throughput probe on the
    /// 10×10 bench workload — alternating short measurement windows so
    /// shared-box drift hits both fidelities equally:
    /// `cargo test -p utilbp-microsim --release -- --ignored --nocapture fidelity_ab`.
    #[test]
    #[ignore = "manual probe"]
    fn fidelity_ab_probe() {
        use std::time::Instant;
        let run = |fidelity: Fidelity| {
            let g = GridNetwork::new(GridSpec::with_size(10, 10));
            let n = g.topology().num_intersections();
            let controllers = (0..n)
                .map(|_| Box::new(UtilBp::paper()) as Box<dyn SignalController>)
                .collect();
            let sim = MicroSim::new(
                g.topology().clone(),
                controllers,
                MicroSimConfig {
                    fidelity,
                    ..MicroSimConfig::default()
                },
            );
            let gen = DemandGenerator::new(
                &g,
                DemandConfig::new(DemandSchedule::constant(
                    Pattern::I,
                    Ticks::new(u64::MAX / 2),
                )),
                7,
            );
            let arrivals = Vec::new();
            let report = crate::StepReport::empty();
            (sim, gen, g, arrivals, report)
        };
        let (mut ex, mut ex_gen, g, mut arrivals, mut report) = run(Fidelity::Exact);
        let (mut ba, mut ba_gen, ..) = run(Fidelity::Batched);
        let mut k = 0u64;
        for _ in 0..300u64 {
            arrivals.clear();
            ex_gen.poll_into(&g, utilbp_core::Tick::new(k), &mut arrivals);
            ex.step_into(&mut arrivals, &mut report);
            arrivals.clear();
            ba_gen.poll_into(&g, utilbp_core::Tick::new(k), &mut arrivals);
            ba.step_into(&mut arrivals, &mut report);
            k += 1;
        }
        let (mut best_ex, mut best_ba) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..6 {
            let window = 200u64;
            let t = Instant::now();
            for i in 0..window {
                arrivals.clear();
                ex_gen.poll_into(&g, utilbp_core::Tick::new(k + i), &mut arrivals);
                ex.step_into(&mut arrivals, &mut report);
            }
            best_ex = best_ex.min(t.elapsed().as_secs_f64());
            let t = Instant::now();
            for i in 0..window {
                arrivals.clear();
                ba_gen.poll_into(&g, utilbp_core::Tick::new(k + i), &mut arrivals);
                ba.step_into(&mut arrivals, &mut report);
            }
            best_ba = best_ba.min(t.elapsed().as_secs_f64());
            k += window;
        }
        eprintln!(
            "exact {:.0} ticks/s, batched {:.0} ticks/s ({:.2}x)",
            200.0 / best_ex,
            200.0 / best_ba,
            best_ex / best_ba
        );
    }
}
