//! The scenario engine: drives a [`TrafficSubstrate`] through a
//! [`ScenarioSpec`]'s demand profile and event timeline.
//!
//! Both simulators are built by [`build_substrate`], the one function
//! that names them, and driven through the plant contract of
//! `utilbp-substrate` — the engine never dispatches on the backend. When
//! the scenario enables a routing-response policy, the engine rewrites
//! the routes of vehicles already en route via [`Replanner`]: closure
//! events divert threatened journeys, reopenings restore previously
//! diverted vehicles onto strictly better open routes, and — under
//! [`ReplanPolicy::Congestion`] — a periodic monitor diverts journeys
//! headed into congested roads, with hysteresis preventing reroute
//! oscillation (see the substrate crate's docs for the routing-response
//! semantics and determinism contract). Periodic congestion checks are
//! interleaved deterministically with the event timeline: each tick
//! applies due events first, then the congestion check when one is due,
//! then demand and the simulation step.
//!
//! The engine is also where the CPS fault plane composes: sensor-fault
//! windows wrap each controller in a gated [`FaultySensors`] decorator,
//! actuation-fault windows add a gated [`FaultyActuation`] decorator on
//! the outside, and a scenario-level watchdog installs a [`Degrading`]
//! monitor (fixed-time fallback) on the inside — so the watchdog judges
//! exactly the sensor stream the controller sees, and the actuator fault
//! distorts whatever the (possibly degraded) controller commands. An
//! [`EngineConfig::guard`] mode installs an [`InvariantGuard`] next to
//! the substrate, which re-proves conservation after every tick.
//!
//! The engine is also the attachment point of the `utilbp-telemetry`
//! flight recorder: [`ScenarioEngine::enable_recording`] installs a
//! [`FlightRecorder`] capturing tick-stamped events (phase changes,
//! closures, fault windows, watchdog transitions, replans, observe-mode
//! guard violations), [`ScenarioEngine::enable_gauges`] samples queue /
//! pressure / occupancy / backlog gauges on a cadence, and
//! [`ScenarioEngine::enable_profiling`] attributes each tick's
//! wall-clock to pipeline [`Section`]s. All instruments are strictly
//! passive — see the telemetry crate's determinism/passivity contract.

use std::collections::HashSet;

use utilbp_baselines::{
    Degrading, FaultSwitch, FaultyActuation, FaultySensors, FixedTime, WatchdogStats, AMBER,
};
use utilbp_core::state::{StateError, StateReader, StateWriter};
use utilbp_core::{SignalController, Tick, Ticks};
use utilbp_metrics::{TimeSeries, VehicleId, WaitingLedger};
use utilbp_microsim::{LaneDiscipline, MicroSim, MicroSimConfig};
use utilbp_netgen::{Arrival, Network, NetworkTopology, Replanner, RoadId, TurningProbabilities};
use utilbp_queueing::{QueueSim, QueueSimConfig};
use utilbp_snapshot::{crc32, SnapshotReader, SnapshotWriter};
use utilbp_substrate::{GuardMode, InvariantGuard, StepReport, TrafficSubstrate};
use utilbp_telemetry::{
    Event, EventKind, FlightRecorder, GaugeId, GaugeRegistry, PhaseStopwatch, ReplanTrigger,
    Section, TickProfiler,
};

use crate::checkpoint::{
    CheckpointPolicy, RestoreError, TAG_ENGINE, TAG_META, TAG_PLANT, TAG_SPEC, TAG_TELEMETRY,
};
use crate::demand::NetworkDemand;
use crate::spec::{Backend, ReplanPolicy, ScenarioEvent, ScenarioSpec};

/// How the engine runs a scenario: substrate, guard, and the
/// microscopic parameters (the queueing substrate derives its `Δt` and
/// free-flow speed from them, so both backends simulate the same physical
/// setup).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// The simulation substrate.
    pub backend: Backend,
    /// Microscopic parameters.
    pub micro: MicroSimConfig,
    /// When set, the engine installs an [`InvariantGuard`] that
    /// re-proves vehicle conservation, sensor consistency, and
    /// closed-road emptiness after every tick. [`GuardMode::Panic`]
    /// aborts the run with a tick-stamped diagnostic on the first
    /// violation (chaos harnesses use it); [`GuardMode::Observe`] keeps
    /// stepping and surfaces violations as `guard_violation` events when
    /// a recorder is installed (the `trace` replay uses it). Off by
    /// default: besides a per-tick occupancy sweep, the guard runs the
    /// plant's `verify_sensors`, a full rescan of the network that is
    /// most of a guarded run's cost; production runs pay nothing for it
    /// when disabled.
    pub(crate) guard: Option<GuardMode>,
}

impl EngineConfig {
    /// A config for `backend` with default parameters.
    pub fn new(backend: Backend) -> Self {
        EngineConfig {
            backend,
            micro: MicroSimConfig::default(),
            guard: None,
        }
    }

    /// The same config with the invariant guard enabled.
    pub fn guarded(mut self) -> Self {
        self.guard = Some(GuardMode::Panic);
        self
    }

    /// The same config with the invariant guard enabled in observe
    /// (non-panicking, event-emitting) mode.
    pub fn observed(mut self) -> Self {
        self.guard = Some(GuardMode::Observe);
        self
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::new(Backend::Queueing)
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

/// FNV-1a fingerprint of the microscopic parameters. Stored in every
/// checkpoint's metadata: the physical parameters shape the plant state
/// and the controller inputs, so restoring under different ones would
/// silently break the bit-identical-continuation contract — the
/// fingerprint turns that into a typed `RestoreError::Mismatch`.
fn micro_fingerprint(cfg: &MicroSimConfig) -> u64 {
    let mut w = StateWriter::new();
    w.push_f64(cfg.dt_seconds);
    w.push_f64(cfg.free_speed_mps);
    w.push_f64(cfg.vehicle_length_m);
    w.push_f64(cfg.min_gap_m);
    w.push_f64(cfg.max_accel);
    w.push_f64(cfg.max_decel);
    w.push_f64(cfg.reaction_time_s);
    w.push_f64(cfg.sigma);
    w.push(cfg.crossing_ticks);
    w.push_f64(cfg.detection_range_m);
    w.push_f64(cfg.waiting_speed_mps);
    w.push_f64(cfg.halt_speed_mps);
    w.push(match cfg.lane_discipline {
        LaneDiscipline::DedicatedPerMovement => 0,
        LaneDiscipline::SharedMixed => 1,
    });
    w.push_f64(cfg.insertion_speed_mps);
    w.push(cfg.seed);
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for &byte in w.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// META's guard word: one value per [`EngineConfig::guard`] setting.
fn guard_word(guard: Option<GuardMode>) -> u64 {
    match guard {
        None => 0,
        Some(GuardMode::Panic) => 1,
        Some(GuardMode::Observe) => 2,
    }
}

/// Domain-separation tag for the fault-injection RNG streams: without
/// it, intersection 0's stream would collide with the demand generator
/// and the microscopic road-0 dawdling stream, which are both seeded
/// directly from `ScenarioSpec::seed`.
const FAULT_SEED_DOMAIN: u64 = 0x534E_534F_5246_4C54;

/// Domain-separation tag for the actuation-fault RNG streams — distinct
/// from [`FAULT_SEED_DOMAIN`] so a scenario with both a sensor-fault and
/// an actuation-fault window gives each decorator its own stream, and
/// adding one window never perturbs the other's draws.
const ACTUATION_SEED_DOMAIN: u64 = 0x4143_5455_4154_4F52;

/// A normalized timeline action (events unpacked into on/off edges).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Action {
    Closed(RoadId, bool),
    Surge(f64),
    Faults(bool),
    ActuationFaults(bool),
}

/// Floor for the congestion weight of an open, uncongested road: keeps a
/// nearly-full (but below-threshold) road admissible rather than rounding
/// its weight to zero.
const MIN_OPEN_ROAD_WEIGHT: f64 = 0.05;

/// The hysteresis-banded congested-road set behind
/// [`ReplanPolicy::Congestion`].
///
/// A road *enters* the set when its occupancy/capacity ratio reaches
/// `threshold` and *leaves* it only when the ratio falls below
/// `threshold - hysteresis`. Occupancy hovering anywhere inside the band
/// therefore never toggles the set — and since the engine only replans
/// when the set is non-empty and a rerouted journey avoids every
/// congested road, a stable set means zero reroute churn.
///
/// # Examples
///
/// ```
/// use utilbp_scenario::CongestionMonitor;
///
/// let mut monitor = CongestionMonitor::new(0.8, 0.2, 1);
/// assert!(!monitor.update(&[0.79]), "below threshold: clear");
/// assert!(monitor.update(&[0.8]), "at threshold: congested");
/// assert!(monitor.update(&[0.65]), "inside the band: still congested");
/// assert!(!monitor.update(&[0.59]), "below the band: clear again");
/// assert_eq!(monitor.transitions(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct CongestionMonitor {
    threshold: f64,
    hysteresis: f64,
    congested: Vec<bool>,
    transitions: u64,
}

impl CongestionMonitor {
    /// A monitor over `num_roads` roads, all initially clear.
    ///
    /// # Panics
    ///
    /// Panics if the parameters fail [`ReplanPolicy::validate`]'s rules
    /// (positive finite threshold, hysteresis in `[0, threshold)`).
    pub fn new(threshold: f64, hysteresis: f64, num_roads: usize) -> Self {
        ReplanPolicy::Congestion {
            period: 1,
            threshold,
            hysteresis,
        }
        .validate()
        .expect("monitor parameters are valid");
        CongestionMonitor {
            threshold,
            hysteresis,
            congested: vec![false; num_roads],
            transitions: 0,
        }
    }

    /// Folds one snapshot of per-road occupancy/capacity ratios into the
    /// set; returns whether any road is congested afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `ratios` is not sized to the road count.
    pub fn update(&mut self, ratios: &[f64]) -> bool {
        assert_eq!(ratios.len(), self.congested.len(), "one ratio per road");
        let mut any = false;
        for (flag, &ratio) in self.congested.iter_mut().zip(ratios) {
            let next = if *flag {
                ratio >= self.threshold - self.hysteresis
            } else {
                ratio >= self.threshold
            };
            if next != *flag {
                self.transitions += 1;
                *flag = next;
            }
            any |= next;
        }
        any
    }

    /// The congested flag of every road, indexed by `RoadId`.
    pub(crate) fn congested(&self) -> &[bool] {
        &self.congested
    }

    /// Total per-road state flips since construction — the churn metric
    /// hysteresis is there to bound.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }
}

/// The aggregate result of one scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// The scenario's name.
    pub scenario: String,
    /// The substrate it ran on.
    pub backend: Backend,
    /// Vehicles generated by the demand process.
    pub generated: u64,
    /// Would-be arrivals suppressed by closures (no open route).
    pub suppressed: u64,
    /// Vehicles already en route whose routes were rewritten away from a
    /// closed or congested road (0 unless the scenario enables a
    /// routing-response policy).
    pub diverted: u64,
    /// Previously diverted vehicles rewritten back onto a strictly better
    /// open route after a reopening or once the congested set cleared
    /// (0 unless the scenario enables a routing-response policy).
    pub restored: u64,
    /// Vehicles that completed their journey within the horizon.
    pub completed: u64,
    /// Watchdog fallback activations summed over intersections (0 unless
    /// the scenario installs a watchdog).
    pub fallback_activations: u64,
    /// Intersection-ticks spent under the fixed-time fallback, summed
    /// over intersections.
    pub ticks_degraded: u64,
    /// Mean ticks from fallback activation to hysteresis-confirmed
    /// recovery, over completed degradation episodes (0.0 when none
    /// recovered).
    pub recovery_time: f64,
    /// The paper's headline metric: mean queuing time per vehicle in
    /// seconds, counting vehicles still in the network at the horizon.
    pub avg_queuing_time_s: f64,
    /// Mean journey time over completed vehicles, seconds.
    pub mean_journey_s: f64,
    /// Vehicles still waiting outside full/closed boundary entries at the
    /// horizon.
    pub final_backlog: usize,
}

/// The engine's gauge handles: one registry plus the ids of every
/// registered series, so sampling never does a name lookup.
struct Gauges {
    registry: GaugeRegistry,
    backlog: GaugeId,
    congested: GaugeId,
    /// Per-intersection total incoming queue, intersection order.
    queue: Vec<GaugeId>,
    /// Per-intersection peak movement queue (a pressure proxy: the
    /// back-pressure controllers activate the phase serving the longest
    /// movement queues), intersection order.
    pressure: Vec<GaugeId>,
    /// Per-road occupancy, road order.
    occupancy: Vec<GaugeId>,
}

/// The engine's observability state. All of it is strictly passive:
/// with no recorder (the default), no profiler and no gauges, every
/// telemetry branch in the step path is a cold `None` test and the hot
/// loop allocates nothing.
struct Telemetry {
    /// The event sink; recording is on exactly when it is `Some`.
    /// Emitters test it before constructing an event.
    recorder: Option<FlightRecorder>,
    gauges: Option<Gauges>,
    profiler: Option<TickProfiler>,
    /// Last recorded `trace_value` per intersection (empty until the
    /// first recorded tick, which emits every intersection's phase).
    prev_trace: Vec<u16>,
    /// Watchdog counter watermarks, for activation/recovery deltas.
    prev_activations: Vec<u64>,
    prev_recoveries: Vec<u64>,
}

impl Telemetry {
    fn off() -> Self {
        Telemetry {
            recorder: None,
            gauges: None,
            profiler: None,
            prev_trace: Vec::new(),
            prev_activations: Vec::new(),
            prev_recoveries: Vec::new(),
        }
    }

    /// Records `event` when a recorder is installed.
    fn record(&mut self, event: Event) {
        if let Some(recorder) = self.recorder.as_mut() {
            recorder.record(event);
        }
    }

    /// Emits a `phase_change` event for every intersection whose
    /// decision differs from the last recorded one (all of them on the
    /// first recorded tick).
    fn record_phases(&mut self, now: Tick, decisions: &[utilbp_core::PhaseDecision]) {
        if self.prev_trace.len() != decisions.len() {
            self.prev_trace.clear();
            self.prev_trace.resize(decisions.len(), u16::MAX);
        }
        for (i, decision) in decisions.iter().enumerate() {
            let value = u16::from(decision.trace_value());
            if self.prev_trace[i] != value {
                self.prev_trace[i] = value;
                self.record(Event {
                    tick: now,
                    kind: EventKind::PhaseChange {
                        intersection: i as u32,
                        phase: u32::from(value),
                    },
                });
            }
        }
    }

    /// Emits watchdog activation/recovery events from per-intersection
    /// counter deltas since the last recorded tick.
    fn record_watchdogs(&mut self, now: Tick, watchdogs: &[WatchdogStats]) {
        for (i, watchdog) in watchdogs.iter().enumerate() {
            let activations = watchdog.activations();
            for _ in self.prev_activations[i]..activations {
                self.record(Event {
                    tick: now,
                    kind: EventKind::WatchdogActivated {
                        intersection: i as u32,
                    },
                });
            }
            self.prev_activations[i] = activations;
            let recoveries = watchdog.recoveries();
            for _ in self.prev_recoveries[i]..recoveries {
                self.record(Event {
                    tick: now,
                    kind: EventKind::WatchdogRecovered {
                        intersection: i as u32,
                    },
                });
            }
            self.prev_recoveries[i] = recoveries;
        }
    }
}

/// Drives one controller family through one scenario on one substrate.
///
/// Construction builds the network from the spec, instantiates one
/// controller per intersection via the factory (wrapping each in a gated
/// [`FaultySensors`] decorator when the scenario has a sensor-fault
/// window), builds the substrate through the shared
/// [`build_substrate`] constructor, and normalizes the event timeline.
/// [`step`](Self::step) applies due events, polls demand, and advances
/// the simulation one mini-slot; [`run_to_end`](Self::run_to_end)
/// finishes the horizon.
///
/// # Examples
///
/// ```
/// use utilbp_core::UtilBp;
/// use utilbp_scenario::{builtin, EngineConfig, ScenarioEngine};
///
/// let spec = builtin("paper-grid").unwrap();
/// let mut engine = ScenarioEngine::new(spec, EngineConfig::default(), &|_| {
///     Box::new(UtilBp::paper())
/// })
/// .unwrap();
/// for _ in 0..60 {
///     engine.step();
/// }
/// assert!(engine.demand_generated() > 0);
/// ```
pub struct ScenarioEngine {
    spec: ScenarioSpec,
    network: Network,
    demand: NetworkDemand,
    substrate: Box<dyn TrafficSubstrate>,
    /// The invariant checker run after every step (see
    /// [`EngineConfig::guard`]).
    guard: Option<InvariantGuard>,
    dt_seconds: f64,
    actions: Vec<(Tick, Action)>,
    cursor: usize,
    fault_switch: FaultSwitch,
    actuation_switch: FaultSwitch,
    /// One stats handle per intersection watchdog (empty unless the spec
    /// installs one).
    watchdogs: Vec<WatchdogStats>,
    arrivals: Vec<Arrival>,
    report: StepReport,
    /// Turning probabilities of the scenario's topology (detour weights).
    turning: TurningProbabilities,
    /// Vehicles diverted by en-route replanning so far (closure and
    /// congestion diversions).
    diverted: u64,
    /// Previously diverted vehicles rewritten back after a reopening.
    restored: u64,
    /// The congestion-diversion share of `diverted`.
    congestion_reroutes: u64,
    /// The congestion-clearance share of `restored`.
    congestion_restores: u64,
    /// Congestion-diverted vehicles still on a detour — restored once
    /// the congested set empties. Only membership is ever queried, so
    /// the unordered set cannot perturb determinism.
    congestion_diverted_ids: HashSet<VehicleId>,
    /// Set while a congestion episode is in progress; the restore pass
    /// runs once, at the congested→clear transition, rather than on
    /// every clear periodic check (vehicles whose detour ties their
    /// canonical route would otherwise trigger a futile fleet walk
    /// every period for the rest of the run).
    congestion_restore_pending: bool,
    /// Closure-diverted vehicles still on a detour — the population
    /// reopen-restore considers. Only membership is ever queried, so the
    /// unordered set cannot perturb determinism.
    diverted_ids: HashSet<VehicleId>,
    /// The congested-road set, when the policy is
    /// [`ReplanPolicy::Congestion`].
    monitor: Option<CongestionMonitor>,
    /// Roads introduced by rewritten routes that the original routes did
    /// not traverse (deduplicated, first-seen order).
    detour_roads: Vec<RoadId>,
    /// Reusable per-road scratch: occupancy snapshot, occupancy/capacity
    /// ratios, closure mask, and the congestion weight view.
    occ_scratch: Vec<u32>,
    ratio_scratch: Vec<f64>,
    closed_scratch: Vec<bool>,
    weight_scratch: Vec<f64>,
    /// The flight-recorder / gauge / profiler plane (off by default).
    telemetry: Telemetry,
    /// The configuration the engine was built under — embedded in
    /// checkpoints so restore can reject a mismatched offer, and reused
    /// by [`fork`](Self::fork).
    config: EngineConfig,
    /// Periodic checkpoint capture, when enabled.
    ckpt_policy: Option<CheckpointPolicy>,
    /// The most recent policy-captured checkpoints, oldest first.
    checkpoints: Vec<(Tick, Vec<u8>)>,
}

/// Reads a diverted-vehicle id set written sorted by
/// `save_engine_state`: strictly ascending ids, each below `ids`, the
/// number of ids the demand has issued.
fn load_id_set(
    set: &mut HashSet<VehicleId>,
    ids: u64,
    reader: &mut StateReader<'_>,
) -> Result<(), StateError> {
    let len = reader.take_usize()?;
    set.clear();
    let mut floor = 0;
    for _ in 0..len {
        let id = reader.take()?;
        if id < floor || id >= ids {
            return Err(StateError::Invalid {
                what: "diverted vehicle id",
                word: id,
            });
        }
        floor = id + 1;
        set.insert(VehicleId::new(id));
    }
    Ok(())
}

/// How many policy-captured checkpoints the engine retains; corrupting
/// the newest must still leave fallbacks.
const CHECKPOINT_RETAIN: usize = 4;

impl ScenarioEngine {
    /// Builds an engine for `spec` under `config`, with
    /// `make_controller(i)` producing the controller of intersection `i`.
    ///
    /// # Errors
    ///
    /// Returns the validation message if the spec fails
    /// [`ScenarioSpec::validate`]; it is checked before its network is
    /// built, so no spec panics here.
    pub fn new(
        spec: ScenarioSpec,
        config: EngineConfig,
        make_controller: &dyn Fn(usize) -> Box<dyn SignalController>,
    ) -> Result<Self, String> {
        let network = spec.validated_network()?;

        let fault_switch = FaultSwitch::new(false);
        let actuation_switch = FaultSwitch::new(false);
        let sensor_fault = spec.sensor_fault();
        let actuation_fault = spec.actuation_fault();
        let n = network.topology().num_intersections();
        let mut watchdogs: Vec<WatchdogStats> = Vec::new();
        let controllers: Vec<Box<dyn SignalController>> = (0..n)
            .map(|i| {
                // Every decorator gets its own fault RNG stream but
                // shares its window switch. The domain tags keep even
                // intersection 0's fault streams disjoint from the
                // demand RNG and the simulators' per-road dawdling
                // streams, which also derive from `spec.seed`.
                let stream = |domain: u64| {
                    (spec.seed ^ domain) ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                };
                // Composition order, inside out: watchdog first (it must
                // judge the same sensor stream the controller consumes),
                // then sensor corruption, then actuation faults on the
                // outermost layer (the plant executes what the actuator
                // delivers, however degraded the decision behind it).
                let mut ctrl: Box<dyn SignalController> = make_controller(i);
                if let Some(watchdog_config) = spec.watchdog {
                    let monitored = Degrading::new(
                        ctrl,
                        FixedTime::new(Ticks::new(15), AMBER),
                        watchdog_config,
                    );
                    watchdogs.push(monitored.stats());
                    ctrl = Box::new(monitored);
                }
                if let Some((fault_config, _, _)) = sensor_fault {
                    ctrl = Box::new(FaultySensors::gated(
                        ctrl,
                        fault_config,
                        stream(FAULT_SEED_DOMAIN),
                        fault_switch.clone(),
                    ));
                }
                if let Some((fault_config, _, _)) = actuation_fault {
                    ctrl = Box::new(FaultyActuation::gated(
                        ctrl,
                        fault_config,
                        stream(ACTUATION_SEED_DOMAIN),
                        actuation_switch.clone(),
                    ));
                }
                ctrl
            })
            .collect();

        let mut micro = config.micro;
        micro.seed = spec.seed;
        let substrate = build_substrate(
            config.backend,
            network.topology().clone(),
            controllers,
            micro,
        );

        let mut actions: Vec<(Tick, Action)> = Vec::new();
        for event in &spec.events {
            match *event {
                ScenarioEvent::CloseRoad { road, at } => {
                    actions.push((at, Action::Closed(road, true)));
                }
                ScenarioEvent::ReopenRoad { road, at } => {
                    actions.push((at, Action::Closed(road, false)));
                }
                ScenarioEvent::Surge {
                    factor,
                    from,
                    until,
                } => {
                    actions.push((from, Action::Surge(factor)));
                    actions.push((until, Action::Surge(1.0)));
                }
                ScenarioEvent::SensorFault { from, until, .. } => {
                    actions.push((from, Action::Faults(true)));
                    actions.push((until, Action::Faults(false)));
                }
                ScenarioEvent::ActuationFault { from, until, .. } => {
                    actions.push((from, Action::ActuationFaults(true)));
                    actions.push((until, Action::ActuationFaults(false)));
                }
            }
        }
        actions.sort_by_key(|&(tick, _)| tick);

        let demand = NetworkDemand::new(
            &network,
            spec.demand.schedule(spec.horizon),
            micro.dt_seconds,
            spec.seed,
        );

        let turning = spec.topology.turning();
        let monitor = match spec.replan {
            ReplanPolicy::Congestion {
                threshold,
                hysteresis,
                ..
            } => Some(CongestionMonitor::new(
                threshold,
                hysteresis,
                network.topology().num_roads(),
            )),
            _ => None,
        };
        Ok(ScenarioEngine {
            spec,
            network,
            demand,
            substrate,
            guard: config.guard.map(InvariantGuard::new),
            dt_seconds: micro.dt_seconds,
            actions,
            cursor: 0,
            fault_switch,
            actuation_switch,
            watchdogs,
            arrivals: Vec::new(),
            report: StepReport::empty(),
            turning,
            diverted: 0,
            restored: 0,
            congestion_reroutes: 0,
            congestion_restores: 0,
            congestion_diverted_ids: HashSet::new(),
            congestion_restore_pending: false,
            diverted_ids: HashSet::new(),
            monitor,
            detour_roads: Vec::new(),
            occ_scratch: Vec::new(),
            ratio_scratch: Vec::new(),
            closed_scratch: Vec::new(),
            weight_scratch: Vec::new(),
            telemetry: Telemetry::off(),
            config,
            ckpt_policy: None,
            checkpoints: Vec::new(),
        })
    }

    /// The scenario being run.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// The network the scenario runs on.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The next tick to be simulated: the plant clock, which advances
    /// once per [`step`](Self::step).
    pub fn now(&self) -> Tick {
        self.substrate.now()
    }

    /// Vehicles generated by the demand process so far.
    pub fn demand_generated(&self) -> u64 {
        self.demand.generated()
    }

    /// Vehicles already en route whose routes were rewritten away from a
    /// closed or congested road so far (always 0 under
    /// [`ReplanPolicy::Off`]).
    pub fn vehicles_diverted(&self) -> u64 {
        self.diverted
    }

    /// Previously diverted vehicles rewritten back onto a strictly
    /// better open route — after a reopening, or once the congestion
    /// monitor's congested set emptied — so far.
    pub fn vehicles_restored(&self) -> u64 {
        self.restored
    }

    /// The congestion-diversion share of
    /// [`vehicles_diverted`](Self::vehicles_diverted) — reroutes made by
    /// the periodic congestion monitor rather than a closure event.
    pub fn congestion_reroutes(&self) -> u64 {
        self.congestion_reroutes
    }

    /// Congested-set state flips so far (the churn metric hysteresis
    /// bounds; always 0 outside [`ReplanPolicy::Congestion`]).
    pub fn congestion_transitions(&self) -> u64 {
        self.monitor.as_ref().map_or(0, |m| m.transitions())
    }

    /// Roads that rewritten routes traverse which the original routes did
    /// not — the detour set replanning produced so far, in first-seen
    /// order.
    pub fn detour_roads(&self) -> &[RoadId] {
        &self.detour_roads
    }

    /// Previously congestion-diverted vehicles rewritten back onto a
    /// strictly better route after the congested set cleared — the
    /// congestion-clearance share of
    /// [`vehicles_restored`](Self::vehicles_restored).
    pub fn congestion_restores(&self) -> u64 {
        self.congestion_restores
    }

    /// A handle on the sensor-fault window switch. Cloning shares the
    /// underlying flag, so a test (or an external supervisor) can toggle
    /// the window between steps, overriding the timeline.
    pub fn sensor_fault_switch(&self) -> FaultSwitch {
        self.fault_switch.clone()
    }

    /// A handle on the actuation-fault window switch (see
    /// [`sensor_fault_switch`](Self::sensor_fault_switch)).
    pub fn actuation_fault_switch(&self) -> FaultSwitch {
        self.actuation_switch.clone()
    }

    /// One [`WatchdogStats`] handle per intersection, in intersection
    /// order (empty unless the scenario installs a watchdog). This is
    /// the attribution surface: the summed accessors below are derived
    /// from it, and the trace timeline uses it to pin each fallback to
    /// the intersection that degraded.
    pub fn watchdog_stats(&self) -> &[WatchdogStats] {
        &self.watchdogs
    }

    /// Watchdog fallback activations summed over intersections (0
    /// unless the scenario installs a watchdog).
    pub fn fallback_activations(&self) -> u64 {
        self.watchdog_stats().iter().map(|w| w.activations()).sum()
    }

    /// Intersection-ticks spent under the fixed-time fallback so far.
    pub fn ticks_degraded(&self) -> u64 {
        self.watchdog_stats()
            .iter()
            .map(|w| w.degraded_ticks())
            .sum()
    }

    /// Whether any intersection is currently running its fallback.
    pub fn currently_degraded(&self) -> bool {
        self.watchdog_stats().iter().any(|w| w.is_degraded())
    }

    /// Mean ticks from fallback activation to hysteresis-confirmed
    /// recovery, over completed degradation episodes (0.0 when none
    /// recovered).
    pub fn recovery_time(&self) -> f64 {
        let recoveries: u64 = self.watchdog_stats().iter().map(|w| w.recoveries()).sum();
        if recoveries == 0 {
            return 0.0;
        }
        let total: u64 = self
            .watchdog_stats()
            .iter()
            .map(|w| w.recovery_ticks_total())
            .sum();
        total as f64 / recoveries as f64
    }

    /// Brings the watchdog event watermarks up to the counters.
    fn mark_watchdogs(&mut self) {
        self.telemetry.prev_activations.clear();
        self.telemetry
            .prev_activations
            .extend(self.watchdogs.iter().map(|w| w.activations()));
        self.telemetry.prev_recoveries.clear();
        self.telemetry
            .prev_recoveries
            .extend(self.watchdogs.iter().map(|w| w.recoveries()));
    }

    /// Installs a [`FlightRecorder`] ring buffer retaining the most
    /// recent `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0.
    pub fn enable_recording(&mut self, capacity: usize) {
        self.install_recorder(FlightRecorder::new(capacity));
    }

    /// Installs `recorder` as the engine's event sink, replacing the
    /// previous one. Watchdog watermarks reset to the *current*
    /// counters: events describe what happens after installation, not
    /// history.
    fn install_recorder(&mut self, recorder: FlightRecorder) {
        self.telemetry.recorder = Some(recorder);
        self.telemetry.prev_trace.clear();
        self.mark_watchdogs();
    }

    /// The installed [`FlightRecorder`] (`None` while recording is off,
    /// the default).
    pub fn recorder(&self) -> Option<&FlightRecorder> {
        self.telemetry.recorder.as_ref()
    }

    /// The recorded event stream as JSON Lines (empty without a
    /// [`FlightRecorder`]). Byte-deterministic for a fixed scenario.
    pub fn events_jsonl(&self) -> String {
        self.recorder().map(|f| f.to_jsonl()).unwrap_or_default()
    }

    /// Registers the gauge set — backlog depth, congestion-set size,
    /// per-intersection total incoming queue and peak movement-queue
    /// pressure, per-road occupancy — sampled every `every` ticks into
    /// [`TimeSeries`].
    ///
    /// # Panics
    ///
    /// Panics if `every` is 0.
    pub fn enable_gauges(&mut self, every: u64) {
        let topology = self.network.topology();
        let mut registry = GaugeRegistry::new(every);
        let backlog = registry.register("backlog");
        let congested = registry.register("congested_roads");
        let mut queue = Vec::with_capacity(topology.num_intersections());
        let mut pressure = Vec::with_capacity(topology.num_intersections());
        for i in topology.intersection_ids() {
            queue.push(registry.register(format!("queue[i{}]", i.index())));
            pressure.push(registry.register(format!("pressure[i{}]", i.index())));
        }
        let mut occupancy = Vec::with_capacity(topology.num_roads());
        for r in topology.road_ids() {
            occupancy.push(registry.register(format!("occupancy[r{}]", r.index())));
        }
        self.telemetry.gauges = Some(Gauges {
            registry,
            backlog,
            congested,
            queue,
            pressure,
            occupancy,
        });
    }

    /// The sampled gauge series, in registration order (empty unless
    /// [`enable_gauges`](Self::enable_gauges) was called).
    pub fn gauge_series(&self) -> &[TimeSeries] {
        self.telemetry
            .gauges
            .as_ref()
            .map(|g| g.registry.series())
            .unwrap_or(&[])
    }

    /// Turns on the tick-section profiler: subsequent steps hand it to
    /// the substrate, whose step laps the four plant [`Section`]s into
    /// it, and lap the replan and monitor passes into it too. Profiling
    /// measures the run without influencing it.
    pub fn enable_profiling(&mut self) {
        self.telemetry.profiler = Some(TickProfiler::new());
    }

    /// The profiler, when [`enable_profiling`](Self::enable_profiling)
    /// was called.
    pub fn profiler(&self) -> Option<&TickProfiler> {
        self.telemetry.profiler.as_ref()
    }

    /// Current occupancy of `road` in the running substrate.
    ///
    /// # Panics
    ///
    /// Panics if `road` is out of range.
    pub fn road_occupancy(&self, road: RoadId) -> u32 {
        self.substrate.road_occupancy(road)
    }

    /// Cumulative vehicles that have entered `road` so far in the running
    /// substrate.
    ///
    /// # Panics
    ///
    /// Panics if `road` is out of range.
    pub fn road_entered(&self, road: RoadId) -> u64 {
        self.substrate.road_entered(road)
    }

    /// Vehicles waiting outside boundary entries.
    pub fn backlog_len(&self) -> usize {
        self.substrate.backlog_len()
    }

    /// Per-vehicle journey accounting of the running substrate (completed
    /// vehicles; [`ScenarioOutcome::avg_queuing_time_s`] is the headline
    /// metric counting active vehicles).
    pub fn ledger(&self) -> &WaitingLedger {
        self.substrate.ledger()
    }

    /// Applies due events, runs the periodic congestion check when one is
    /// due, polls demand, and simulates one mini-slot. The order is fixed
    /// — events, then the congestion check, then demand and the step — so
    /// periodic replans interleave deterministically with the timeline.
    ///
    /// # Panics
    ///
    /// Panics once the horizon is reached: a run ends there, so every
    /// capture's tick lies within it, which restore checks.
    pub fn step(&mut self) {
        let now = self.now();
        assert!(
            now.index() < self.spec.horizon.count(),
            "step past the scenario horizon of {} ticks",
            self.spec.horizon.count()
        );
        let recording = self.telemetry.recorder.is_some();
        // Periodic checkpoint capture, at the tick boundary before the
        // tick's events apply. The snapshot is taken *before* its own
        // `checkpoint` event is recorded, so restoring it and re-running
        // this step re-captures a byte-identical snapshot and re-records
        // the identical event — resumed telemetry stays byte-equal to
        // the uninterrupted stream. Once the ring is full, the capture
        // reuses the buffer of the one it evicts.
        if let Some(policy) = self.ckpt_policy {
            if now.index() > 0 && now.index().is_multiple_of(policy.period) {
                let mut bytes = if self.checkpoints.len() >= CHECKPOINT_RETAIN {
                    self.checkpoints.remove(0).1
                } else {
                    Vec::new()
                };
                self.checkpoint_into(&mut bytes);
                if recording {
                    self.telemetry.record(Event {
                        tick: now,
                        kind: EventKind::Checkpoint {
                            bytes: bytes.len() as u64,
                            crc: crc32(&bytes),
                        },
                    });
                }
                self.checkpoints.push((now, bytes));
            }
        }
        while self.cursor < self.actions.len() && self.actions[self.cursor].0 <= now {
            let (_, action) = self.actions[self.cursor];
            self.cursor += 1;
            match action {
                Action::Closed(road, closed) => {
                    self.substrate.set_road_closed(road, closed);
                    if let Some(guard) = self.guard.as_mut() {
                        guard.road_toggled(road);
                    }
                    self.demand.set_road_closed(&self.network, road, closed);
                    if recording {
                        let road = road.index() as u32;
                        let kind = if closed {
                            EventKind::RoadClosed { road }
                        } else {
                            EventKind::RoadReopened { road }
                        };
                        self.telemetry.record(Event { tick: now, kind });
                    }
                    if self.spec.replan.responds_to_closures() {
                        let before = (self.diverted, self.restored);
                        self.lap_pass(Section::Replan, |engine| {
                            if closed {
                                engine.divert_after_closure();
                            } else {
                                engine.restore_after_reopen();
                            }
                        });
                        if recording {
                            self.telemetry.record(Event {
                                tick: now,
                                kind: EventKind::Replan {
                                    trigger: if closed {
                                        ReplanTrigger::Closure
                                    } else {
                                        ReplanTrigger::Reopen
                                    },
                                    diverted: self.diverted - before.0,
                                    restored: self.restored - before.1,
                                },
                            });
                        }
                    }
                }
                Action::Surge(factor) => {
                    self.demand.set_surge(factor);
                    if recording {
                        self.telemetry.record(Event {
                            tick: now,
                            kind: EventKind::Surge { factor },
                        });
                    }
                }
                Action::Faults(active) => {
                    self.fault_switch.set_active(active);
                    if recording {
                        self.telemetry.record(Event {
                            tick: now,
                            kind: EventKind::SensorFaultWindow { active },
                        });
                    }
                }
                Action::ActuationFaults(active) => {
                    self.actuation_switch.set_active(active);
                    if recording {
                        self.telemetry.record(Event {
                            tick: now,
                            kind: EventKind::ActuationFaultWindow { active },
                        });
                    }
                }
            }
        }
        if let ReplanPolicy::Congestion { period, .. } = self.spec.replan {
            // Skip tick 0: the network is empty before the first step.
            if now.index() > 0 && now.index().is_multiple_of(period) {
                let before_reroutes = self.congestion_reroutes;
                let before_restores = self.congestion_restores;
                self.lap_pass(Section::Monitor, Self::congestion_check);
                if recording {
                    // Periodic checks mostly find nothing; only record
                    // the passes that actually rewrote a route.
                    let rerouted = self.congestion_reroutes - before_reroutes;
                    if rerouted > 0 {
                        self.telemetry.record(Event {
                            tick: now,
                            kind: EventKind::Replan {
                                trigger: ReplanTrigger::Congestion,
                                diverted: rerouted,
                                restored: 0,
                            },
                        });
                    }
                    let restored = self.congestion_restores - before_restores;
                    if restored > 0 {
                        self.telemetry.record(Event {
                            tick: now,
                            kind: EventKind::Replan {
                                trigger: ReplanTrigger::CongestionCleared,
                                diverted: 0,
                                restored,
                            },
                        });
                    }
                }
            }
        }
        self.arrivals.clear();
        self.demand
            .poll_into(&self.network, now, &mut self.arrivals);
        self.substrate.step_into(
            &mut self.arrivals,
            &mut self.report,
            self.telemetry.profiler.as_mut(),
        );
        if recording {
            self.telemetry.record_phases(now, &self.report.decisions);
        }
        if let Some(guard) = self.guard.as_mut() {
            guard.check(&*self.substrate);
        }
        if recording {
            self.telemetry.record_watchdogs(now, &self.watchdogs);
            self.record_guard_violations();
        }
        self.sample_gauges(now);
    }

    /// Runs an engine pass, lapping its wall-clock into `section` when
    /// profiling. The profiler is lifted out for the pass, which never
    /// reads it.
    fn lap_pass(&mut self, section: Section, pass: impl FnOnce(&mut Self)) {
        let mut profiler = self.telemetry.profiler.take();
        let mut watch = PhaseStopwatch::new(profiler.as_mut());
        pass(self);
        watch.lap(section);
        self.telemetry.profiler = profiler;
    }

    /// Moves observe-mode guard violations into the recorder as
    /// tick-stamped `guard_violation` events.
    fn record_guard_violations(&mut self) {
        let Some(guard) = self.guard.as_mut() else {
            return;
        };
        for violation in guard.drain_violations() {
            self.telemetry.record(Event {
                tick: Tick::new(violation.tick),
                kind: EventKind::GuardViolation {
                    check: violation.check.to_string(),
                    message: violation.message,
                },
            });
        }
    }

    /// Pushes one sample per registered gauge when the cadence is due.
    fn sample_gauges(&mut self, now: Tick) {
        let Some(gauges) = self.telemetry.gauges.as_mut() else {
            return;
        };
        if !gauges.registry.due(now) {
            return;
        }
        let substrate = &self.substrate;
        let topology = self.network.topology();
        gauges
            .registry
            .sample(gauges.backlog, now, substrate.backlog_len() as f64);
        let congested = self
            .monitor
            .as_ref()
            .map_or(0, |m| m.congested().iter().filter(|&&c| c).count());
        gauges
            .registry
            .sample(gauges.congested, now, congested as f64);
        for (k, i) in topology.intersection_ids().enumerate() {
            let layout = topology.intersection(i).layout();
            let queue: u32 = layout
                .incoming_ids()
                .map(|arm| substrate.incoming_queue_len(i, arm))
                .sum();
            gauges
                .registry
                .sample(gauges.queue[k], now, f64::from(queue));
            let pressure: u32 = layout
                .link_ids()
                .map(|link| substrate.movement_queue_len(i, link))
                .max()
                .unwrap_or(0);
            gauges
                .registry
                .sample(gauges.pressure[k], now, f64::from(pressure));
        }
        substrate.occupancy_snapshot(&mut self.occ_scratch);
        for (k, &occ) in self.occ_scratch.iter().enumerate() {
            gauges
                .registry
                .sample(gauges.occupancy[k], now, f64::from(occ));
        }
    }

    /// Refreshes the reusable closure-mask scratch from the substrate —
    /// the single owner of closure state; routing-response passes are
    /// rare, so rebuilding on demand beats keeping a copy in lockstep.
    fn refresh_closed_mask(&mut self) {
        let (mask, network, substrate) = (&mut self.closed_scratch, &self.network, &self.substrate);
        mask.clear();
        mask.extend(
            network
                .topology()
                .road_ids()
                .map(|r| substrate.road_closed(r)),
        );
    }

    /// Folds a planner's per-pass results into the engine counters.
    fn absorb_planner(&mut self, diverted: u64, restored: u64, detours: &[RoadId]) {
        self.diverted += diverted;
        self.restored += restored;
        for &road in detours {
            if !self.detour_roads.contains(&road) {
                self.detour_roads.push(road);
            }
        }
    }

    /// Rewrites the routes of vehicles whose remaining journey enters a
    /// closed road, remembering who diverted so a later reopening can
    /// restore them (serial, draws no randomness — see the substrate
    /// crate's routing-response contract).
    fn divert_after_closure(&mut self) {
        self.refresh_closed_mask();
        let mut planner =
            Replanner::new(self.network.topology(), &self.turning, &self.closed_scratch);
        let ids = &mut self.diverted_ids;
        self.substrate.replan_routes(&mut |id, route, fixed| {
            let new_route = planner.replan(route, fixed)?;
            ids.insert(id);
            Some(new_route)
        });
        let (diverted, detours) = (planner.diverted(), planner.detour_roads().to_vec());
        self.absorb_planner(diverted, 0, &detours);
    }

    /// After a reopening: restores previously diverted vehicles whose
    /// detour is now strictly dominated by an open continuation, and —
    /// since the reopened road may unlock a detour around a *different*,
    /// still-closed road — offers everyone else a closure diversion. The
    /// tracked diverted set is rebuilt from the walk, so completed
    /// vehicles fall out of it.
    fn restore_after_reopen(&mut self) {
        self.refresh_closed_mask();
        let mut planner =
            Replanner::new(self.network.topology(), &self.turning, &self.closed_scratch);
        let ids = &mut self.diverted_ids;
        let mut still: HashSet<VehicleId> = HashSet::new();
        self.substrate.replan_routes(&mut |id, route, fixed| {
            if ids.contains(&id) {
                match planner.restore(route, fixed) {
                    // Restored: the vehicle leaves the tracked set.
                    Some(new_route) => Some(new_route),
                    None => {
                        still.insert(id);
                        None
                    }
                }
            } else {
                let new_route = planner.replan(route, fixed)?;
                still.insert(id);
                Some(new_route)
            }
        });
        *ids = still;
        let (diverted, restored, detours) = (
            planner.diverted(),
            planner.restored(),
            planner.detour_roads().to_vec(),
        );
        self.absorb_planner(diverted, restored, &detours);
    }

    /// One periodic congestion check: snapshot occupancy, fold the
    /// occupancy/capacity ratios into the hysteresis monitor, and — only
    /// when congested roads exist — divert journeys headed into them
    /// through a congestion-weighted view of the network (emptier roads
    /// weigh more; congested and closed roads are inadmissible). When no
    /// road crosses the threshold the pass is a counter sweep and
    /// nothing walks the fleet.
    fn congestion_check(&mut self) {
        self.substrate.occupancy_snapshot(&mut self.occ_scratch);
        {
            let (ratios, occ, network) =
                (&mut self.ratio_scratch, &self.occ_scratch, &self.network);
            let topology = network.topology();
            ratios.clear();
            ratios.extend(
                topology
                    .road_ids()
                    .map(|r| occ[r.index()] as f64 / topology.road(r).capacity().max(1) as f64),
            );
        }
        let monitor = self.monitor.as_mut().expect("congestion policy installed");
        let any = monitor.update(&self.ratio_scratch);
        // Only suffix-eligible congestion matters in either direction:
        // an entry road can never appear in a rewritten route suffix,
        // so a congested entry road neither justifies a diversion pass
        // nor keeps restored detours out (the surge backlog drains
        // through entry roads long after the internal network clears).
        let suffix_congested = any && {
            let topology = self.network.topology();
            monitor
                .congested()
                .iter()
                .zip(topology.road_ids())
                .any(|(&congested, road)| congested && !topology.road(road).is_entry())
        };
        if !suffix_congested {
            // No congested road a route could avoid: vehicles still on
            // a congestion detour can come home. The pass runs once per
            // episode, at the congested→clear transition — undominated
            // (tied) detours stay tracked but are only re-examined when
            // a later episode clears, never on every periodic check.
            if self.congestion_restore_pending {
                self.congestion_restore_pending = false;
                if !self.congestion_diverted_ids.is_empty() {
                    self.restore_after_congestion_clears();
                }
            }
            return;
        }
        self.congestion_restore_pending = true;
        self.refresh_closed_mask();
        let (weights, ratios, monitor, closed) = (
            &mut self.weight_scratch,
            &self.ratio_scratch,
            self.monitor.as_ref().expect("congestion policy installed"),
            &self.closed_scratch,
        );
        weights.clear();
        weights.extend(monitor.congested().iter().zip(ratios).zip(closed).map(
            |((&congested, &ratio), &closed)| {
                if congested || closed {
                    0.0
                } else {
                    (1.0 - ratio).max(MIN_OPEN_ROAD_WEIGHT)
                }
            },
        ));
        let mut planner = Replanner::with_road_weights(
            self.network.topology(),
            &self.turning,
            &self.closed_scratch,
            &self.weight_scratch,
        );
        let congested = self
            .monitor
            .as_ref()
            .expect("congestion policy installed")
            .congested();
        let ids = &mut self.congestion_diverted_ids;
        let rerouted = self.substrate.replan_routes(&mut |id, route, fixed| {
            let new_route = planner.replan_congested(route, fixed, congested)?;
            ids.insert(id);
            Some(new_route)
        });
        self.congestion_reroutes += rerouted;
        let (diverted, detours) = (planner.diverted(), planner.detour_roads().to_vec());
        self.absorb_planner(diverted, 0, &detours);
    }

    /// Once the congested set empties: restores previously
    /// congestion-diverted vehicles whose detour is strictly dominated
    /// by an open continuation, using a weight-free planner (restore
    /// compares plain route lengths, not congestion weights). The
    /// tracked set is rebuilt from the walk, so completed vehicles fall
    /// out of it; vehicles whose detour is not dominated stay tracked
    /// and are re-examined when the next congestion episode clears.
    fn restore_after_congestion_clears(&mut self) {
        self.refresh_closed_mask();
        let mut planner =
            Replanner::new(self.network.topology(), &self.turning, &self.closed_scratch);
        let ids = &mut self.congestion_diverted_ids;
        let mut still: HashSet<VehicleId> = HashSet::new();
        self.substrate.replan_routes(&mut |id, route, fixed| {
            if !ids.contains(&id) {
                return None;
            }
            match planner.restore(route, fixed) {
                // Restored: the vehicle leaves the tracked set.
                Some(new_route) => Some(new_route),
                None => {
                    still.insert(id);
                    None
                }
            }
        });
        *ids = still;
        let (restored, detours) = (planner.restored(), planner.detour_roads().to_vec());
        self.congestion_restores += restored;
        self.absorb_planner(0, restored, &detours);
    }

    /// Steps until the scenario horizon is reached.
    pub fn run_to_end(&mut self) {
        while self.now().index() < self.spec.horizon.count() {
            self.step();
        }
    }

    /// The aggregate outcome at the current instant.
    pub fn outcome(&self) -> ScenarioOutcome {
        let ledger = self.substrate.ledger();
        ScenarioOutcome {
            scenario: self.spec.name.clone(),
            backend: self.substrate.backend(),
            generated: self.demand.generated(),
            suppressed: self.demand.suppressed(),
            diverted: self.diverted,
            restored: self.restored,
            completed: ledger.completed(),
            fallback_activations: self.fallback_activations(),
            ticks_degraded: self.ticks_degraded(),
            recovery_time: self.recovery_time(),
            avg_queuing_time_s: self.substrate.mean_waiting_including_active() * self.dt_seconds,
            mean_journey_s: ledger.journey_stats().mean() * self.dt_seconds,
            final_backlog: self.substrate.backlog_len(),
        }
    }

    /// Turns on periodic checkpoint capture: every `policy.period`
    /// ticks (at the tick boundary, before that tick's events apply) the
    /// engine snapshots its full state via
    /// [`checkpoint`](Self::checkpoint), retains the bytes in a small
    /// ring ([`checkpoints`](Self::checkpoints)), and — when a recorder
    /// is installed — records a `checkpoint` event carrying the
    /// snapshot's size and CRC. The policy is embedded in every
    /// snapshot, so a restored run keeps the cadence (and its
    /// `checkpoint` events) without re-arming.
    pub fn enable_checkpoints(&mut self, policy: CheckpointPolicy) {
        assert!(policy.period >= 1, "checkpoint period must be at least 1");
        self.ckpt_policy = Some(policy);
    }

    /// The policy-captured checkpoints still retained, oldest first
    /// (the newest `CHECKPOINT_RETAIN` = 4 captures; empty without
    /// [`enable_checkpoints`](Self::enable_checkpoints)).
    pub fn checkpoints(&self) -> &[(Tick, Vec<u8>)] {
        &self.checkpoints
    }

    /// The newest retained policy-captured checkpoint.
    pub fn latest_checkpoint(&self) -> Option<&(Tick, Vec<u8>)> {
        self.checkpoints.last()
    }

    /// Records a `restore` event at the current tick (a no-op without a
    /// recorder). Restoration itself never auto-records: a resumed run's
    /// event stream must stay byte-equal to the uninterrupted run's, so
    /// marking the seam in timelines is the *caller's* choice —
    /// `fallback` says whether the restore fell back past a corrupted
    /// newer checkpoint.
    pub fn mark_restored(&mut self, fallback: bool) {
        let tick = self.now();
        self.telemetry.record(Event {
            tick,
            kind: EventKind::Restore { fallback },
        });
    }

    /// Serializes the engine's full state into a durable snapshot (the
    /// `utilbp-snapshot` container): structural metadata, the scenario
    /// spec in text form, the plant's dynamic state, the engine's own
    /// dynamic state, and — when a flight recorder is installed — the
    /// recorder buffer and phase-trace watermarks. Gauge series and
    /// profiler accumulations are measurements, not state, and are not
    /// captured; nor is anything restore derives from the rest (the
    /// guard, the demand's next vehicle id, the watchdog event
    /// watermarks).
    ///
    /// [`restore`](Self::restore) rebuilds an engine that continues
    /// bit-identically; capturing the restored engine at the same tick
    /// yields byte-identical snapshot bytes (save→load→save is a fixed
    /// point).
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut bytes = Vec::new();
        self.checkpoint_into(&mut bytes);
        bytes
    }

    /// [`checkpoint`](Self::checkpoint) into `bytes`, replacing its
    /// content but keeping its allocation, so a caller that recycles an
    /// old capture's buffer makes a new one without allocating.
    pub(crate) fn checkpoint_into(&self, bytes: &mut Vec<u8>) {
        let mut snapshot = SnapshotWriter::reusing(std::mem::take(bytes));

        snapshot.section_state(TAG_META, |meta| {
            meta.push(match self.config.backend {
                Backend::Queueing => 0,
                Backend::Microscopic => 1,
            });
            meta.push(guard_word(self.config.guard));
            meta.push(micro_fingerprint(&self.config.micro));
            match self.ckpt_policy {
                Some(policy) => {
                    meta.push_bool(true);
                    meta.push(policy.period);
                }
                None => meta.push_bool(false),
            }
            match self.recorder() {
                Some(recorder) => {
                    meta.push_bool(true);
                    meta.push_usize(recorder.capacity());
                }
                None => meta.push_bool(false),
            }
        });

        snapshot.section_bytes(TAG_SPEC, self.spec.to_text().as_bytes());
        // The guard stores nothing: restore rebuilds it from the plant.
        snapshot.section_state(TAG_PLANT, |plant| self.substrate.save_state(plant));
        snapshot.section_state(TAG_ENGINE, |engine| self.save_engine_state(engine));

        if let Some(recorder) = self.recorder() {
            snapshot.section_state(TAG_TELEMETRY, |telemetry| {
                recorder.save_state(telemetry);
                telemetry.push_usize(self.telemetry.prev_trace.len());
                for &value in &self.telemetry.prev_trace {
                    telemetry.push(u64::from(value));
                }
            });
        }

        *bytes = snapshot.finish();
    }

    /// Serializes the engine-side dynamic state (everything outside the
    /// plant and the telemetry plane). The engine's tick is the plant
    /// clock, saved with the plant.
    fn save_engine_state(&self, writer: &mut StateWriter) {
        writer.push_usize(self.cursor);
        writer.push_bool(self.fault_switch.is_active());
        writer.push_bool(self.actuation_switch.is_active());
        self.demand.save_state(writer);
        writer.push(self.diverted);
        writer.push(self.restored);
        writer.push(self.congestion_reroutes);
        writer.push(self.congestion_restores);
        writer.push_bool(self.congestion_restore_pending);
        // The id sets serialize sorted: only membership is ever queried,
        // and the canonical order makes save→load→save a byte-level
        // fixed point.
        let mut ids: Vec<u64> = self.diverted_ids.iter().map(|v| v.raw()).collect();
        ids.sort_unstable();
        writer.push_usize(ids.len());
        for id in ids {
            writer.push(id);
        }
        let mut ids: Vec<u64> = self
            .congestion_diverted_ids
            .iter()
            .map(|v| v.raw())
            .collect();
        ids.sort_unstable();
        writer.push_usize(ids.len());
        for id in ids {
            writer.push(id);
        }
        match &self.monitor {
            Some(monitor) => {
                writer.push_bool(true);
                writer.push_usize(monitor.congested.len());
                for &congested in &monitor.congested {
                    writer.push_bool(congested);
                }
                writer.push(monitor.transitions);
            }
            None => writer.push_bool(false),
        }
        writer.push_usize(self.detour_roads.len());
        for &road in &self.detour_roads {
            writer.push_u32(road.index() as u32);
        }
    }

    /// Restores the engine-side dynamic state written by
    /// [`save_engine_state`](Self::save_engine_state) over the restored
    /// plant, rejecting words the step path would trust: a demand clock
    /// behind the plant clock, or a surge factor no event of the spec
    /// sets, or a diverted vehicle id out of order or never issued. The
    /// demand issues ids on from the plant ledger's entered count.
    fn load_engine_state(&mut self, reader: &mut StateReader<'_>) -> Result<(), StateError> {
        let cursor = reader.take_usize()?;
        if cursor > self.actions.len() {
            return Err(StateError::Invalid {
                what: "event timeline cursor",
                word: cursor as u64,
            });
        }
        self.cursor = cursor;
        self.fault_switch.set_active(reader.take_bool()?);
        self.actuation_switch.set_active(reader.take_bool()?);
        let (now, ids) = (self.now(), self.substrate.ledger().entered());
        self.demand.load_state(&self.network, now, ids, reader)?;
        let surge = self.demand.surge();
        let scheduled =
            self.spec.events.iter().any(
                |event| matches!(*event, ScenarioEvent::Surge { factor, .. } if factor == surge),
            );
        if surge != 1.0 && !scheduled {
            return Err(StateError::Invalid {
                what: "demand surge factor",
                word: surge.to_bits(),
            });
        }
        self.diverted = reader.take_count("diverted vehicle count")?;
        self.restored = reader.take_count("restored vehicle count")?;
        self.congestion_reroutes = reader.take_count("congestion reroute count")?;
        self.congestion_restores = reader.take_count("congestion restore count")?;
        self.congestion_restore_pending = reader.take_bool()?;
        load_id_set(&mut self.diverted_ids, ids, reader)?;
        load_id_set(&mut self.congestion_diverted_ids, ids, reader)?;
        let has_monitor = reader.take_bool()?;
        if has_monitor != self.monitor.is_some() {
            return Err(StateError::Invalid {
                what: "congestion monitor presence",
                word: u64::from(has_monitor),
            });
        }
        if let Some(monitor) = self.monitor.as_mut() {
            let roads = reader.take_usize()?;
            if roads != monitor.congested.len() {
                return Err(StateError::Invalid {
                    what: "congestion monitor road count",
                    word: roads as u64,
                });
            }
            for flag in monitor.congested.iter_mut() {
                *flag = reader.take_bool()?;
            }
            monitor.transitions = reader.take_count("congestion transition count")?;
        }
        let detours = reader.take_usize()?;
        self.detour_roads.clear();
        for _ in 0..detours {
            self.detour_roads.push(RoadId::new(reader.take_u32()?));
        }
        Ok(())
    }

    /// Rebuilds an engine from a [`checkpoint`](Self::checkpoint) and
    /// resumes it: the embedded spec is parsed back, a fresh engine is
    /// built under `config`, and every dynamic-state section overwrites
    /// the fresh state. The restored engine continues **bit-identically**
    /// to the uninterrupted run — same [`ScenarioOutcome`], same
    /// telemetry JSONL.
    ///
    /// `config.backend`, the guard mode and the microscopic parameters
    /// must match the capturing engine's (the plant state is
    /// substrate-shaped).
    ///
    /// # Errors
    ///
    /// Never panics on untrusted bytes: returns
    /// [`RestoreError::Snapshot`] for container damage (bad magic,
    /// version skew, truncation, per-section checksum mismatch) or a
    /// semantically invalid word stream, [`RestoreError::Spec`] when the
    /// embedded spec does not parse, and [`RestoreError::Mismatch`] when
    /// `config` disagrees with the checkpoint's configuration.
    pub fn restore(
        bytes: &[u8],
        config: EngineConfig,
        make_controller: &dyn Fn(usize) -> Box<dyn SignalController>,
    ) -> Result<Self, RestoreError> {
        let snapshot = SnapshotReader::parse(bytes)?;
        let spec_text = std::str::from_utf8(snapshot.bytes(TAG_SPEC)?)
            .map_err(|_| RestoreError::Spec("spec section is not UTF-8".to_string()))?;
        let spec = crate::format::parse_scenario(spec_text).map_err(RestoreError::Spec)?;

        let mut meta = snapshot.words(TAG_META)?;
        let word = meta.take()?;
        let backend = match word {
            0 => Backend::Queueing,
            1 => Backend::Microscopic,
            _ => {
                return Err(StateError::Invalid {
                    what: "backend tag",
                    word,
                }
                .into())
            }
        };
        if backend != config.backend {
            return Err(RestoreError::Mismatch { what: "backend" });
        }
        if meta.take()? != guard_word(config.guard) {
            return Err(RestoreError::Mismatch { what: "guard" });
        }
        if meta.take()? != micro_fingerprint(&config.micro) {
            return Err(RestoreError::Mismatch {
                what: "microscopic parameters",
            });
        }
        let policy = if meta.take_bool()? {
            let period = meta.take()?;
            if period == 0 {
                return Err(StateError::Invalid {
                    what: "checkpoint period",
                    word: 0,
                }
                .into());
            }
            Some(CheckpointPolicy { period })
        } else {
            None
        };
        let recorder_capacity = if meta.take_bool()? {
            let capacity = meta.take_usize()?;
            if capacity == 0 {
                return Err(StateError::Invalid {
                    what: "flight recorder capacity",
                    word: 0,
                }
                .into());
            }
            Some(capacity)
        } else {
            None
        };
        meta.finish().map_err(RestoreError::from)?;

        let mut engine =
            ScenarioEngine::new(spec, config, make_controller).map_err(RestoreError::Spec)?;
        engine.ckpt_policy = policy;

        if let Some(capacity) = recorder_capacity {
            let mut reader = snapshot.words(TAG_TELEMETRY)?;
            let mut recorder = FlightRecorder::try_new(capacity).ok_or(StateError::Invalid {
                what: "flight recorder capacity",
                word: capacity as u64,
            })?;
            recorder.load_state(&mut reader)?;
            engine.install_recorder(recorder);
            let len = reader.take_usize()?;
            for _ in 0..len {
                let word = reader.take()?;
                let value = u16::try_from(word).map_err(|_| StateError::Invalid {
                    what: "phase trace watermark",
                    word,
                })?;
                engine.telemetry.prev_trace.push(value);
            }
            reader.finish().map_err(RestoreError::from)?;
        }

        let mut reader = snapshot.words(TAG_PLANT)?;
        engine.substrate.load_state(&mut reader)?;
        reader.finish().map_err(RestoreError::from)?;
        // The plant clock is the engine's tick, and no step runs past the
        // horizon. The plant's own checks bound the vehicles' waiting by
        // that clock, which this ties to the horizon.
        let now = engine.now().index();
        if now > engine.spec.horizon.count() {
            return Err(StateError::Invalid {
                what: "plant tick",
                word: now,
            }
            .into());
        }
        if let Some(guard) = engine.guard.as_mut() {
            guard.resume(&*engine.substrate);
        }
        // Every recorded step leaves the watchdog event watermarks at the
        // counters, which the plant has just restored.
        engine.mark_watchdogs();

        let mut reader = snapshot.words(TAG_ENGINE)?;
        engine.load_engine_state(&mut reader)?;
        reader.finish().map_err(RestoreError::from)?;

        Ok(engine)
    }

    /// Forks the run: captures a checkpoint of the current state and
    /// restores it into an **independent** engine for what-if
    /// exploration — closing roads, surging demand, or swapping
    /// controller behavior in the fork never disturbs the primary
    /// timeline (the fork shares no mutable state with `self`). Stepping
    /// a pristine fork produces exactly the primary's future.
    ///
    /// # Errors
    ///
    /// A [`RestoreError`] if the round-trip fails (it only can if the
    /// factory builds a controller stack inconsistent with this run's).
    pub fn fork(
        &self,
        make_controller: &dyn Fn(usize) -> Box<dyn SignalController>,
    ) -> Result<Self, RestoreError> {
        Self::restore(&self.checkpoint(), self.config, make_controller)
    }
}

/// Runs `spec` to its horizon on `config`'s substrate and returns the
/// outcome.
///
/// # Errors
///
/// Returns the validation message if the spec is inconsistent with its
/// own network.
pub fn run_scenario(
    spec: ScenarioSpec,
    config: EngineConfig,
    make_controller: &dyn Fn(usize) -> Box<dyn SignalController>,
) -> Result<ScenarioOutcome, String> {
    let mut engine = ScenarioEngine::new(spec, config, make_controller)?;
    engine.run_to_end();
    Ok(engine.outcome())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::builtin;
    use crate::spec::{DemandProfile, ScenarioSpec, TopologySpec};
    use utilbp_core::{Ticks, UtilBp};
    use utilbp_netgen::{GridSpec, Pattern, RingSpec};

    fn util_factory() -> impl Fn(usize) -> Box<dyn SignalController> {
        |_| Box::new(UtilBp::paper()) as Box<dyn SignalController>
    }

    #[test]
    fn runs_every_builtin_on_both_backends() {
        for spec in crate::library::builtin_scenarios() {
            let mut short = spec.clone();
            // Trim long scenarios for the unit test; the trim drops
            // closure events the shorter horizon no longer covers.
            short.set_horizon(Ticks::new(short.horizon.count().min(250)));
            for backend in Backend::ALL {
                let outcome =
                    run_scenario(short.clone(), EngineConfig::new(backend), &util_factory())
                        .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
                assert!(
                    outcome.generated > 0,
                    "{} on {backend} generated nothing",
                    spec.name
                );
                assert!(outcome.avg_queuing_time_s >= 0.0);
            }
        }
    }

    #[test]
    fn closure_events_block_then_release_traffic() {
        let spec = builtin("grid-incident").expect("builtin exists");
        let (closed_road, close_at, reopen_at) = {
            let mut close = None;
            let mut reopen = None;
            for e in &spec.events {
                match *e {
                    ScenarioEvent::CloseRoad { road, at } => close = Some((road, at)),
                    ScenarioEvent::ReopenRoad { at, .. } => reopen = Some(at),
                    _ => {}
                }
            }
            let (road, at) = close.unwrap();
            (road, at, reopen.unwrap())
        };
        let mut engine =
            ScenarioEngine::new(spec, EngineConfig::default(), &util_factory()).unwrap();
        // Run past the closure: the road must drain to zero and stay
        // empty while closed.
        while engine.now() < close_at {
            engine.step();
        }
        let mut saw_empty = false;
        while engine.now() < reopen_at {
            engine.step();
            saw_empty |= engine.road_occupancy(closed_road) == 0;
        }
        assert!(saw_empty, "closed road must drain");
        assert_eq!(
            engine.road_occupancy(closed_road),
            0,
            "no traffic enters a closed road"
        );
        // With replanning off, nothing is ever diverted.
        assert_eq!(engine.vehicles_diverted(), 0);
        assert!(engine.detour_roads().is_empty());
        let mut saw_traffic = false;
        while engine.now().index() < engine.spec().horizon.count() {
            engine.step();
            saw_traffic |= engine.road_occupancy(closed_road) > 0;
        }
        assert!(saw_traffic, "reopened road carries traffic again");
    }

    #[test]
    fn replanning_scenario_diverts_en_route_vehicles() {
        let mut spec = builtin("grid-incident-replan").expect("builtin exists");
        spec.set_horizon(Ticks::new(300));
        for backend in Backend::ALL {
            let outcome = run_scenario(spec.clone(), EngineConfig::new(backend), &util_factory())
                .expect("spec validates");
            assert!(
                outcome.diverted > 0,
                "{backend}: the closure must divert en-route vehicles"
            );
        }
    }

    #[test]
    fn fault_window_opens_and_closes() {
        let spec = builtin("arterial-sensor-dropout").expect("builtin exists");
        let (from, until) = match spec.sensor_fault() {
            Some((_, from, until)) => (from, until),
            None => panic!("scenario has a fault window"),
        };
        let mut engine =
            ScenarioEngine::new(spec, EngineConfig::default(), &util_factory()).unwrap();
        assert!(!engine.fault_switch.is_active());
        while engine.now() <= from {
            engine.step();
        }
        assert!(engine.fault_switch.is_active(), "window open after `from`");
        while engine.now() <= until {
            engine.step();
        }
        assert!(
            !engine.fault_switch.is_active(),
            "window shut after `until`"
        );
    }

    #[test]
    fn surge_events_raise_demand() {
        let spec = ScenarioSpec {
            name: "surge-test".to_string(),
            seed: 3,
            horizon: Ticks::new(400),
            topology: TopologySpec::Ring(RingSpec::default()),
            demand: DemandProfile::Constant,
            events: vec![ScenarioEvent::Surge {
                factor: 5.0,
                from: Tick::new(200),
                until: Tick::new(400),
            }],
            replan: ReplanPolicy::Off,
            watchdog: None,
        };
        let mut engine =
            ScenarioEngine::new(spec, EngineConfig::default(), &util_factory()).unwrap();
        while engine.now().index() < 200 {
            engine.step();
        }
        let before = engine.demand_generated();
        engine.run_to_end();
        let during = engine.demand_generated() - before;
        assert!(
            during as f64 > before as f64 * 2.5,
            "surge window must out-arrive the base window: {before} vs {during}"
        );
    }

    #[test]
    fn rejects_invalid_specs() {
        let spec = ScenarioSpec {
            name: "bad".to_string(),
            seed: 0,
            horizon: Ticks::new(100),
            topology: TopologySpec::Grid {
                spec: GridSpec::paper(),
                pattern: Pattern::II,
            },
            demand: DemandProfile::Constant,
            events: vec![ScenarioEvent::CloseRoad {
                road: utilbp_netgen::RoadId::new(9999),
                at: Tick::new(1),
            }],
            replan: ReplanPolicy::Off,
            watchdog: None,
        };
        assert!(ScenarioEngine::new(spec, EngineConfig::default(), &util_factory()).is_err());
    }
}
