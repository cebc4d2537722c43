//! Scenario descriptions: topology + demand profile + event timeline.

use utilbp_baselines::{ActuationFaultConfig, SensorFaultConfig, WatchdogConfig};
use utilbp_core::standard::Approach;
use utilbp_core::{Tick, Ticks};
use utilbp_netgen::{
    ArterialSpec, AsymmetricGridSpec, GridNetwork, GridSpec, Network, Pattern, RingSpec, RoadId,
    TurningProbabilities,
};

// The substrate selector and the replanning policy live in
// `utilbp-substrate` (the plant layer below this crate); re-exported here
// so scenario consumers keep one import path.
pub use utilbp_substrate::{Backend, ReplanPolicy};

/// The network family a scenario runs on. The paper's grid is one variant
/// among the generators of [`utilbp_netgen`].
#[derive(Debug, Clone, PartialEq)]
pub enum TopologySpec {
    /// The paper's uniform grid; `pattern` supplies the per-side base
    /// arrival rates (Table II).
    Grid {
        /// Grid parameters.
        spec: GridSpec,
        /// Base arrival pattern.
        pattern: Pattern,
    },
    /// A west–east arterial corridor with side streets.
    Arterial(ArterialSpec),
    /// A ring road with outer and inner spokes.
    Ring(RingSpec),
    /// A grid with asymmetric axes (per-direction lengths/capacities).
    AsymmetricGrid(AsymmetricGridSpec),
}

impl TopologySpec {
    /// Builds the routable network this spec describes.
    pub fn build(&self) -> Network {
        match self {
            TopologySpec::Grid { spec, pattern } => {
                Network::from_grid(&GridNetwork::new(*spec), *pattern)
            }
            TopologySpec::Arterial(spec) => spec.build(),
            TopologySpec::Ring(spec) => spec.build(),
            TopologySpec::AsymmetricGrid(spec) => spec.build(),
        }
    }

    /// Checks every parameter the network builders assume: at least one
    /// intersection (three on a ring), positive capacities, positive,
    /// finite lengths, service rates, speeds and inter-arrival gaps, and
    /// grids and arterials no longer than a route's weight can span: a
    /// weight is one turning probability per junction crossed, and must
    /// stay a positive normal `f64` (440 junctions under the paper's
    /// Table I).
    ///
    /// # Errors
    ///
    /// A message naming the first parameter out of range by its
    /// scenario-text key.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            TopologySpec::Grid { spec: s, .. } => at_least("rows", s.rows, 1)
                .and(at_least("cols", s.cols, 1))
                .and(route_fits(
                    "rows + cols",
                    (u64::from(s.rows) + u64::from(s.cols)).saturating_sub(1),
                    &TurningProbabilities::PAPER,
                ))
                .and(at_least("capacity", s.capacity, 1))
                .and(positive("length", s.road_length_m))
                .and(positive("service-rate", s.service_rate))
                .and(positive("free-speed", s.free_speed_mps)),
            TopologySpec::Arterial(s) => at_least("intersections", s.intersections, 1)
                .and(route_fits(
                    "intersections",
                    u64::from(s.intersections),
                    &s.turning,
                ))
                .and(at_least("arterial-capacity", s.arterial_capacity, 1))
                .and(at_least("side-capacity", s.side_capacity, 1))
                .and(positive("arterial-length", s.arterial_length_m))
                .and(positive("side-length", s.side_length_m))
                .and(positive("service-rate", s.service_rate))
                .and(positive("arterial-gap", s.arterial_inter_arrival_s))
                .and(positive("side-gap", s.side_inter_arrival_s)),
            TopologySpec::Ring(s) => at_least("intersections", s.intersections, 3)
                .and(at_least("ring-capacity", s.ring_capacity, 1))
                .and(at_least("spoke-capacity", s.spoke_capacity, 1))
                .and(positive("ring-length", s.ring_length_m))
                .and(positive("spoke-length", s.spoke_length_m))
                .and(positive("service-rate", s.service_rate))
                .and(positive("outer-gap", s.outer_inter_arrival_s))
                .and(positive("inner-gap", s.inner_inter_arrival_s)),
            TopologySpec::AsymmetricGrid(s) => at_least("rows", s.rows, 1)
                .and(at_least("cols", s.cols, 1))
                .and(route_fits(
                    "rows + cols",
                    (u64::from(s.rows) + u64::from(s.cols)).saturating_sub(1),
                    &s.turning,
                ))
                .and(at_least("ew-capacity", s.ew_capacity, 1))
                .and(at_least("ns-capacity", s.ns_capacity, 1))
                .and(positive("ew-length", s.ew_length_m))
                .and(positive("ns-length", s.ns_length_m))
                .and(positive("service-rate", s.service_rate))
                .and(positive("north-gap", s.inter_arrival_s[0]))
                .and(positive("east-gap", s.inter_arrival_s[1]))
                .and(positive("south-gap", s.inter_arrival_s[2]))
                .and(positive("west-gap", s.inter_arrival_s[3])),
        }
        .map_err(|e| format!("topology {}: {e}", self.family()))
    }

    /// The scenario-text key and value of the shortest base
    /// inter-arrival gap of any entry, in seconds: the entry whose base
    /// arrival rate is the highest.
    fn shortest_gap(&self) -> (&'static str, f64) {
        let shortest = |gaps: &[(&'static str, f64)]| {
            gaps.iter()
                .copied()
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("every family has entries")
        };
        match self {
            TopologySpec::Grid { pattern, .. } => {
                shortest(&Approach::ALL.map(|side| ("pattern gap", pattern.inter_arrival_s(side))))
            }
            TopologySpec::Arterial(s) => shortest(&[
                ("arterial-gap", s.arterial_inter_arrival_s),
                ("side-gap", s.side_inter_arrival_s),
            ]),
            TopologySpec::Ring(s) => shortest(&[
                ("outer-gap", s.outer_inter_arrival_s),
                ("inner-gap", s.inner_inter_arrival_s),
            ]),
            TopologySpec::AsymmetricGrid(s) => shortest(&[
                ("north-gap", s.inter_arrival_s[0]),
                ("east-gap", s.inter_arrival_s[1]),
                ("south-gap", s.inter_arrival_s[2]),
                ("west-gap", s.inter_arrival_s[3]),
            ]),
        }
    }

    /// A short family label for tables.
    pub fn family(&self) -> &'static str {
        match self {
            TopologySpec::Grid { .. } => "grid",
            TopologySpec::Arterial(_) => "arterial",
            TopologySpec::Ring(_) => "ring",
            TopologySpec::AsymmetricGrid(_) => "asym-grid",
        }
    }

    /// The turning-probability table this topology's routes are weighted
    /// by (the grid uses the paper's Table I) — also what en-route
    /// replanning weighs detours with.
    pub fn turning(&self) -> utilbp_netgen::TurningProbabilities {
        match self {
            TopologySpec::Grid { .. } => utilbp_netgen::TurningProbabilities::PAPER,
            TopologySpec::Arterial(s) => s.turning,
            TopologySpec::Ring(s) => s.turning,
            TopologySpec::AsymmetricGrid(s) => s.turning,
        }
    }
}

/// `Ok` if parameter `key` is at least `min`.
fn at_least(key: &str, value: impl Into<u64>, min: u64) -> Result<(), String> {
    let value = value.into();
    if value >= min {
        Ok(())
    } else {
        Err(format!("{key} must be at least {min}, not {value}"))
    }
}

/// `Ok` if the longest route parameter `key` allows, across `junctions`
/// junctions, fits [`max_route_junctions`]. A grid's longest route runs
/// straight along one axis, turns once and runs along the other:
/// `rows + cols − 1` junctions.
fn route_fits(key: &str, junctions: u64, turning: &TurningProbabilities) -> Result<(), String> {
    let max = max_route_junctions(turning);
    if junctions <= max {
        Ok(())
    } else {
        Err(format!(
            "{key} allows a route across {junctions} junctions, more than the {max} \
             a route weight can span"
        ))
    }
}

/// The smallest turning probability the route bound assumes: the
/// paper's rarest movement (Table I, a left turn from the north).
const RAREST_PAPER_MOVEMENT: f64 = 0.2;

/// The most junctions one route may cross under `turning`.
///
/// The network builders weigh each route by the product of one turning
/// probability per junction it crosses, and need every weight to be a
/// positive normal `f64`: `p^n ≥ f64::MIN_POSITIVE`, with `p` the
/// table's rarest movement. Under the paper's table that is 440
/// junctions (0.2^440 ≈ 2.8e-308), so the paper grid's `rows + cols`
/// may reach 441 and a one-column grid 440 rows; a longer route's weight
/// underflows to 0 and the builder panics. A table whose rarest movement
/// is likelier than the paper's keeps the paper's bound, which also
/// bounds the depth of the builders' recursive route walk.
fn max_route_junctions(turning: &TurningProbabilities) -> u64 {
    let rarest = Approach::ALL
        .into_iter()
        .flat_map(|side| {
            [
                turning.right(side),
                turning.left(side),
                turning.straight(side),
            ]
        })
        .filter(|&p| p > 0.0)
        .fold(RAREST_PAPER_MOVEMENT, f64::min);
    (f64::MIN_POSITIVE.ln() / rarest.ln()) as u64
}

/// The fastest arrival stream one entry may carry, in vehicles per
/// second: its base rate (the inverse of its inter-arrival gap) times
/// the demand profile's largest factor times the largest surge factor.
///
/// An entry road feeds three movements, each served at up to its
/// service rate (one vehicle per second in the paper), so no plant
/// admits more than a few vehicles per second at one entry; faster
/// demand only lengthens the entry backlog, by one vehicle record per
/// arrival. A rate whose mean gap falls below the float resolution of
/// the demand clock never advances it, and the generator then allocates
/// arrivals until memory runs out. Ten per second is 7.5 times the
/// fastest stream of any built-in scenario or benchmark workload
/// (`grid-congestion-replan`'s 4× pulse on Pattern I's 3 s gap).
const MAX_ENTRY_RATE: f64 = 10.0;

/// `Ok` if parameter `key` is positive and finite.
fn positive(key: &str, value: f64) -> Result<(), String> {
    if value.is_finite() && value > 0.0 {
        Ok(())
    } else {
        Err(format!("{key} must be positive and finite, not {value}"))
    }
}

/// A piecewise-constant arrival-rate multiplier over time.
///
/// Multiplier `m` at tick `k` scales every entry's base arrival rate: the
/// mean inter-arrival time becomes `base / m`. Past the last segment the
/// final multiplier persists.
#[derive(Debug, Clone, PartialEq)]
pub struct RateSchedule {
    segments: Vec<(Ticks, f64)>,
}

impl RateSchedule {
    /// A single flat multiplier of 1.
    pub fn flat() -> Self {
        RateSchedule {
            segments: vec![(Ticks::new(1), 1.0)],
        }
    }

    /// A custom segment sequence.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is empty, a duration is zero, or a multiplier
    /// is not positive and finite.
    pub fn from_segments(segments: Vec<(Ticks, f64)>) -> Self {
        assert!(!segments.is_empty(), "schedule must have segments");
        for &(d, m) in &segments {
            assert!(!d.is_zero(), "segment durations must be positive");
            assert!(m.is_finite() && m > 0.0, "multipliers must be positive");
        }
        RateSchedule { segments }
    }

    /// The segments in order.
    pub fn segments(&self) -> &[(Ticks, f64)] {
        &self.segments
    }

    /// The multiplier active at `tick` (the last segment's persists past
    /// the end).
    pub fn multiplier_at(&self, tick: Tick) -> f64 {
        let mut start = 0u64;
        for &(d, m) in &self.segments {
            let end = start.saturating_add(d.count());
            if tick.index() < end {
                return m;
            }
            start = end;
        }
        self.segments.last().expect("segments are non-empty").1
    }
}

/// A named time-varying demand shape, turned into a [`RateSchedule`] for a
/// given horizon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DemandProfile {
    /// Stationary demand at the base rates.
    Constant,
    /// A rush-hour surge: the rate ramps from 1× to `peak_factor` in four
    /// steps over `ramp` ticks, holds the peak for `peak` ticks, ramps
    /// back down symmetrically, then stays at 1×.
    RushHour {
        /// Ramp-up (and ramp-down) duration in ticks.
        ramp: u64,
        /// Peak-hold duration in ticks.
        peak: u64,
        /// Rate multiplier at the peak.
        peak_factor: f64,
    },
    /// A demand pulse: 1× until `from`, `factor` for `len` ticks, then 1×.
    Pulse {
        /// Pulse start tick.
        from: u64,
        /// Pulse length in ticks.
        len: u64,
        /// Rate multiplier during the pulse.
        factor: f64,
    },
    /// A compressed day: night lull, morning peak, midday plateau,
    /// evening peak, late-evening lull, scaled to fill the horizon.
    Day {
        /// Rate multiplier at the morning peak (the evening peak is 90%
        /// of it).
        peak_factor: f64,
    },
}

impl DemandProfile {
    /// Checks the parameters [`schedule`](Self::schedule) assumes: a
    /// rush-hour ramp of at least 4 ticks and a peak of at least 1, a
    /// pulse of at least 1 tick, and positive, finite factors.
    ///
    /// # Errors
    ///
    /// A message naming the first parameter out of range by its
    /// scenario-text key.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            DemandProfile::Constant => Ok(()),
            DemandProfile::RushHour {
                ramp,
                peak,
                peak_factor,
            } => at_least("ramp", ramp, 4)
                .and(at_least("peak", peak, 1))
                .and(positive("factor", peak_factor)),
            DemandProfile::Pulse { len, factor, .. } => {
                at_least("len", len, 1).and(positive("factor", factor))
            }
            DemandProfile::Day { peak_factor } => positive("factor", peak_factor),
        }
        .map_err(|e| format!("demand {}: {e}", self.label()))
    }

    /// Materializes the multiplier schedule for a run of `horizon` ticks.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`validate`](Self::validate) or the
    /// horizon is zero for [`DemandProfile::Day`].
    pub fn schedule(&self, horizon: Ticks) -> RateSchedule {
        match *self {
            DemandProfile::Constant => RateSchedule::flat(),
            DemandProfile::RushHour {
                ramp,
                peak,
                peak_factor,
            } => {
                assert!(ramp >= 4 && peak > 0, "rush hour needs ramp >= 4, peak > 0");
                let mut segments = Vec::new();
                let step = ramp / 4;
                for i in 1..=4u64 {
                    let m = 1.0 + (peak_factor - 1.0) * i as f64 / 4.0;
                    segments.push((Ticks::new(step.max(1)), m));
                }
                segments.push((Ticks::new(peak), peak_factor));
                for i in (1..4u64).rev() {
                    let m = 1.0 + (peak_factor - 1.0) * i as f64 / 4.0;
                    segments.push((Ticks::new(step.max(1)), m));
                }
                segments.push((Ticks::new(1), 1.0));
                RateSchedule::from_segments(segments)
            }
            DemandProfile::Pulse { from, len, factor } => {
                assert!(len > 0, "pulse needs a positive length");
                let mut segments = Vec::new();
                if from > 0 {
                    segments.push((Ticks::new(from), 1.0));
                }
                segments.push((Ticks::new(len), factor));
                segments.push((Ticks::new(1), 1.0));
                RateSchedule::from_segments(segments)
            }
            DemandProfile::Day { peak_factor } => {
                assert!(!horizon.is_zero(), "day profile needs a horizon");
                let h = horizon.count();
                let part = |f: f64| Ticks::new(((h as f64 * f) as u64).max(1));
                RateSchedule::from_segments(vec![
                    (part(0.15), 0.4),
                    (part(0.20), peak_factor),
                    (part(0.30), 1.0),
                    (part(0.20), 0.9 * peak_factor),
                    (part(0.15), 0.5),
                ])
            }
        }
    }

    /// Whether the profile varies over time.
    pub fn is_time_varying(&self) -> bool {
        !matches!(self, DemandProfile::Constant)
    }

    /// The largest rate multiplier the profile's schedule reaches (1 for
    /// constant demand; ramps, lulls and the evening peak stay at or
    /// below the named factor).
    fn peak_factor(&self) -> f64 {
        match *self {
            DemandProfile::Constant => 1.0,
            DemandProfile::RushHour { peak_factor, .. } | DemandProfile::Day { peak_factor } => {
                peak_factor.max(1.0)
            }
            DemandProfile::Pulse { factor, .. } => factor.max(1.0),
        }
    }

    /// A short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            DemandProfile::Constant => "constant",
            DemandProfile::RushHour { .. } => "rush-hour",
            DemandProfile::Pulse { .. } => "pulse",
            DemandProfile::Day { .. } => "day",
        }
    }
}

/// One disruption on the scenario timeline.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioEvent {
    /// Close a road to entering traffic at `at`.
    CloseRoad {
        /// The road to close.
        road: RoadId,
        /// The tick the closure takes effect.
        at: Tick,
    },
    /// Reopen a previously closed road at `at`.
    ReopenRoad {
        /// The road to reopen.
        road: RoadId,
        /// The tick the reopening takes effect.
        at: Tick,
    },
    /// Multiply every entry's arrival rate by `factor` during
    /// `[from, until)`.
    Surge {
        /// The rate multiplier.
        factor: f64,
        /// Surge start tick (inclusive).
        from: Tick,
        /// Surge end tick (exclusive).
        until: Tick,
    },
    /// Activate the sensor fault model during `[from, until)` — the
    /// window in which every controller's `FaultySensors` decorator
    /// corrupts readings.
    SensorFault {
        /// The fault model applied while the window is open.
        config: SensorFaultConfig,
        /// Window start tick (inclusive).
        from: Tick,
        /// Window end tick (exclusive).
        until: Tick,
    },
    /// Activate the actuator/comms fault model during `[from, until)` —
    /// the window in which every controller's `FaultyActuation`
    /// decorator corrupts the command path (stuck phases, dropped and
    /// delayed commands).
    ActuationFault {
        /// The fault model applied while the window is open.
        config: ActuationFaultConfig,
        /// Window start tick (inclusive).
        from: Tick,
        /// Window end tick (exclusive).
        until: Tick,
    },
}

/// A complete, serializable scenario: topology family, demand profile,
/// seed, horizon, and disruption events.
///
/// See the crate docs for the "Scenario model" (file format and event
/// semantics); [`crate::parse_scenario`] / [`ScenarioSpec::to_text`]
/// round-trip the text form.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// The scenario's name (used to select built-ins and label tables).
    pub name: String,
    /// Demand RNG seed.
    pub seed: u64,
    /// Run length in ticks.
    pub horizon: Ticks,
    /// The network family.
    pub topology: TopologySpec,
    /// The demand shape over time.
    pub demand: DemandProfile,
    /// Disruptions, in any order; the engine sorts them by tick.
    pub events: Vec<ScenarioEvent>,
    /// How vehicles already en route react to the live network — closure
    /// events, reopenings, and (under the congestion policy) observed
    /// queue state (default: routes stay fixed at entry).
    pub replan: ReplanPolicy,
    /// Per-intersection watchdog configuration: when set, every
    /// controller is wrapped in a `Degrading` fallback stack that
    /// switches the intersection to fixed-time control while its sensor
    /// stream looks implausible (default: no watchdog, controllers are
    /// exactly the pre-fault-plane stack).
    pub watchdog: Option<WatchdogConfig>,
}

impl ScenarioSpec {
    /// Builds the scenario's network.
    ///
    /// # Panics
    ///
    /// Panics if the topology fails [`TopologySpec::validate`]; use
    /// [`validated_network`](Self::validated_network) on untrusted specs.
    pub fn build_network(&self) -> Network {
        self.topology.build()
    }

    /// Validates the spec and builds its network: the parameters first
    /// (horizon positive, [`TopologySpec::validate`],
    /// [`DemandProfile::validate`], the replanning policy, and a peak
    /// arrival rate of at most 10 vehicles per second at any entry: the
    /// entry's base rate × the profile's largest factor × the largest
    /// surge factor), so no builder or demand clock sees one it would
    /// panic or spin on, then the events against the built network
    /// ([`validate_against`](Self::validate_against)).
    ///
    /// # Errors
    ///
    /// Returns a message describing the first problem found.
    pub fn validated_network(&self) -> Result<Network, String> {
        if self.horizon.is_zero() {
            return Err(format!("scenario {}: horizon must be positive", self.name));
        }
        self.topology
            .validate()
            .and_then(|()| self.demand.validate())
            .and_then(|()| self.replan.validate())
            .and_then(|()| self.check_peak_rate())
            .map_err(|e| format!("scenario {}: {e}", self.name))?;
        let network = self.build_network();
        self.validate_against(&network)?;
        Ok(network)
    }

    /// `Ok` if no entry's peak arrival rate exceeds [`MAX_ENTRY_RATE`].
    /// Surge factors that are not positive and finite are left to
    /// [`validate_against`](Self::validate_against), which rejects them.
    fn check_peak_rate(&self) -> Result<(), String> {
        let (gap_key, gap) = self.topology.shortest_gap();
        let demand = self.demand.peak_factor();
        let surge = self
            .events
            .iter()
            .filter_map(|event| match *event {
                ScenarioEvent::Surge { factor, .. } if factor.is_finite() && factor > 0.0 => {
                    Some(factor)
                }
                _ => None,
            })
            .fold(1.0, f64::max);
        let rate = demand * surge / gap;
        if rate <= MAX_ENTRY_RATE {
            Ok(())
        } else {
            Err(format!(
                "peak arrival rate {rate:e}/s at one entry exceeds {MAX_ENTRY_RATE}/s: \
                 {gap_key}={gap:e} s, demand {} factor={demand:e}, event surge factor={surge:e}",
                self.demand.label()
            ))
        }
    }

    /// Validates the spec ([`validated_network`](Self::validated_network)
    /// without keeping the network).
    ///
    /// # Errors
    ///
    /// Returns a message describing the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        self.validated_network().map(drop)
    }

    /// Validates the spec's events against its own network: event ticks
    /// within the horizon, event roads existing and internal
    /// or entry (closing an exit road would strand vehicles in the
    /// network forever), surge factors positive, surge windows
    /// non-overlapping (the engine holds one surge multiplier at a time,
    /// so overlapping windows would silently cancel each other), and at
    /// most one sensor fault window (one decorator config per run).
    ///
    /// # Errors
    ///
    /// Returns a message describing the first problem found.
    pub fn validate_against(&self, network: &Network) -> Result<(), String> {
        let mut fault_windows = 0usize;
        let mut actuation_windows = 0usize;
        for event in &self.events {
            match event {
                ScenarioEvent::CloseRoad { road, at } | ScenarioEvent::ReopenRoad { road, at } => {
                    if road.index() >= network.topology().num_roads() {
                        return Err(format!("scenario {}: unknown road {road}", self.name));
                    }
                    if network.topology().road(*road).is_exit() {
                        return Err(format!(
                            "scenario {}: closing exit road {road} would strand traffic",
                            self.name
                        ));
                    }
                    if at.index() >= self.horizon.count() {
                        return Err(format!(
                            "scenario {}: event at {at} is past the horizon",
                            self.name
                        ));
                    }
                }
                ScenarioEvent::Surge {
                    factor,
                    from,
                    until,
                } => {
                    if !(factor.is_finite() && *factor > 0.0) {
                        return Err(format!(
                            "scenario {}: surge factor must be positive",
                            self.name
                        ));
                    }
                    if from >= until {
                        return Err(format!("scenario {}: empty surge window", self.name));
                    }
                }
                ScenarioEvent::SensorFault {
                    config,
                    from,
                    until,
                } => {
                    fault_windows += 1;
                    if fault_windows > 1 {
                        return Err(format!(
                            "scenario {}: at most one sensor-fault window is supported",
                            self.name
                        ));
                    }
                    config.validate().map_err(|e| {
                        format!("scenario {}: invalid sensor fault config: {e}", self.name)
                    })?;
                    if from >= until {
                        return Err(format!("scenario {}: empty sensor-fault window", self.name));
                    }
                }
                ScenarioEvent::ActuationFault {
                    config,
                    from,
                    until,
                } => {
                    actuation_windows += 1;
                    if actuation_windows > 1 {
                        return Err(format!(
                            "scenario {}: at most one actuation-fault window is supported",
                            self.name
                        ));
                    }
                    config.validate().map_err(|e| {
                        format!(
                            "scenario {}: invalid actuation fault config: {e}",
                            self.name
                        )
                    })?;
                    if from >= until {
                        return Err(format!(
                            "scenario {}: empty actuation-fault window",
                            self.name
                        ));
                    }
                }
            }
        }
        if let Some(watchdog) = &self.watchdog {
            watchdog
                .validate()
                .map_err(|e| format!("scenario {}: invalid watchdog config: {e}", self.name))?;
        }
        // Surge windows must not overlap: the engine applies one surge
        // multiplier at a time, so a window ending inside another would
        // reset the survivor to 1×.
        let mut surges: Vec<(Tick, Tick)> = self
            .events
            .iter()
            .filter_map(|e| match e {
                ScenarioEvent::Surge { from, until, .. } => Some((*from, *until)),
                _ => None,
            })
            .collect();
        surges.sort();
        for pair in surges.windows(2) {
            if pair[1].0 < pair[0].1 {
                return Err(format!(
                    "scenario {}: surge windows overlap (one surge multiplier \
                     applies at a time)",
                    self.name
                ));
            }
        }
        Ok(())
    }

    /// Sets the run length, dropping closure/reopen events the new
    /// horizon no longer covers (validation requires them inside the
    /// horizon; surge and sensor-fault windows may overhang and are
    /// kept). A closure whose reopening is dropped simply stays closed —
    /// the one rule every horizon-trimming caller (CI caps, benches,
    /// tests) must agree on, so it lives here.
    pub fn set_horizon(&mut self, horizon: Ticks) {
        self.horizon = horizon;
        let end = horizon.count();
        self.events.retain(|e| match e {
            ScenarioEvent::CloseRoad { at, .. } | ScenarioEvent::ReopenRoad { at, .. } => {
                at.index() < end
            }
            _ => true,
        });
    }

    /// The sensor-fault window, if the scenario has one.
    pub fn sensor_fault(&self) -> Option<(SensorFaultConfig, Tick, Tick)> {
        self.events.iter().find_map(|e| match e {
            ScenarioEvent::SensorFault {
                config,
                from,
                until,
            } => Some((*config, *from, *until)),
            _ => None,
        })
    }

    /// The actuation-fault window, if the scenario has one.
    pub fn actuation_fault(&self) -> Option<(ActuationFaultConfig, Tick, Tick)> {
        self.events.iter().find_map(|e| match e {
            ScenarioEvent::ActuationFault {
                config,
                from,
                until,
            } => Some((*config, *from, *until)),
            _ => None,
        })
    }

    /// Whether any closure/reopen event is on the timeline.
    pub fn has_closures(&self) -> bool {
        self.events.iter().any(|e| {
            matches!(
                e,
                ScenarioEvent::CloseRoad { .. } | ScenarioEvent::ReopenRoad { .. }
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_spec(events: Vec<ScenarioEvent>) -> ScenarioSpec {
        ScenarioSpec {
            name: "test".to_string(),
            seed: 7,
            horizon: Ticks::new(300),
            topology: TopologySpec::Grid {
                spec: GridSpec::paper(),
                pattern: Pattern::II,
            },
            demand: DemandProfile::Constant,
            events,
            replan: ReplanPolicy::Off,
            watchdog: None,
        }
    }

    #[test]
    fn rate_schedule_lookup_and_persistence() {
        let s = RateSchedule::from_segments(vec![(Ticks::new(10), 1.0), (Ticks::new(5), 3.0)]);
        assert_eq!(s.multiplier_at(Tick::new(0)), 1.0);
        assert_eq!(s.multiplier_at(Tick::new(9)), 1.0);
        assert_eq!(s.multiplier_at(Tick::new(10)), 3.0);
        assert_eq!(s.multiplier_at(Tick::new(1000)), 3.0, "last persists");
    }

    #[test]
    fn rush_hour_ramps_up_and_down() {
        let p = DemandProfile::RushHour {
            ramp: 100,
            peak: 200,
            peak_factor: 3.0,
        };
        let s = p.schedule(Ticks::new(600));
        assert!(s.multiplier_at(Tick::new(0)) > 1.0);
        assert!(s.multiplier_at(Tick::new(0)) < 3.0);
        assert_eq!(s.multiplier_at(Tick::new(150)), 3.0);
        assert_eq!(s.multiplier_at(Tick::new(599)), 1.0);
        assert!(p.is_time_varying());
    }

    #[test]
    fn pulse_and_day_profiles_shape_the_schedule() {
        let pulse = DemandProfile::Pulse {
            from: 50,
            len: 20,
            factor: 4.0,
        }
        .schedule(Ticks::new(200));
        assert_eq!(pulse.multiplier_at(Tick::new(0)), 1.0);
        assert_eq!(pulse.multiplier_at(Tick::new(55)), 4.0);
        assert_eq!(pulse.multiplier_at(Tick::new(80)), 1.0);

        let day = DemandProfile::Day { peak_factor: 2.0 }.schedule(Ticks::new(1000));
        assert_eq!(day.multiplier_at(Tick::new(0)), 0.4);
        assert_eq!(day.multiplier_at(Tick::new(200)), 2.0);
        assert_eq!(day.multiplier_at(Tick::new(990)), 0.5);
    }

    #[test]
    fn validation_rejects_bad_events() {
        let net = grid_spec(Vec::new()).build_network();
        // Unknown road.
        let bad = grid_spec(vec![ScenarioEvent::CloseRoad {
            road: RoadId::new(10_000),
            at: Tick::new(10),
        }]);
        assert!(bad.validate_against(&net).unwrap_err().contains("unknown"));
        // Exit road.
        let exit = net
            .topology()
            .road_ids()
            .find(|&r| net.topology().road(r).is_exit())
            .unwrap();
        let bad = grid_spec(vec![ScenarioEvent::CloseRoad {
            road: exit,
            at: Tick::new(10),
        }]);
        assert!(bad.validate_against(&net).unwrap_err().contains("strand"));
        // Past the horizon.
        let internal = net
            .topology()
            .road_ids()
            .find(|&r| net.topology().road(r).is_internal())
            .unwrap();
        let bad = grid_spec(vec![ScenarioEvent::CloseRoad {
            road: internal,
            at: Tick::new(10_000),
        }]);
        assert!(bad.validate_against(&net).unwrap_err().contains("horizon"));
        // Two fault windows.
        let fault = |from: u64| ScenarioEvent::SensorFault {
            config: SensorFaultConfig::NONE,
            from: Tick::new(from),
            until: Tick::new(from + 10),
        };
        let bad = grid_spec(vec![fault(0), fault(100)]);
        assert!(bad
            .validate_against(&net)
            .unwrap_err()
            .contains("at most one"));
        // Overlapping surge windows.
        let surge = |from: u64, until: u64| ScenarioEvent::Surge {
            factor: 2.0,
            from: Tick::new(from),
            until: Tick::new(until),
        };
        let bad = grid_spec(vec![surge(0, 100), surge(50, 150)]);
        assert!(bad.validate_against(&net).unwrap_err().contains("overlap"));
        let good = grid_spec(vec![surge(0, 100), surge(100, 150)]);
        good.validate_against(&net)
            .expect("back-to-back surges are fine");
        // A well-formed spec passes.
        let good = grid_spec(vec![
            ScenarioEvent::CloseRoad {
                road: internal,
                at: Tick::new(50),
            },
            ScenarioEvent::ReopenRoad {
                road: internal,
                at: Tick::new(150),
            },
            fault(20),
        ]);
        good.validate_against(&net).expect("valid spec");
        assert!(good.has_closures());
        assert!(good.sensor_fault().is_some());
    }

    #[test]
    fn validation_covers_actuation_and_watchdog() {
        let net = grid_spec(Vec::new()).build_network();
        let actuation = |from: u64| ScenarioEvent::ActuationFault {
            config: ActuationFaultConfig {
                drop: 0.5,
                ..ActuationFaultConfig::NONE
            },
            from: Tick::new(from),
            until: Tick::new(from + 10),
        };
        // One window is fine and discoverable.
        let good = grid_spec(vec![actuation(20)]);
        good.validate_against(&net).expect("one actuation window");
        assert!(good.actuation_fault().is_some());
        // Two windows are rejected.
        let bad = grid_spec(vec![actuation(0), actuation(100)]);
        assert!(bad
            .validate_against(&net)
            .unwrap_err()
            .contains("at most one actuation-fault"));
        // A bad config is rejected.
        let bad = grid_spec(vec![ScenarioEvent::ActuationFault {
            config: ActuationFaultConfig {
                stuck: 0.5,
                stuck_ticks: 0,
                ..ActuationFaultConfig::NONE
            },
            from: Tick::new(0),
            until: Tick::new(10),
        }]);
        assert!(bad
            .validate_against(&net)
            .unwrap_err()
            .contains("invalid actuation fault config"));
        // An empty window is rejected.
        let bad = grid_spec(vec![ScenarioEvent::ActuationFault {
            config: ActuationFaultConfig::NONE,
            from: Tick::new(10),
            until: Tick::new(10),
        }]);
        assert!(bad.validate_against(&net).unwrap_err().contains("empty"));
        // A bad watchdog config is rejected; a sound one passes.
        let mut spec = grid_spec(Vec::new());
        spec.watchdog = Some(WatchdogConfig {
            freeze_ticks: 0,
            ..WatchdogConfig::default()
        });
        assert!(spec
            .validate_against(&net)
            .unwrap_err()
            .contains("invalid watchdog config"));
        spec.watchdog = Some(WatchdogConfig::default());
        spec.validate_against(&net).expect("default watchdog");
    }

    #[test]
    fn topology_specs_build_their_families() {
        for (spec, family, min_entries) in [
            (
                TopologySpec::Grid {
                    spec: GridSpec::paper(),
                    pattern: Pattern::II,
                },
                "grid",
                12,
            ),
            (
                TopologySpec::Arterial(ArterialSpec::default()),
                "arterial",
                12,
            ),
            (TopologySpec::Ring(RingSpec::default()), "ring", 12),
            (
                TopologySpec::AsymmetricGrid(AsymmetricGridSpec::default()),
                "asym-grid",
                12,
            ),
        ] {
            assert_eq!(spec.family(), family);
            let net = spec.build();
            assert!(net.num_entries() >= min_entries, "{family}");
        }
    }

    #[test]
    fn the_longest_accepted_one_column_grid_builds_and_one_more_row_is_an_error() {
        let longest = max_route_junctions(&TurningProbabilities::PAPER);
        assert_eq!(longest, 440, "0.2^440 is the last normal power");
        let column = |rows: u64| TopologySpec::Grid {
            spec: GridSpec {
                rows: rows as u32,
                cols: 1,
                ..GridSpec::paper()
            },
            pattern: Pattern::I,
        };
        column(longest).validate().expect("the longest route fits");
        let network = column(longest).build();
        assert_eq!(network.topology().num_intersections(), 440);
        let err = column(longest + 1).validate().unwrap_err();
        assert!(
            err.contains("rows + cols allows a route across 441 junctions, more than the 440"),
            "{err}"
        );
        // The same bound holds for the other grid family and, along the
        // corridor, for arterials.
        let asym = TopologySpec::AsymmetricGrid(AsymmetricGridSpec {
            rows: 441,
            cols: 1,
            ..AsymmetricGridSpec::default()
        });
        assert!(asym.validate().unwrap_err().contains("rows + cols"));
        let arterial = TopologySpec::Arterial(ArterialSpec {
            intersections: 441,
            ..ArterialSpec::default()
        });
        assert!(arterial.validate().unwrap_err().contains("intersections"));
        // A table with a rarer movement than the paper's crosses fewer
        // junctions before its weights underflow.
        let rare = TurningProbabilities::new([(0.01, 0.01); 4]).unwrap();
        assert_eq!(max_route_junctions(&rare), 153);
    }

    #[test]
    fn peak_arrival_rate_is_bounded_in_every_spelling() {
        // Each spelling once made the demand clock stall below its float
        // resolution and allocate arrivals until memory ran out.
        let controller = |_: usize| -> Box<dyn utilbp_core::SignalController> {
            Box::new(utilbp_core::UtilBp::paper())
        };
        let config = crate::EngineConfig::new(crate::Backend::Queueing);
        let cases = [
            (
                "topology grid\ndemand pulse len=5 factor=1e300",
                "demand pulse factor=1e300",
            ),
            (
                "topology grid\nevent surge factor=1e300 from=0 until=5",
                "event surge factor=1e300",
            ),
            (
                "topology arterial intersections=2 side-gap=1e-300",
                "side-gap=1e-300",
            ),
            // Each part is in range; their product is not.
            (
                "topology arterial intersections=2 arterial-gap=4 side-gap=0.5\n\
                 demand pulse len=5 factor=4\nevent surge factor=1.5 from=0 until=5",
                "exceeds 10/s",
            ),
        ];
        for (lines, key) in cases {
            let text = format!("scenario x\nhorizon 50\n{lines}\n");
            let spec = crate::parse_scenario(&text).expect("each line is in range alone");
            let err = spec.validate().unwrap_err();
            assert!(err.contains("peak arrival rate"), "{lines}: {err}");
            assert!(err.contains(key), "{lines}: {err}");
            let built = std::panic::catch_unwind(|| {
                crate::ScenarioEngine::new(spec, config, &controller).map(drop)
            });
            let err = built
                .unwrap_or_else(|_| panic!("{lines} panicked"))
                .unwrap_err();
            assert!(err.contains(key), "{lines}: {err}");
        }
        // The bound is inclusive: 2/s at the side entries × 5 = 10/s.
        let at_bound = crate::parse_scenario(
            "scenario x\nhorizon 50\ntopology arterial intersections=2 arterial-gap=4 \
             side-gap=0.5\ndemand pulse len=5 factor=5\n",
        )
        .unwrap();
        at_bound
            .validate()
            .expect("a rate at the bound is accepted");
    }
}
