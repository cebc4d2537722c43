//! # utilbp-scenario
//!
//! The scenario engine of the adaptive back-pressure workspace:
//! serializable descriptions of *what to simulate* — a network topology,
//! a time-varying demand profile, and a timeline of disruption events —
//! plus an engine that drives either simulation substrate
//! (`utilbp-queueing` or `utilbp-microsim`) through them. The paper's
//! fixed N×N grid with stationary Poisson demand becomes one point in a
//! much larger space: irregular networks, rush-hour surges, road
//! closures, and degraded sensing windows.
//!
//! ## Scenario model
//!
//! A [`ScenarioSpec`] has five parts:
//!
//! 1. **Identity** — `name`, demand RNG `seed`, and `horizon` (ticks to
//!    simulate). The same spec + substrate always produces
//!    bit-identical metrics.
//! 2. **Topology** ([`TopologySpec`]) — which network family to build:
//!    the paper's uniform grid, an arterial corridor, a ring road, or an
//!    asymmetric grid (per-axis lengths/capacities). Every family is
//!    generated by `utilbp-netgen` as a
//!    [`Network`](utilbp_netgen::Network): a validated
//!    [`NetworkTopology`](utilbp_netgen::NetworkTopology) of standard
//!    four-way junctions plus, per boundary entry, the pre-enumerated
//!    weighted routes vehicles may take.
//! 3. **Demand** ([`DemandProfile`]) — a named shape materialized into a
//!    piecewise-constant [`RateSchedule`] multiplier over each entry's
//!    base arrival rate: `constant`, `rush-hour` (stepped ramp up, peak
//!    hold, ramp down), `pulse`, or `day` (night lull through evening
//!    peak). [`NetworkDemand`] turns the schedule into seeded Poisson
//!    arrivals with routes sampled from the network's option table.
//! 4. **Events** ([`ScenarioEvent`]) — a tick-ordered timeline of
//!    disruptions the engine applies mid-run: road closures/reopenings,
//!    demand surges, and a sensor-fault window — plus the spec-level
//!    [`ReplanPolicy`] governing how vehicles already en route respond to
//!    the live network: not at all (`Off`), to closures and reopenings
//!    (`AtNextJunction`), or additionally to observed congestion
//!    (`Congestion`).
//! 5. **Text form** — [`parse_scenario`] / [`ScenarioSpec::to_text`]
//!    round-trip a line-oriented file format (see [`mod@crate::format`]’s
//!    docs for the grammar), the canonical encoding of a scenario.
//!
//! ### Event semantics
//!
//! - **Closures** (`CloseRoad` / `ReopenRoad`) close a road *to entering
//!   traffic* at the given tick: junctions stop serving vehicles onto it
//!   and boundary insertions onto it stay backlogged, while vehicles
//!   already on the road keep moving and may leave it (a street closed at
//!   its upstream end). Closing an exit road is rejected at validation —
//!   it would strand traffic forever.
//! - **Closures and routing**: vehicles *entering after* the closure
//!   avoid it — [`NetworkDemand`] excludes route options that traverse a
//!   closed road and re-normalizes the remaining weights, modeling
//!   drivers who route around the incident. Vehicles already en route
//!   follow the scenario's [`ReplanPolicy`]: under `off` (the default) a
//!   journey through the closed road queues upstream until the
//!   reopening — exactly the congestion spill-back the adaptive
//!   controllers must absorb — while under `at-next-junction` the engine
//!   rewrites the routes of upstream vehicles to divert around the
//!   closure at the first junction they are not yet committed to, and —
//!   when the road reopens — diverted vehicles whose detour is strictly
//!   dominated by an open continuation are rewritten back
//!   (reopen-restore; see `utilbp-substrate` for the routing-response
//!   contract and [`utilbp_netgen::Replanner`] for the detour search).
//!   If *every*
//!   route of an entry is blocked (e.g. the entry road itself is
//!   closed), its would-be arrivals are suppressed and counted
//!   (`NetworkDemand::suppressed`), not queued.
//! - **Surges** multiply every entry's arrival rate by `factor` during
//!   `[from, until)`, on top of the demand profile's schedule.
//! - **Sensor-fault windows** activate the
//!   [`FaultySensors`](utilbp_baselines::FaultySensors) decorator that
//!   the engine wraps around every controller when the scenario declares
//!   a window: during `[from, until)` queue readings suffer the
//!   configured dropout/noise/freeze faults; outside the window the
//!   decorator is transparent (and draws no randomness, so the fault RNG
//!   stream depends only on the window's ticks).
//!
//! ### Congestion-aware replanning
//!
//! `ReplanPolicy::Congestion { period, threshold, hysteresis }` adds an
//! *endogenous* routing response: every `period` ticks the engine
//! snapshots per-road occupancy through the substrate's sensor surface,
//! folds the occupancy/capacity ratios into a hysteresis-banded
//! congested-road set ([`CongestionMonitor`]: a road enters the set at
//! `ratio >= threshold` and leaves below `threshold - hysteresis`), and —
//! only when the set is non-empty — diverts vehicles whose uncommitted
//! route suffix would enter a congested road. Detours are scored through
//! a congestion-weighted view of the network's edge weights (emptier
//! roads weigh more; congested and closed roads are inadmissible), so a
//! rerouted journey avoids the congestion entirely and cannot oscillate
//! back while the congested set is unchanged. Routing now responds to
//! queue *state* rather than a fixed turn matrix — the regime of
//! back-pressure control with unknown routing rates (arXiv:1401.3357) —
//! and because the decisions read only deterministic sensor state,
//! repeat runs stay bit-identical under every policy.
//!
//! ## Running scenarios
//!
//! [`ScenarioEngine`] builds the network, instantiates one controller per
//! intersection from a factory, builds the chosen substrate through
//! [`build_substrate`] (which every other driver uses too) and steps it
//! through the timeline; [`run_scenario`] is the one-call wrapper. The
//! `scenarios` binary in `utilbp-experiments` runs the whole built-in
//! library ([`builtin_scenarios`]) across controllers on both substrates
//! and renders a comparison table.
//!
//! ## Observability
//!
//! The engine is the attachment point of the `utilbp-telemetry` flight
//! recorder: [`ScenarioEngine::enable_recording`] captures tick-stamped
//! events (phase changes, closures, fault windows, watchdog
//! activations/recoveries, replans, observe-mode guard violations),
//! [`ScenarioEngine::enable_gauges`] samples queue/pressure/occupancy
//! gauges on a cadence, and [`ScenarioEngine::enable_profiling`]
//! attributes per-tick wall-clock to pipeline sections. Recording is
//! strictly passive — outcomes are bit-identical with it on or off; see
//! the telemetry crate's docs for the event taxonomy and the
//! determinism/passivity contract, and the `trace` binary in
//! `utilbp-experiments` for the rendered timeline/profile report.
//!
//! ```
//! use utilbp_core::UtilBp;
//! use utilbp_scenario::{builtin, run_scenario, Backend, EngineConfig};
//!
//! let mut spec = builtin("ring-pulse").unwrap();
//! spec.horizon = utilbp_core::Ticks::new(120); // trim for the doctest
//! let outcome = run_scenario(spec, EngineConfig::new(Backend::Queueing), &|_| {
//!     Box::new(UtilBp::paper())
//! })
//! .unwrap();
//! assert!(outcome.generated > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod checkpoint;
mod demand;
mod engine;
pub mod format;
mod library;
mod spec;

pub use checkpoint::{CheckpointPolicy, RestoreError};
pub use demand::NetworkDemand;
pub use engine::{
    build_substrate, run_scenario, CongestionMonitor, EngineConfig, ScenarioEngine, ScenarioOutcome,
};
pub use format::parse_scenario;
pub use library::{builtin, builtin_scenarios};
pub use spec::{
    Backend, DemandProfile, RateSchedule, ReplanPolicy, ScenarioEvent, ScenarioSpec, TopologySpec,
};

// Re-exported so downstream crates can name the guard mode `EngineConfig`
// holds without depending on utilbp-substrate directly.
pub use utilbp_substrate::GuardMode;
