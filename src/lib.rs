//! # adaptive-backpressure
//!
//! A production-quality Rust reproduction of *Chang, Roy, Zhao, Annaswamy,
//! Chakraborty — "CPS-oriented Modeling and Control of Traffic Signals
//! Using Adaptive Back Pressure" (DATE 2020)*: the **UTIL-BP**
//! utilization-aware adaptive back-pressure traffic signal controller,
//! every substrate it needs (a microscopic traffic simulator standing in
//! for SUMO, the paper's discrete-time queueing network, grid networks and
//! Poisson demand), the baselines it is compared against, and the
//! experiment harness that regenerates every table and figure of the
//! paper's evaluation.
//!
//! This crate is a facade: each module re-exports one workspace crate.
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `utilbp-core` | Intersection model (Section II), link gains (Eqs. 4–11), **Algorithm 1** |
//! | [`baselines`] | `utilbp-baselines` | CAP-BP, original BP, fixed-time, greedy, fixed-length ablation; fault-injection wrappers and the watchdog fallback |
//! | [`queueing`] | `utilbp-queueing` | Mesoscopic store-and-forward network simulator (Eq. 2) |
//! | [`microsim`] | `utilbp-microsim` | Microscopic simulator: Krauss car-following, dedicated lanes, ambers |
//! | [`netgen`] | `utilbp-netgen` | 3×3 grid builder, Table I/II demand, routes, en-route replanning |
//! | [`metrics`] | `utilbp-metrics` | Waiting ledgers, time series, phase traces, rendering |
//! | [`substrate`] | `utilbp-substrate` | The plant contract: the `TrafficSubstrate` trait both simulators implement in their own crates, one `StepReport`, plus the opt-in `InvariantGuard` checker that runs next to the plant |
//! | [`scenario`] | `utilbp-scenario` | Scenario files: topologies × demand profiles × disruption events (closures, sensor/actuator/comms faults) |
//! | [`telemetry`] | `utilbp-telemetry` | Flight recorder: typed event stream, gauge registry, tick-section profiler, timeline rendering |
//! | [`snapshot`] | `utilbp-snapshot` | Durable snapshot container: versioned format, per-section checksums, typed corruption errors |
//! | [`experiments`] | `utilbp-experiments` | Fig. 2, Table III, Figs. 3–5, ablations, scenario sweeps, the `chaos` resilience harness, the `trace` replay binary, the `recover` crash-recovery drill |
//!
//! ## Substrate layer
//!
//! The paper's CPS framing separates the *control plane* (decentralized
//! adaptive back-pressure signal decisions) from the *plant* (the road
//! network). In this workspace the plant is a single trait —
//! [`substrate::TrafficSubstrate`] — with two implementations, each in
//! its plant's own crate: [`queueing::QueueSim`] (the paper's Section II
//! store-and-forward model, exact and fast) and [`microsim::MicroSim`]
//! (the microscopic SUMO substitute). The contract crate sits below both
//! plants and names neither. Every driver — the scenario engine, the
//! experiments runner, the `scenarios` binary, the perf harness — builds
//! a simulator through [`scenario::build_substrate`], the one function
//! that names both plants, and steps it through the trait; nothing else
//! dispatches on the backend.
//!
//! The trait is a *contract*, not just an interface (the full statement
//! lives in the `utilbp-substrate` crate docs):
//!
//! - **Determinism** — identical inputs give bit-identical metrics,
//!   across repeats (every phase runs serially, and car-following noise
//!   comes from per-road RNG streams).
//! - **Closure semantics** — `set_road_closed` stops traffic from
//!   *entering* a road while on-road traffic drains; reopening restores
//!   admission. Exit roads never close (validated at the scenario layer).
//! - **Waiting accounting** — waiting accumulates per vehicle inside the
//!   step path and is flushed to the ledger once at completion;
//!   `mean_waiting_including_active` folds live accumulators (and
//!   backlog dwell) at query time. Nothing scans the fleet per tick.
//! - **Route-cursor access** — `replan_routes` walks every vehicle with
//!   junctions still ahead in a deterministic order (handing the caller
//!   the vehicle's id, route, and committed-hop count) and lets the
//!   caller rewrite its uncommitted route suffix. The routing-response
//!   layer below is built on this.
//! - **Occupancy snapshots** — `occupancy_snapshot` fills a reusable
//!   buffer with every road's incrementally maintained occupancy
//!   counter, the O(roads) sensor read behind periodic congestion
//!   monitoring.
//!
//! ### Routing response
//!
//! [`scenario::ReplanPolicy`] governs how vehicles already en route react
//! to the live network, executed by the scenario engine through the
//! substrate hooks above (all passes are serial, draw no randomness, and
//! read only deterministic sensor state — so repeat runs stay
//! bit-identical under every policy):
//!
//! - **Closure diversion** (`AtNextJunction`): when a road closes
//!   mid-run, [`netgen::Replanner`] rewrites the uncommitted suffix of
//!   every upstream vehicle whose journey would enter it, splicing the
//!   best-weighted open detour from bounded-turn route enumeration onto
//!   the preserved committed prefix.
//! - **Reopen-restore**: the engine tracks diverted vehicles by id; when
//!   the road reopens, vehicles whose detour is *strictly* dominated by
//!   an open continuation are rewritten back ([`netgen::Replanner`]'s
//!   `restore`), and the reopened corridor carries its through-traffic
//!   again. Undominated detours are kept — a detour as good as the
//!   original is not churned.
//! - **Congestion replanning** (`Congestion { period, threshold,
//!   hysteresis }`): every `period` ticks the engine snapshots occupancy,
//!   folds occupancy/capacity ratios into a hysteresis-banded
//!   congested-road set ([`scenario::CongestionMonitor`]), and — only
//!   when the set is non-empty — diverts journeys headed into congestion,
//!   scoring detours through a congestion-weighted view of the network's
//!   edge weights (emptier roads weigh more; congested and closed roads
//!   are inadmissible, so reroutes cannot oscillate while the set is
//!   stable). Routing thereby responds to observed queue state rather
//!   than a fixed turn matrix — the regime of back-pressure control with
//!   unknown routing rates (arXiv:1401.3357).
//!
//! ## Robustness & fault plane
//!
//! The paper's CPS story is incomplete without the failure modes a
//! deployed signal system actually sees: dead induction loops, stuck
//! actuators, dropped command messages. The workspace models them as a
//! *fault plane* — deterministic decorators between the controller and
//! the plant, plus a watchdog that detects implausible sensing and
//! degrades gracefully:
//!
//! - **Sensor faults** ([`baselines::FaultySensors`],
//!   [`baselines::SensorFaultConfig`]): per-intersection seeded streams
//!   inject dropouts (counters read zero), frozen counters (stale
//!   reads), and stuck-at values into the queue lengths a controller
//!   sees. The plant itself is untouched — only perception is corrupted.
//! - **Actuator / comms faults** ([`baselines::FaultyActuation`],
//!   [`baselines::ActuationFaultConfig`]): the controller's *decision*
//!   is distorted on its way to the plant — phases stick for a
//!   configured dwell, commands drop (the last delivered decision
//!   holds), or deliveries lag by a bounded delay, each from an
//!   independent seeded stream.
//! - **Watchdog fallback** ([`baselines::Degrading`],
//!   [`baselines::WatchdogConfig`]): a per-intersection plausibility
//!   monitor over the sensor stream the controller consumes. When the
//!   stream turns implausible (frozen, impossibly jumpy, all-zero), the
//!   intersection switches to a fixed-time fallback; a hysteresis band
//!   of consecutive plausible reads must pass before control returns.
//!   Activation counts, degraded ticks, and mean recovery time surface
//!   in [`scenario::ScenarioOutcome`].
//! - **Runtime invariant guard** ([`substrate::InvariantGuard`]): an
//!   opt-in checker the scenario engine owns next to the plant
//!   (`EngineConfig::guarded()`, or `observed()` to log instead of
//!   panic) and runs after every step, checking vehicle conservation,
//!   queue non-negativity, and closed-road admission, panicking with a
//!   tick-stamped diagnostic on the first violation. When absent it
//!   costs nothing — the unguarded path is untouched.
//!
//! All fault draws come from per-intersection streams split from the
//! scenario seed by fault domain, and every mode's draw is gated on its
//! probability, so enabling one mode never perturbs another's stream —
//! fixed-seed goldens hold with faults off, and runs with faults on are
//! bit-identical across repeats. Mid-run toggling is exposed through
//! shared [`baselines::FaultSwitch`] handles. The `chaos` binary (and `tests/chaos.rs`) sweeps seeded
//! fault timelines — sensor, actuator, comms, closure/reopen
//! interleavings — over both backends under the guard, asserting zero
//! panics, exact conservation, bit-identical outcomes, and bounded
//! degradation with the fallback on.
//!
//! ## Observability
//!
//! The observability plane ([`telemetry`]) is a *flight recorder* for the
//! whole stack: deterministic, strictly passive, and zero-cost when off.
//! It has four pieces, all engine-attached (`scenario::ScenarioEngine`):
//!
//! - **Event stream** ([`telemetry::FlightRecorder`]): typed,
//!   tick-stamped events — phase
//!   switches, closures/reopenings, surges, fault windows, watchdog
//!   activations/recoveries, replans (closure / reopen / congestion),
//!   invariant-guard violations — captured into a bounded ring buffer
//!   (oldest dropped first) and exported as JSONL with a fixed key
//!   order, so fixed-seed streams are byte-identical across repeats.
//!   Recording is off by default: the engine holds no recorder, every
//!   emission site tests for one before building an event, and the off
//!   path allocates nothing.
//! - **Gauges** ([`telemetry::GaugeRegistry`]): backlog depth,
//!   congested-set size, per-intersection queue totals and max
//!   movement pressure, per-road occupancy — sampled on a fixed tick
//!   cadence into [`metrics::TimeSeries`].
//! - **Profiler** ([`telemetry::TickProfiler`]): wall-clock laps per
//!   tick section (decide / car-following / landings / waiting /
//!   replan / monitor), rendered as a percentile table. It is the one
//!   timing schema: both substrates' `step_into` and the scenario
//!   engine lap straight into it through a
//!   [`telemetry::PhaseStopwatch`]. Timing is observational only — it
//!   never feeds back into simulation state.
//! - **Sinks**: JSONL export, the per-intersection ASCII timeline
//!   ([`telemetry::render_timeline`]: phases × faults × fallbacks),
//!   and the `trace` binary (plus `chaos --trace`), which replays any
//!   built-in or scenario file with recording on — under the guard's
//!   non-panicking *observe* mode — and renders the full report.
//!
//! The contract (stated in full in the `utilbp-telemetry` crate docs):
//! recording is *passive* — attaching any recorder, gauge cadence, or
//! profiler changes no simulation outcome bit, and the event stream
//! itself is deterministic. `tests/telemetry.rs` enforces both;
//! `tests/perf_alloc.rs` bounds the off path's allocations.
//!
//! ## Durability & recovery
//!
//! The durable state plane makes the whole stack *checkpointable*: a
//! running scenario can be captured to bytes at any tick and later
//! restored into an engine that continues **bit-identically** — same
//! [`scenario::ScenarioOutcome`], byte-equal telemetry JSONL — on either
//! substrate.
//!
//! - **Container** ([`snapshot`]): a little-endian binary format with a
//!   magic/version header and tagged sections, each carrying its length
//!   and a CRC-32 of its payload. Parsing damaged bytes never panics:
//!   bad magic, version skew, truncation, duplicate or misaligned
//!   sections, and checksum mismatches all surface as typed
//!   [`snapshot::SnapshotError`]s. The wire contract is documented in
//!   the `utilbp-snapshot` crate docs.
//! - **State plumbing** (`utilbp_core::state`): every stateful component
//!   — both plants, all controllers and their fault/watchdog decorators,
//!   the waiting ledger, the demand generator, the RNGs (by exact
//!   xoshiro256++ state words), the invariant guard's watermarks, the
//!   flight recorder — implements `save_state`/`load_state` over a flat
//!   word stream, with floats stored by bit pattern and collections in
//!   canonical order, so *save → load → save is a byte-level fixed
//!   point*. Intra-step scratch is deliberately excluded and rebuilt by
//!   the next step; gauges and profiler laps are measurements, not
//!   state, and are not captured.
//! - **Engine checkpoints** ([`scenario::ScenarioEngine::checkpoint`] /
//!   [`scenario::ScenarioEngine::restore`] /
//!   [`scenario::CheckpointPolicy`]): a checkpoint embeds the scenario
//!   spec in text form plus the full dynamic state; restore validates
//!   configuration compatibility (backend, guard flags, microscopic
//!   parameters) and rejects mismatches with a typed
//!   [`scenario::RestoreError`]. Periodic capture retains a small ring
//!   of recent checkpoints and surfaces each capture as a `checkpoint`
//!   event (size + CRC) in the flight recorder; the policy itself is
//!   durable, so a resumed run keeps the cadence.
//! - **Forking** ([`scenario::ScenarioEngine::fork`]): a checkpoint
//!   restored into an *independent* engine — a what-if timeline
//!   (closures, surges, controller swaps) explored without disturbing
//!   the primary run.
//! - **Crash-recovery drill** (`experiments::run_recovery`, which the
//!   `recover` binary runs on a built-in and the `chaos` harness on
//!   every timeline): kill a run at an adversarial tick, tear or
//!   bit-flip the newest checkpoint, verify integrity validation
//!   rejects the damage, fall back to the newest valid capture,
//!   fast-forward, and gate on byte-identity with an uninterrupted
//!   golden run. `crates/scenario/tests/durability.rs`
//!   holds the full resume/fixed-point/corruption test matrix.
//!
//! ## Quickstart
//!
//! Run UTIL-BP on the paper's 3×3 network for ten simulated minutes:
//!
//! ```
//! use adaptive_backpressure::core::{SignalController, Tick, Ticks, UtilBp};
//! use adaptive_backpressure::netgen::{
//!     DemandConfig, DemandGenerator, DemandSchedule, GridNetwork, GridSpec,
//!     Pattern,
//! };
//! use adaptive_backpressure::queueing::{QueueSim, QueueSimConfig};
//! use adaptive_backpressure::substrate::TrafficSubstrate;
//!
//! let grid = GridNetwork::new(GridSpec::paper());
//! let controllers = (0..9)
//!     .map(|_| Box::new(UtilBp::paper()) as Box<dyn SignalController>)
//!     .collect();
//! let mut sim = QueueSim::new(
//!     grid.topology().clone(),
//!     controllers,
//!     QueueSimConfig::paper_exact(),
//! );
//! let mut demand = DemandGenerator::new(
//!     &grid,
//!     DemandConfig::new(DemandSchedule::constant(Pattern::I, Ticks::new(600))),
//!     42,
//! );
//! for k in 0..600 {
//!     let arrivals = demand.poll(&grid, Tick::new(k));
//!     sim.step(arrivals);
//! }
//! println!(
//!     "served {} vehicles, mean queuing time {:.1} s",
//!     sim.ledger().completed(),
//!     sim.mean_waiting_including_active(),
//! );
//! ```
//!
//! See `examples/` for runnable scenarios and `DESIGN.md` /
//! `EXPERIMENTS.md` for the reproduction methodology and measured
//! results. The consolidated workspace guides live in `docs/`:
//! `docs/ARCHITECTURE.md` (crate graph, tick data-flow, where each
//! layer's contract is documented) and `docs/PERFORMANCE.md` (the
//! vehicle-storage layout story, the bench protocol behind
//! `BENCH_sim_throughput.json` and its run-entry schema, and the
//! shared-hardware caveats that govern how to read the numbers).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

/// The paper's intersection model and the UTIL-BP controller
/// (re-export of `utilbp-core`).
pub mod core {
    pub use utilbp_core::*;
}

/// Baseline and ablation controllers (re-export of `utilbp-baselines`).
pub mod baselines {
    pub use utilbp_baselines::*;
}

/// The mesoscopic queueing-network simulator (re-export of
/// `utilbp-queueing`).
pub mod queueing {
    pub use utilbp_queueing::*;
}

/// The microscopic traffic simulator (re-export of `utilbp-microsim`).
///
/// See the crate-level "Performance architecture" notes in
/// `utilbp-microsim` for the step path's mechanisms: the network-wide
/// vehicle arena (per-vehicle hot state in one contiguous
/// struct-of-arrays buffer, roads as index spans), the
/// occupancy-ordered sweep (an incrementally maintained active-road
/// list, so empty roads and lanes cost zero cache lines), incremental
/// sensing, and the one car-following contract every fixed-seed golden
/// pins (per-road dawdle streams drawn in sequence, as SUMO's Krauss
/// model does). `docs/PERFORMANCE.md` tells the measured story.
pub mod microsim {
    pub use utilbp_microsim::*;
}

/// Network construction and demand generation (re-export of
/// `utilbp-netgen`).
pub mod netgen {
    pub use utilbp_netgen::*;
}

/// Measurement and reporting utilities (re-export of `utilbp-metrics`).
pub mod metrics {
    pub use utilbp_metrics::*;
}

/// The plant contract: the `TrafficSubstrate` trait both simulators
/// implement and the invariant guard that checks it (re-export of
/// `utilbp-substrate`).
pub mod substrate {
    pub use utilbp_substrate::*;
}

/// Scenario descriptions and the engine that drives both substrates
/// through them (re-export of `utilbp-scenario`).
pub mod scenario {
    pub use utilbp_scenario::*;
}

/// The flight recorder: deterministic telemetry, tracing, and profiling
/// (re-export of `utilbp-telemetry`).
pub mod telemetry {
    pub use utilbp_telemetry::*;
}

/// The durable snapshot container: versioned, checksummed sections with
/// typed corruption errors (re-export of `utilbp-snapshot`).
pub mod snapshot {
    pub use utilbp_snapshot::*;
}

/// The table/figure regeneration harness (re-export of
/// `utilbp-experiments`).
pub mod experiments {
    pub use utilbp_experiments::*;
}
