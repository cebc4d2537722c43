//! # utilbp-telemetry
//!
//! The **flight recorder** of the adaptive back-pressure workspace: a
//! zero-cost-when-off, determinism-preserving observability plane for
//! the substrate stack. The scenario engine (and any other driver)
//! threads three instruments through a run:
//!
//! - a typed **event stream** — [`Event`] / [`EventKind`] — captured by
//!   a [`FlightRecorder`], a bounded ring buffer of tick-stamped events
//!   (a driver without one records nothing);
//! - a **gauge registry** — [`GaugeRegistry`] — sampling named counters
//!   (per-intersection queue and peak-movement pressure, per-road
//!   occupancy, backlog depth, congestion-set size) on a configurable
//!   cadence into [`TimeSeries`](utilbp_metrics::TimeSeries);
//! - a **tick-section profiler** — [`TickProfiler`] — folding per-tick
//!   wall-clock laps for the step pipeline's [`Section`]s (decide,
//!   car-following, landings, waiting, replan, monitor) into streaming
//!   [`SummaryStats`](utilbp_metrics::SummaryStats) and log-scaled
//!   percentile histograms. It is the
//!   workspace's one timing schema: both plants' `step_into` and the
//!   scenario engine lap into it through a [`PhaseStopwatch`], which
//!   takes no clock reading when no profiler is attached.
//!
//! ## Event taxonomy
//!
//! Every event is an [`EventKind`] stamped with the
//! [`Tick`](utilbp_core::Tick) it was
//! observed at (the tick the engine just simulated):
//!
//! | kind | emitted when |
//! |---|---|
//! | `phase_change` | an intersection's signal decision changes (also once per intersection on the first recorded tick, so timelines know the initial phase) |
//! | `road_closed` / `road_reopened` | a closure event fires / clears |
//! | `surge` | a demand-surge multiplier changes |
//! | `sensor_fault_window` / `actuation_fault_window` | a fault window opens (`active: true`) or shuts |
//! | `watchdog_activated` / `watchdog_recovered` | an intersection's watchdog hands control to / back from the fixed-time fallback |
//! | `replan` | a routing-response pass ran (closure, reopen, congestion, or congestion-clearance trigger), with diverted/restored counts |
//! | `guard_violation` | an observe-mode invariant guard recorded a violation instead of panicking |
//!
//! ## Determinism / passivity contract
//!
//! The recorder is **strictly passive**. Instruments read only
//! deterministic simulation state, draw no randomness, and feed nothing
//! back into the run, so:
//!
//! - with recording **on**, scenario outcomes are bit-identical to
//!   recording-off runs, across repeats — and the event stream itself
//!   is byte-deterministic (same scenario ⇒ byte-identical
//!   [`FlightRecorder::to_jsonl`]);
//! - with recording **off** (no recorder, the default), the hot path
//!   performs no event construction and no allocation — the
//!   workspace's counting-allocator test bounds the default scenario
//!   engine's steady state.
//!
//! Wall-clock readings taken by the profiler never influence control
//! flow; they are measurements of the run, not inputs to it.
//!
//! ## Sink formats
//!
//! - [`FlightRecorder::to_jsonl`] — one hand-rolled JSON object per
//!   line (the workspace has no serialization dependency), e.g. `{"tick":184,"kind":"watchdog_activated","intersection":4}`.
//!   Keys are emitted in a fixed order; string payloads are escaped.
//! - [`render_timeline`] — a diffable plain-text timeline: one lane of
//!   bucketed phase digits per intersection (`x` while degraded, `!` at
//!   a fallback activation), over a shared disruption lane for fault
//!   windows, closures, replans, and guard violations.
//! - [`TickProfiler::table`] — a
//!   [`TextTable`](utilbp_metrics::TextTable) of per-section tick
//!   counts, mean/p50/p90/p99/max microseconds, and time share.
//!
//! The `trace` binary in `utilbp-experiments` composes all three sinks
//! into a scenario replay report; `scenarios`/`chaos` expose the same
//! plane behind `--trace`/`--profile` flags.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod event;
mod gauges;
mod profiler;
mod timeline;

pub use event::{Event, EventKind, FlightRecorder, ReplanTrigger};
pub use gauges::{GaugeId, GaugeRegistry};
pub use profiler::{PhaseStopwatch, Section, TickProfiler};
pub use timeline::render_timeline;
