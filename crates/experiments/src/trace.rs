//! Scenario replay with the flight recorder on: the observability
//! report behind the `trace` binary and the `--trace`/`--profile` flags
//! of `chaos`.
//!
//! [`run_trace`] replays one [`ScenarioSpec`] with every telemetry
//! instrument installed — a `utilbp-telemetry` flight recorder, the
//! gauge registry, optionally the tick-section profiler — and the
//! invariant guard in **observe** mode, so guard near-misses become
//! `guard_violation` events instead of aborting the replay. Recording
//! is strictly passive: the replayed outcome is bit-identical to an
//! uninstrumented run of the same spec.

use utilbp_core::{SignalController, Ticks};
use utilbp_metrics::{ascii_chart, TimeSeries};
use utilbp_scenario::{Backend, EngineConfig, ScenarioEngine, ScenarioOutcome, ScenarioSpec};
use utilbp_telemetry::{render_timeline, Event};

/// How to replay a scenario under the flight recorder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceOptions {
    /// The substrate to replay on.
    pub backend: Backend,
    /// Whether to run the tick-section profiler too.
    pub profile: bool,
    /// Flight-recorder ring-buffer capacity (events retained).
    pub capacity: usize,
    /// Gauge sampling cadence in ticks.
    pub gauge_every: u64,
    /// Cap the scenario horizon at this many ticks (`None` = full run).
    pub horizon_cap: Option<u64>,
    /// Timeline / chart width in columns.
    pub width: usize,
    /// Capture a durable checkpoint every this many ticks (`None` = no
    /// checkpointing). Captures surface as `checkpoint` events — `o`
    /// marks in the timeline's faults lane — carrying the snapshot's
    /// size and CRC.
    pub checkpoint_every: Option<u64>,
}

impl Default for TraceOptions {
    fn default() -> Self {
        TraceOptions {
            backend: Backend::Queueing,
            profile: false,
            capacity: 4096,
            gauge_every: 25,
            horizon_cap: None,
            width: 72,
            checkpoint_every: None,
        }
    }
}

/// Everything [`run_trace`] renders from one replay.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// The replayed scenario's aggregate outcome (bit-identical to an
    /// uninstrumented run).
    pub(crate) outcome: ScenarioOutcome,
    /// The per-intersection phases × faults × fallbacks timeline.
    pub(crate) timeline: String,
    /// The retained event stream as JSON Lines (byte-deterministic).
    pub(crate) events_jsonl: String,
    /// The rendered profile table and the decide calls per tick, when
    /// profiling was requested.
    pub(crate) profile_table: Option<String>,
    /// An ascii chart of the backlog / congested-set gauges.
    pub(crate) gauge_chart: String,
    /// Events accepted by the recorder over the replay.
    pub(crate) recorded: u64,
    /// Events evicted from the ring buffer (0 when `capacity` held
    /// the whole stream).
    pub(crate) dropped: u64,
}

/// Replays `spec` with recording on and renders the observability
/// report. `make_controller(i)` produces the controller of
/// intersection `i`, exactly as in [`ScenarioEngine::new`].
///
/// # Errors
///
/// Returns the validation message if the spec is inconsistent with its
/// own network.
pub fn run_trace(
    spec: ScenarioSpec,
    options: &TraceOptions,
    make_controller: &dyn Fn(usize) -> Box<dyn SignalController>,
) -> Result<TraceReport, String> {
    let mut spec = spec;
    if let Some(cap) = options.horizon_cap {
        if spec.horizon.count() > cap {
            spec.set_horizon(Ticks::new(cap));
        }
    }
    let config = EngineConfig::new(options.backend).observed();
    let mut engine = ScenarioEngine::new(spec, config, make_controller)?;
    engine.enable_recording(options.capacity);
    engine.enable_gauges(options.gauge_every);
    if let Some(period) = options.checkpoint_every {
        engine.enable_checkpoints(utilbp_scenario::CheckpointPolicy::every(period));
    }
    if options.profile {
        engine.enable_profiling();
    }
    engine.run_to_end();

    let recorder = engine.recorder().expect("flight recorder installed");
    let events: Vec<Event> = recorder.events().cloned().collect();
    let (recorded, dropped) = (recorder.recorded(), recorder.dropped());
    let intersections = engine.network().topology().num_intersections();
    let horizon = engine.spec().horizon.count();
    let timeline = render_timeline(&events, intersections, horizon, options.width);
    // Chart the two run-level gauges (backlog depth, congested-set
    // size); the per-intersection and per-road series stay available
    // through the engine for custom sinks.
    let series = engine.gauge_series();
    let picks: Vec<&TimeSeries> = series.iter().take(2).collect();
    let gauge_chart = ascii_chart(&picks, options.width, 10);
    Ok(TraceReport {
        outcome: engine.outcome(),
        timeline,
        events_jsonl: engine.events_jsonl(),
        profile_table: engine.profiler().map(|p| {
            let calls = p.decide_calls_per_tick().unwrap_or(0.0);
            format!(
                "{}decide calls per tick: {calls:.1} of {intersections} controllers\n",
                p.table().render()
            )
        }),
        gauge_chart,
        recorded,
        dropped,
    })
}

impl TraceReport {
    /// Renders the full report: outcome header, timeline, gauges,
    /// profile (when present), and the JSONL event stream.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "# trace: {} on {} — {} generated, {} completed, {} fallback activation(s), \
             avg queuing {:.1}s\n",
            self.outcome.scenario,
            self.outcome.backend,
            self.outcome.generated,
            self.outcome.completed,
            self.outcome.fallback_activations,
            self.outcome.avg_queuing_time_s,
        ));
        out.push_str(&format!(
            "# events recorded: {} (dropped from ring buffer: {})\n",
            self.recorded, self.dropped
        ));
        out.push_str("\n## timeline\n");
        out.push_str(&self.timeline);
        out.push_str("\n## gauges\n");
        out.push_str(&self.gauge_chart);
        if let Some(profile) = &self.profile_table {
            out.push_str("\n## profile\n");
            out.push_str(profile);
        }
        out.push_str("\n## events\n");
        out.push_str(&self.events_jsonl);
        out
    }
}
