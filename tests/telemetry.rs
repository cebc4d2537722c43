//! The observability-plane acceptance gates: recording is strictly
//! passive (instrumented outcomes are bit-identical to uninstrumented
//! ones), the event stream itself is byte-deterministic across
//! repeats, watchdog telemetry surfaces per-intersection, the
//! observe-mode guard stays silent on a healthy plant, and the profiler
//! times every plant section of every profiled tick on both plants.

use adaptive_backpressure::core::{SignalController, Ticks, UtilBp};
use adaptive_backpressure::scenario::{
    builtin, run_scenario, Backend, EngineConfig, ScenarioEngine, ScenarioOutcome, ScenarioSpec,
};
use adaptive_backpressure::telemetry::Section;

fn util_factory() -> impl Fn(usize) -> Box<dyn SignalController> {
    |_| Box::new(UtilBp::paper()) as Box<dyn SignalController>
}

/// A built-in trimmed to a CI-friendly horizon that still covers its
/// disruption events.
fn trimmed(name: &str, horizon: u64) -> ScenarioSpec {
    let mut spec = builtin(name).expect("builtin exists");
    spec.set_horizon(Ticks::new(horizon));
    spec
}

/// The three acceptance builtins: a fault builtin with the watchdog
/// installed, an actuation-fault window, and a closure + reopen with
/// en-route replanning.
fn acceptance_specs() -> Vec<ScenarioSpec> {
    vec![
        trimmed("grid-degraded-recovery", 400),
        trimmed("grid-actuator-fault", 350),
        trimmed("grid-incident-replan", 500),
    ]
}

/// Runs `spec` with the full observability plane on — flight recorder,
/// gauges, profiler, observe-mode guard — and returns the outcome plus
/// the JSONL event stream.
fn run_recorded(spec: &ScenarioSpec, backend: Backend) -> (ScenarioOutcome, String) {
    let config = EngineConfig::new(backend).observed();
    let mut engine =
        ScenarioEngine::new(spec.clone(), config, &util_factory()).expect("spec validates");
    engine.enable_recording(1 << 16);
    engine.enable_gauges(25);
    engine.enable_profiling();
    engine.run_to_end();
    (engine.outcome(), engine.events_jsonl())
}

/// Runs `spec` with no instrumentation at all (no recorder, no guard).
fn run_plain(spec: &ScenarioSpec, backend: Backend) -> ScenarioOutcome {
    run_scenario(spec.clone(), EngineConfig::new(backend), &util_factory()).expect("spec validates")
}

#[test]
fn recording_is_passive_and_the_event_stream_is_byte_deterministic() {
    // The tentpole contract, on all three acceptance builtins: with the
    // whole plane enabled (recorder + gauges + profiler + observe-mode
    // guard) every outcome field is bit-identical to the uninstrumented
    // run, and the JSONL stream itself is byte-identical across repeats.
    for spec in &acceptance_specs() {
        let plain = run_plain(spec, Backend::Queueing);
        let (first, jsonl_a) = run_recorded(spec, Backend::Queueing);
        let (repeat, jsonl_b) = run_recorded(spec, Backend::Queueing);
        assert_eq!(plain, first, "{}: recording must be passive", spec.name);
        assert_eq!(first, repeat, "{}: repeat outcome", spec.name);
        assert_eq!(jsonl_a, jsonl_b, "{}: repeat stream", spec.name);
        assert!(!jsonl_a.is_empty(), "{}: events were recorded", spec.name);
    }
    // And once on the microscopic substrate, with the fault builtin.
    let spec = trimmed("grid-degraded-recovery", 400);
    let plain = run_plain(&spec, Backend::Microscopic);
    let (first, jsonl_a) = run_recorded(&spec, Backend::Microscopic);
    let (repeat, jsonl_b) = run_recorded(&spec, Backend::Microscopic);
    assert_eq!(plain, first, "microsim: recording must be passive");
    assert_eq!(first, repeat, "microsim: repeat outcome");
    assert_eq!(jsonl_a, jsonl_b, "microsim: repeat stream");
}

#[test]
fn watchdog_telemetry_surfaces_per_intersection_and_in_order() {
    let spec = trimmed("grid-degraded-recovery", 400);
    let mut engine = ScenarioEngine::new(
        spec,
        EngineConfig::new(Backend::Queueing).observed(),
        &util_factory(),
    )
    .expect("spec validates");
    engine.enable_recording(1 << 16);
    engine.run_to_end();

    // Satellite: the per-intersection accessor, not just the sums. Each
    // intersection's counters are visible individually and the summed
    // accessors are exactly their totals.
    let stats = engine.watchdog_stats();
    assert_eq!(stats.len(), engine.network().topology().num_intersections());
    let activations: u64 = stats.iter().map(|s| s.activations()).sum();
    let degraded: u64 = stats.iter().map(|s| s.degraded_ticks()).sum();
    assert_eq!(activations, engine.fallback_activations());
    assert_eq!(degraded, engine.ticks_degraded());
    assert!(activations > 0, "the frozen window trips watchdogs");
    assert!(
        stats.iter().any(|s| s.activations() > 0),
        "at least one intersection shows its own activation"
    );

    // The stream tells the same story, in causal order: an activation
    // event precedes the first recovery event, and both are present.
    let jsonl = engine.events_jsonl();
    let first_activated = jsonl
        .lines()
        .position(|l| l.contains("\"watchdog_activated\""))
        .expect("activation events in the stream");
    let first_recovered = jsonl
        .lines()
        .position(|l| l.contains("\"watchdog_recovered\""))
        .expect("recovery events in the stream");
    assert!(
        first_activated < first_recovered,
        "activation precedes recovery in the stream"
    );
    // The fault window itself is in the stream, before any activation.
    let window_open = jsonl
        .lines()
        .position(|l| l.contains("\"sensor_fault_window\""))
        .expect("the fault window is an event");
    assert!(window_open < first_activated, "window opens before trips");
}

#[test]
fn observe_mode_guard_is_silent_on_a_healthy_plant() {
    // Observe mode reports violations as events instead of panicking —
    // and a healthy run under the full fault builtin produces none.
    for spec in &acceptance_specs() {
        let (_, jsonl) = run_recorded(spec, Backend::Queueing);
        assert!(
            !jsonl.contains("\"guard_violation\""),
            "{}: a healthy plant emits no guard violations",
            spec.name
        );
    }
}

#[test]
fn profiler_laps_each_plant_section_once_per_profiled_tick_on_both_backends() {
    // Both plants step through one path and lap into the same four
    // sections: every profiled tick adds exactly one lap to each, and
    // ticks stepped before profiling was enabled add none. The decide
    // calls are counted over the same ticks.
    let spec = trimmed("grid-incident-replan", 120);
    for backend in [Backend::Queueing, Backend::Microscopic] {
        let mut engine =
            ScenarioEngine::new(spec.clone(), EngineConfig::new(backend), &util_factory())
                .expect("spec validates");
        for _ in 0..20 {
            engine.step();
        }
        engine.enable_profiling();
        engine.run_to_end();
        let profiler = engine.profiler().expect("profiling enabled");
        for section in [
            Section::Decide,
            Section::CarFollowing,
            Section::Landings,
            Section::Waiting,
        ] {
            let stats = profiler.stats(section);
            assert_eq!(stats.count(), 100, "{backend:?}: {section:?} laps");
            assert!(
                stats.max().is_some_and(|max| max > 0.0),
                "{backend:?}: {section:?} measured time"
            );
        }
        // The decide phase calls at most every controller each tick.
        let controllers = engine.network().topology().num_intersections() as f64;
        let calls = profiler.decide_calls_per_tick().expect("decide laps");
        assert!(
            calls > 0.0 && calls <= controllers,
            "{backend:?}: {calls} decide calls per tick"
        );
    }
}
