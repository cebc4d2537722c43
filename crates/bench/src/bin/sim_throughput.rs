//! Plain `--release` throughput runner for the perf-tracking harness.
//!
//! Measures steady-state simulator step throughput (ticks/second) per
//! substrate × workload under UTIL-BP control and writes the
//! machine-readable `BENCH_sim_throughput.json`
//! (`cargo run --release -p utilbp-bench --bin sim_throughput`).
//!
//! Workloads: square grids (3×3 … 20×20, Pattern I demand) plus
//! scenario-driven rows (the built-in `arterial-rush-hour`,
//! `grid-incident-replan`, and `grid-congestion-replan` scenarios stepped
//! through `ScenarioEngine`, so demand scheduling, event dispatch, and —
//! for the replanning rows — the closure-diversion and periodic
//! congestion-replanning paths are inside the measured run, the
//! `grid-degraded-recovery` / `grid-degraded-recovery+recorder` pair
//! measures the flight recorder's off/on cost on a busy event stream,
//! and the `grid-degraded-recovery+ckpt256` row prices the durable
//! state plane's periodic full-engine checkpoint captures).
//! Every simulator is built through `utilbp-substrate`'s shared
//! constructor
//! and stepped through the `TrafficSubstrate` trait, exactly like the
//! production callers. Grid rows also record a per-phase wall-clock
//! breakdown (decide / car-following / landings / waiting, via the
//! trait's step with a `TickProfiler` attached, on a separate rep) so
//! future optimization PRs can attribute their wins.
//!
//! Each invocation **appends** a run object to the JSON's `runs` array —
//! the perf trajectory across PRs is preserved, never overwritten. The
//! runner uses a fixed warm-up + measured-tick protocol
//! (best of `BENCH_REPS` repetitions, default 3, to shrug off scheduler
//! noise) and always emits JSON, which makes its numbers directly
//! comparable between commits. Scale knobs:
//! `BENCH_TICKS=<n>` overrides the measured tick count, `BENCH_REPS=<n>`
//! the repetition count (each a positive integer, or the run exits 1
//! naming the variable), `BENCH_OUT=<path>` the output path,
//! `BENCH_LABEL=<s>` the run label recorded in the protocol.

use std::time::Instant;

use utilbp_bench::positive_count;
use utilbp_bench::trajectory::{append_run, render_run, Measurement};
use utilbp_core::{SignalController, Tick, Ticks, UtilBp};
use utilbp_microsim::MicroSimConfig;
use utilbp_netgen::{
    DemandConfig, DemandGenerator, DemandSchedule, GridNetwork, GridSpec, Pattern,
};
use utilbp_scenario::{
    build_substrate, builtin, Backend, CheckpointPolicy, EngineConfig, ScenarioEngine,
};
use utilbp_substrate::StepReport;
use utilbp_telemetry::TickProfiler;

const WARMUP_TICKS: u64 = 300;

fn controllers(n: usize) -> Vec<Box<dyn SignalController>> {
    (0..n)
        .map(|_| Box::new(UtilBp::paper()) as Box<dyn SignalController>)
        .collect()
}

fn demand(grid: &GridNetwork) -> DemandGenerator {
    DemandGenerator::new(
        grid,
        DemandConfig::new(DemandSchedule::constant(
            Pattern::I,
            Ticks::new(u64::MAX / 2),
        )),
        7,
    )
}

/// Grid workload on either backend, built through the shared substrate
/// constructor and stepped through the `TrafficSubstrate` trait. One
/// extra instrumented rep attributes time to the step's phases (kept out
/// of the headline measurement so the `Instant` reads cannot skew it).
fn measure_grid(backend: Backend, size: u32, ticks: u64, reps: u32) -> Measurement {
    let grid = GridNetwork::new(GridSpec::with_size(size, size));
    let n = grid.topology().num_intersections();
    let mut sim = build_substrate(
        backend,
        grid.topology().clone(),
        controllers(n),
        MicroSimConfig::default(),
    );
    let mut gen = demand(&grid);
    let mut k = 0u64;
    let mut report = StepReport::empty();
    let mut arrivals = Vec::new();
    for _ in 0..WARMUP_TICKS {
        arrivals.clear();
        gen.poll_into(&grid, Tick::new(k), &mut arrivals);
        sim.step_into(&mut arrivals, &mut report, None);
        k += 1;
    }
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..ticks {
            arrivals.clear();
            gen.poll_into(&grid, Tick::new(k), &mut arrivals);
            sim.step_into(&mut arrivals, &mut report, None);
            k += 1;
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    let mut phases = TickProfiler::new();
    for _ in 0..ticks {
        arrivals.clear();
        gen.poll_into(&grid, Tick::new(k), &mut arrivals);
        sim.step_into(&mut arrivals, &mut report, Some(&mut phases));
        k += 1;
    }
    Measurement {
        substrate: backend.name(),
        workload: format!("{size}x{size}"),
        ticks,
        seconds: best,
        phases: Some(phases),
    }
}

/// Scenario-driven row: the whole per-tick path of a scenario run —
/// event dispatch, schedule-driven demand, stepping, and (for scenarios
/// that enable it) en-route replanning — measured through
/// [`ScenarioEngine`].
///
/// The flight recorder can be attached, so the trajectory file documents
/// both sides of the telemetry contract: the recording-off row is the
/// default engine (no recorder, every emission site gated on one
/// `None` test — cost ≈ 0) and the `+recorder` row runs the same
/// scenario with a live ring-buffer recorder.
///
/// An optional periodic checkpoint policy documents the durability
/// plane's price: the `+ckpt<period>` row serializes the engine's full
/// state (plant, controllers, demand, telemetry watermarks) into a
/// checksummed snapshot every `period` ticks inside the measured window;
/// the delta to the plain row, divided by the captures in the window, is
/// the per-checkpoint cost. Checkpoint-off rows go through the same
/// engine with the policy `None` — one branch on a `Copy` option per
/// tick — so their numbers stay comparable with pre-durability runs.
fn measure_scenario(
    name: &str,
    backend: Backend,
    ticks: u64,
    reps: u32,
    recording: bool,
    checkpoint: Option<u64>,
) -> Measurement {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let mut spec = builtin(name).expect("built-in scenario exists");
        // The engine is throughput-bound here, not horizon-bound; events
        // the new horizon no longer covers are dropped with it (a closure
        // whose reopening is dropped simply stays closed).
        spec.set_horizon(Ticks::new(WARMUP_TICKS + ticks + 1));
        let mut engine = ScenarioEngine::new(spec, EngineConfig::new(backend), &|_| {
            Box::new(UtilBp::paper())
        })
        .expect("built-in scenario validates");
        if recording {
            engine.enable_recording(1 << 16);
        }
        if let Some(period) = checkpoint {
            engine.enable_checkpoints(CheckpointPolicy::every(period));
        }
        for _ in 0..WARMUP_TICKS {
            engine.step();
        }
        let start = Instant::now();
        for _ in 0..ticks {
            engine.step();
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    let mut workload = name.to_string();
    if recording {
        workload.push_str("+recorder");
    }
    if let Some(period) = checkpoint {
        workload.push_str(&format!("+ckpt{period}"));
    }
    Measurement {
        substrate: backend.name(),
        workload,
        ticks,
        seconds: best,
        phases: None,
    }
}

/// The environment's value of the count knob `name`.
fn count_knob<T>(name: &str) -> Result<Option<T>, String>
where
    T: std::str::FromStr + PartialEq + From<u8>,
{
    positive_count(name, std::env::var(name).ok().as_deref())
}

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("sim_throughput: unknown flag `{arg}`");
        std::process::exit(1);
    }
    let (tick_override, reps) = match (
        count_knob::<u64>("BENCH_TICKS"),
        count_knob::<u32>("BENCH_REPS"),
    ) {
        (Ok(ticks), Ok(reps)) => (ticks, reps.unwrap_or(3)),
        (Err(why), _) | (_, Err(why)) => {
            eprintln!("sim_throughput: {why}");
            std::process::exit(1);
        }
    };
    let label = std::env::var("BENCH_LABEL").unwrap_or_else(|_| "dev".to_string());
    let out_path =
        std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_sim_throughput.json".to_string());

    // Measured ticks scale down with grid size so the whole run stays in
    // the low minutes; throughput is steady-state, so fewer ticks on the
    // big grids do not bias the rate.
    let plan: &[(u32, u64, u64)] = &[
        // (grid size, queueing ticks, microscopic ticks)
        (3, 4000, 2000),
        (5, 2000, 800),
        (10, 600, 200),
        (20, 200, 60),
    ];

    let mut results = Vec::new();
    for &(size, q_ticks, m_ticks) in plan {
        for (backend, ticks) in [
            (Backend::Queueing, q_ticks),
            (Backend::Microscopic, m_ticks),
        ] {
            let m = measure_grid(backend, size, tick_override.unwrap_or(ticks), reps);
            eprintln!(
                "{:<11} {size:>2}x{size:<2}: {:>10.1} ticks/s",
                m.substrate,
                m.ticks_per_sec()
            );
            results.push(m);
        }
    }
    // `grid-incident-replan` keeps the closure-replanning machinery in
    // the measured path (the closure fires during warm-up, so the
    // measured window steps a network whose traffic was diverted en
    // route); `grid-congestion-replan` keeps the periodic
    // congestion-monitor path in it (each period snapshots occupancy and
    // replans around congested roads mid-measurement).
    for scenario_name in [
        "arterial-rush-hour",
        "grid-incident-replan",
        "grid-congestion-replan",
    ] {
        for backend in [Backend::Queueing, Backend::Microscopic] {
            let ticks = tick_override.unwrap_or(match backend {
                Backend::Queueing => 2000,
                Backend::Microscopic => 600,
            });
            let s = measure_scenario(scenario_name, backend, ticks, reps, false, None);
            eprintln!(
                "{:<11} {scenario_name}: {:>10.1} ticks/s",
                s.substrate,
                s.ticks_per_sec()
            );
            results.push(s);
        }
    }
    // The telemetry overhead pair: the watchdog builtin (a busy event
    // stream — fault window, activations, recoveries, phase switches)
    // with recording off and on. The off row is the zero-cost-when-off
    // claim in the trajectory; the delta to the on row is the full price
    // of a live flight recorder.
    for backend in [Backend::Queueing, Backend::Microscopic] {
        let ticks = tick_override.unwrap_or(match backend {
            Backend::Queueing => 2000,
            Backend::Microscopic => 600,
        });
        for recording in [false, true] {
            let s = measure_scenario(
                "grid-degraded-recovery",
                backend,
                ticks,
                reps,
                recording,
                None,
            );
            eprintln!(
                "{:<11} {}: {:>10.1} ticks/s",
                s.substrate,
                s.workload,
                s.ticks_per_sec()
            );
            results.push(s);
        }
        // Durability cost row: same scenario with periodic checkpointing
        // (period 256, the durable-cadence default used by the recovery
        // drill's long runs). The delta to the plain off row, divided by
        // the ~ticks/256 captures inside the measured window, is the
        // per-checkpoint price of serializing the full engine snapshot.
        let s = measure_scenario(
            "grid-degraded-recovery",
            backend,
            ticks,
            reps,
            false,
            Some(256),
        );
        eprintln!(
            "{:<11} {}: {:>10.1} ticks/s",
            s.substrate,
            s.workload,
            s.ticks_per_sec()
        );
        results.push(s);
    }

    let new_run = render_run(&results, WARMUP_TICKS, reps, &label);
    let existing = std::fs::read_to_string(&out_path).ok();
    let json = append_run(existing, &new_run);
    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    println!("appended run \"{label}\" to {out_path}");
}
