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
//! production drivers. Microscopic grid rows also record a per-phase
//! wall-clock breakdown (decide / car-following / landings / waiting,
//! via the trait's timed step on a separate rep) so future optimization
//! PRs can attribute their wins.
//!
//! Each invocation **appends** a run object to the JSON's `runs` array —
//! the perf trajectory across PRs is preserved, never overwritten (a
//! pre-existing single-run file from the old flat format is migrated to
//! `runs[0]`). Unlike the Criterion `sim_throughput` bench target, this
//! runner has no harness dependency, uses a fixed warm-up +
//! measured-tick protocol (best of `BENCH_REPS` repetitions, default 3,
//! to shrug off scheduler noise), and always emits JSON, which makes its
//! numbers directly comparable between commits. Scale knobs:
//! `BENCH_TICKS=<n>` overrides the measured tick count, `BENCH_REPS=<n>`
//! the repetition count, `BENCH_OUT=<path>` the output path,
//! `BENCH_LABEL=<s>` the run label recorded in the protocol.
//!
//! Microscopic grid rows are measured under **both** car-following
//! contracts — the exact sequential Krauss update and the batched kernel
//! (`+batched` workload suffix) — so every run carries its own
//! exact/batched speedup pair. `--fidelity exact|batched` additionally
//! retargets the scenario-driven rows (suffixing their workloads), so any
//! builtin can be priced under the batched kernel.

use std::time::Instant;

use utilbp_bench::trajectory::{append_run, render_run, Measurement};
use utilbp_core::{SignalController, Tick, Ticks, UtilBp};
use utilbp_microsim::{Fidelity, MicroSimConfig, PhaseTimings};
use utilbp_netgen::{
    DemandConfig, DemandGenerator, DemandSchedule, GridNetwork, GridSpec, Pattern,
};
use utilbp_scenario::{builtin, Backend, CheckpointPolicy, EngineConfig, ScenarioEngine};
use utilbp_substrate::{build_substrate, SubstrateScratch};

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
/// constructor and stepped through the `TrafficSubstrate` trait.
/// Microscopic rows add one instrumented rep for phase attribution
/// (kept out of the headline measurement so the `Instant` reads cannot
/// skew it); the queueing substrate has no phase breakdown.
fn measure_grid(
    backend: Backend,
    size: u32,
    fidelity: Fidelity,
    ticks: u64,
    reps: u32,
) -> Measurement {
    let grid = GridNetwork::new(GridSpec::with_size(size, size));
    let n = grid.topology().num_intersections();
    let mut sim = build_substrate(
        backend,
        grid.topology().clone(),
        controllers(n),
        MicroSimConfig {
            fidelity,
            ..MicroSimConfig::default()
        },
    );
    let mut gen = demand(&grid);
    let mut k = 0u64;
    let mut scratch = SubstrateScratch::new();
    let mut arrivals = Vec::new();
    for _ in 0..WARMUP_TICKS {
        arrivals.clear();
        gen.poll_into(&grid, Tick::new(k), &mut arrivals);
        sim.step_into(&mut arrivals, &mut scratch);
        k += 1;
    }
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        for _ in 0..ticks {
            arrivals.clear();
            gen.poll_into(&grid, Tick::new(k), &mut arrivals);
            sim.step_into(&mut arrivals, &mut scratch);
            k += 1;
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    let phases = match backend {
        Backend::Queueing => None,
        Backend::Microscopic => {
            let mut phases = PhaseTimings::default();
            for _ in 0..ticks {
                arrivals.clear();
                gen.poll_into(&grid, Tick::new(k), &mut arrivals);
                sim.step_into_timed(&mut arrivals, &mut scratch, &mut phases);
                k += 1;
            }
            Some(phases)
        }
    };
    let mut workload = format!("{size}x{size}");
    if fidelity == Fidelity::Batched {
        workload.push_str("+batched");
    }
    Measurement {
        substrate: backend.name(),
        workload,
        ticks,
        seconds: best,
        phases,
    }
}

/// The microscopic exact/batched pair for one grid row, measured with
/// the reps *interleaved*: both sims are built and warmed first, then
/// each rep times an exact window immediately followed by a batched
/// window, and each side keeps its best. On a shared box, throughput
/// drifts by tens of percent across a run (see the PR 5 / PR 9 bench
/// notes) — sequential rows sample different drift windows and the
/// comparison inherits the drift. Interleaving puts both contracts in
/// the same windows, so the pairwise ratio is trustworthy even when the
/// absolute numbers wobble.
fn measure_grid_fidelity_pair(size: u32, ticks: u64, reps: u32) -> (Measurement, Measurement) {
    let grid = GridNetwork::new(GridSpec::with_size(size, size));
    let n = grid.topology().num_intersections();
    let build = |fidelity| {
        (
            build_substrate(
                Backend::Microscopic,
                grid.topology().clone(),
                controllers(n),
                MicroSimConfig {
                    fidelity,
                    ..MicroSimConfig::default()
                },
            ),
            demand(&grid),
            0u64,
        )
    };
    let mut pair = [build(Fidelity::Exact), build(Fidelity::Batched)];
    let mut scratch = SubstrateScratch::new();
    let mut arrivals = Vec::new();
    for (sim, gen, k) in pair.iter_mut() {
        for _ in 0..WARMUP_TICKS {
            arrivals.clear();
            gen.poll_into(&grid, Tick::new(*k), &mut arrivals);
            sim.step_into(&mut arrivals, &mut scratch);
            *k += 1;
        }
    }
    let mut best = [f64::INFINITY; 2];
    for _ in 0..reps.max(1) {
        for (i, (sim, gen, k)) in pair.iter_mut().enumerate() {
            let start = Instant::now();
            for _ in 0..ticks {
                arrivals.clear();
                gen.poll_into(&grid, Tick::new(*k), &mut arrivals);
                sim.step_into(&mut arrivals, &mut scratch);
                *k += 1;
            }
            best[i] = best[i].min(start.elapsed().as_secs_f64());
        }
    }
    let measurements = pair.iter_mut().zip(best).map(|((sim, gen, k), best)| {
        let mut phases = PhaseTimings::default();
        for _ in 0..ticks {
            arrivals.clear();
            gen.poll_into(&grid, Tick::new(*k), &mut arrivals);
            sim.step_into_timed(&mut arrivals, &mut scratch, &mut phases);
            *k += 1;
        }
        (best, phases)
    });
    let mut out = Vec::new();
    for (i, (seconds, phases)) in measurements.enumerate() {
        let mut workload = format!("{size}x{size}");
        if i == 1 {
            workload.push_str("+batched");
        }
        out.push(Measurement {
            substrate: Backend::Microscopic.name(),
            workload,
            ticks,
            seconds,
            phases: Some(phases),
        });
    }
    let batched = out.pop().expect("two rows");
    let exact = out.pop().expect("two rows");
    (exact, batched)
}

/// Scenario-driven row: the whole per-tick path of a scenario run —
/// event dispatch, schedule-driven demand, stepping, and (for scenarios
/// that enable it) en-route replanning — measured through
/// [`ScenarioEngine`].
fn measure_scenario(
    name: &str,
    backend: Backend,
    fidelity: Fidelity,
    ticks: u64,
    reps: u32,
) -> Measurement {
    measure_scenario_instrumented(name, backend, fidelity, ticks, reps, false, None)
}

/// Scenario row with the flight recorder optionally attached, so the
/// trajectory file documents both sides of the telemetry contract: the
/// recording-off row is the default engine (`NullRecorder`, every
/// emission site gated on one cached bool — cost ≈ 0) and the `+recorder`
/// row runs the same scenario with a live ring-buffer recorder.
fn measure_scenario_recorded(
    name: &str,
    backend: Backend,
    fidelity: Fidelity,
    ticks: u64,
    reps: u32,
    recording: bool,
) -> Measurement {
    measure_scenario_instrumented(name, backend, fidelity, ticks, reps, recording, None)
}

/// Scenario row with optional recording and an optional periodic
/// checkpoint policy, so the trajectory file documents the durability
/// plane's price: the `+ckpt<period>` row serializes the engine's full
/// state (plant, controllers, demand, telemetry watermarks) into a
/// checksummed snapshot every `period` ticks inside the measured window;
/// the delta to the plain row, divided by the captures in the window, is
/// the per-checkpoint cost. Checkpoint-off rows go through the same
/// engine with the policy `None` — one branch on a `Copy` option per
/// tick — so their numbers stay comparable with pre-durability runs.
fn measure_scenario_instrumented(
    name: &str,
    backend: Backend,
    fidelity: Fidelity,
    ticks: u64,
    reps: u32,
    recording: bool,
    checkpoint: Option<u64>,
) -> Measurement {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let mut spec = builtin(name).expect("built-in scenario exists");
        // The engine is throughput-bound here, not horizon-bound; events
        // the new horizon no longer covers are dropped with it (a closure
        // whose reopening is dropped simply stays closed).
        spec.set_horizon(Ticks::new(WARMUP_TICKS + ticks + 1));
        spec.fidelity = fidelity;
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
    if fidelity == Fidelity::Batched {
        workload.push_str("+batched");
    }
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

fn main() {
    // `--fidelity exact|batched` retargets the *scenario-driven* rows (so
    // any builtin can be priced under the batched kernel); the grid rows
    // always emit both fidelities — the exact/batched pair in one run is
    // the kernel's headline comparison.
    let mut scenario_fidelity = Fidelity::Exact;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fidelity" => {
                scenario_fidelity = match args.next().as_deref() {
                    Some("exact") => Fidelity::Exact,
                    Some("batched") => Fidelity::Batched,
                    Some(other) => {
                        eprintln!("sim_throughput: unknown fidelity `{other}` (exact|batched)");
                        std::process::exit(1);
                    }
                    None => {
                        eprintln!("sim_throughput: --fidelity needs exact|batched");
                        std::process::exit(1);
                    }
                };
            }
            other => {
                eprintln!("sim_throughput: unknown flag `{other}`");
                std::process::exit(1);
            }
        }
    }
    let tick_override = std::env::var("BENCH_TICKS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok());
    let reps = std::env::var("BENCH_REPS")
        .ok()
        .and_then(|v| v.parse::<u32>().ok())
        .unwrap_or(3)
        .max(1);
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
        let q = measure_grid(
            Backend::Queueing,
            size,
            Fidelity::Exact,
            tick_override.unwrap_or(q_ticks),
            reps,
        );
        eprintln!(
            "queueing    {size:>2}x{size:<2}: {:>10.1} ticks/s",
            q.ticks_per_sec()
        );
        results.push(q);
        // Both car-following contracts on every microscopic grid row,
        // reps interleaved across the pair so shared-box drift cancels
        // out of the exact/batched ratio.
        let (exact, batched) =
            measure_grid_fidelity_pair(size, tick_override.unwrap_or(m_ticks), reps);
        for m in [exact, batched] {
            eprintln!(
                "microscopic {:<13}: {:>10.1} ticks/s",
                m.workload,
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
            let s = measure_scenario(scenario_name, backend, scenario_fidelity, ticks, reps);
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
            let s = measure_scenario_recorded(
                "grid-degraded-recovery",
                backend,
                scenario_fidelity,
                ticks,
                reps,
                recording,
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
        let s = measure_scenario_instrumented(
            "grid-degraded-recovery",
            backend,
            scenario_fidelity,
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
