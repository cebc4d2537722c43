//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, a
//! JSON object with the correctness tally and the metrics: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The generated scenario text and the result line are also
//! written under `.bench_results/`, so a run can be replayed. See
//! `README.md` in this directory.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use utilbp_core::{SignalController, UtilBp};
use utilbp_perfbench::timing::{clock_cost_ns, median, DecideProbe};
use utilbp_perfbench::{
    conserved, digest, on_network, pinned_digest, Workload, DEFAULT_SEED, WARMUP_TICKS,
};
use utilbp_scenario::{parse_scenario, Backend, ScenarioEngine, ScenarioSpec};
use utilbp_snapshot::crc32;
use utilbp_telemetry::Section;

/// Engine constructions before each episode; `setup_s` is their median
/// over the run.
const SETUPS_PER_EPISODE: usize = 9;
/// Restores of the end-of-episode capture after each episode;
/// `restore_ms` is their median over the run.
const RESTORES_PER_EPISODE: usize = 3;
/// Constructions and restores the traced run times for `scenario.*_ms`
/// and `snapshot.restore_ms`.
const TRACED_REPS: usize = 21;
/// Ticks per timed chunk of an episode: `ticks_per_s` sums each chunk's
/// fastest time over the run's episodes.
const CHUNK_TICKS: u64 = 1_000;
/// Ticks both the original and the restored engine step in the resume
/// check.
const RESUME_TICKS: u64 = 300;
/// Where runs leave their scenario text and result line.
const RESULTS_DIR: &str = ".bench_results";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = 10;
        let mut trace = false;
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::from_name(&value).ok_or_else(|| {
                        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                        format!("unknown workload `{value}` (one of {})", names.join(", "))
                    })?);
                }
                "--seed" => seed = number()?,
                "--seconds" => seconds = number()?.max(1),
                "--trace" => trace = number()? != 0,
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// The correctness tally: every check is one attempted op.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }
}

/// Metrics in output order: name, value, unit.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

/// What one run steps: the workload, its scenario, and the tick plan.
struct Plan {
    workload: Workload,
    text: String,
    spec: ScenarioSpec,
    seconds: u64,
    /// Whether the outcome digest is compared with the pinned one (on
    /// the default seed).
    pinned: bool,
}

fn paper_controller(_: usize) -> Box<dyn SignalController> {
    Box::new(UtilBp::paper())
}

/// `f`'s value and its wall-clock seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// `part / whole`, or 0 when there is no whole (a layer the workload
/// does not run).
fn per(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Peak resident set (`VmHWM`) of this process, MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Steps `engine` through one episode with `tick`, checking
/// conservation after every chunk of [`CHUNK_TICKS`] ticks; returns the
/// wall-clock seconds of each chunk.
fn episode(
    plan: &Plan,
    engine: &mut ScenarioEngine,
    checks: &mut Checks,
    mut tick: impl FnMut(&mut ScenarioEngine),
) -> Vec<f64> {
    let mut chunks = Vec::new();
    let mut left = plan.workload.episode_ticks();
    while left > 0 {
        let chunk = left.min(CHUNK_TICKS);
        let ((), seconds) = timed(|| {
            for _ in 0..chunk {
                tick(engine);
            }
        });
        chunks.push(seconds);
        left -= chunk;
        checks.check(conserved(engine), || {
            format!("vehicle conservation at tick {}", engine.now().index())
        });
    }
    chunks
}

/// Restores `capture`, pushing the wall-clock milliseconds it took onto
/// `millis`.
fn restore(plan: &Plan, capture: &[u8], millis: &mut Vec<f64>) -> Result<ScenarioEngine, String> {
    let config = plan.workload.config();
    let (engine, seconds) = timed(|| ScenarioEngine::restore(capture, config, &paper_controller));
    millis.push(seconds * 1e3);
    engine.map_err(|e| format!("restore failed: {e}"))
}

/// Builds the workload's engine from its scenario text, pushing the
/// wall-clock seconds it took onto `seconds`.
fn setup(plan: &Plan, seconds: &mut Vec<f64>) -> Result<ScenarioEngine, String> {
    let (engine, took) = timed(|| {
        parse_scenario(&plan.text)
            .and_then(|spec| plan.workload.engine(spec, true, &paper_controller))
    });
    seconds.push(took);
    engine
}

/// The untraced run: the end-to-end metrics and the correctness ops.
/// Returns the median episode's rate in ticks per second.
fn untraced(plan: &Plan, checks: &mut Checks, metrics: &mut Metrics) -> Result<f64, String> {
    let mut setups = Vec::new();
    let mut engine = setup(plan, &mut setups)?;
    for _ in 0..WARMUP_TICKS {
        engine.step();
    }
    let digest = digest(&engine);
    eprintln!("perfbench: {} {digest}", plan.workload.name());
    if plan.pinned {
        let pinned = pinned_digest(plan.workload);
        checks.check(pinned == Some(digest.as_str()), || {
            format!("outcome digest differs from the pinned {pinned:?}")
        });
    }

    // Every episode resumes the warmed-up state, so a run measures the
    // same ticks however many episodes fit in its time. Other tenants of
    // a shared host slow some chunks and not others; the fastest of each
    // chunk over the episodes is the engine's own speed on those ticks.
    // Set-up and restore are sampled between episodes, so their medians
    // span the whole run too.
    let warm = engine.checkpoint();
    drop(engine);
    let mut best: Vec<f64> = Vec::new();
    let mut episodes = Vec::new();
    let mut restores = Vec::new();
    let mut peak_rss = None;
    let mut first_capture: Option<Vec<u8>> = None;
    let start = Instant::now();
    let (mut engine, capture, mut restored) = loop {
        for _ in 0..SETUPS_PER_EPISODE {
            setup(plan, &mut setups)?;
        }
        let mut engine = ScenarioEngine::restore(&warm, plan.workload.config(), &paper_controller)
            .map_err(|e| format!("restoring the warm state failed: {e}"))?;
        let chunks = episode(plan, &mut engine, checks, ScenarioEngine::step);
        episodes.push(chunks.iter().sum::<f64>());
        if best.is_empty() {
            best = chunks;
        } else {
            best.iter_mut().zip(chunks).for_each(|(b, c)| *b = b.min(c));
        }
        let capture = engine.checkpoint();
        let mut restored = None;
        for _ in 0..RESTORES_PER_EPISODE {
            restored = Some(restore(plan, &capture, &mut restores)?);
        }
        // Read once the first episode is done, so the peak does not
        // depend on how many episodes fit in the run, and before the
        // copy kept for the check below adds to it.
        if peak_rss.is_none() {
            peak_rss = Some(peak_rss_mib()?);
        }
        match &first_capture {
            None => first_capture = Some(capture.clone()),
            Some(first) => checks.check(*first == capture, || {
                "episodes resumed from one warm state end in different states".to_string()
            }),
        }
        if start.elapsed().as_secs_f64() >= plan.seconds as f64 {
            break (engine, capture, restored.expect("RESTORES_PER_EPISODE > 0"));
        }
    };
    let ticks = plan.workload.episode_ticks() as f64;
    let ticks_per_s = ticks / best.iter().sum::<f64>();

    checks.check(restored.checkpoint() == capture, || {
        "the restored engine re-captures different bytes".to_string()
    });
    for _ in 0..RESUME_TICKS {
        engine.step();
        restored.step();
    }
    checks.check(engine.outcome() == restored.outcome(), || {
        format!(
            "resumed outcome {:?} differs from the uninterrupted {:?}",
            restored.outcome(),
            engine.outcome()
        )
    });

    metrics.put("ticks_per_s", ticks_per_s, "1/s");
    metrics.put("setup_s", median(&mut setups), "s");
    metrics.put("restore_ms", median(&mut restores), "ms");
    metrics.put("checkpoint_bytes", capture.len() as f64, "B");
    metrics.put("peak_rss_mib", peak_rss.expect("one episode ran"), "MiB");
    Ok(ticks / median(&mut episodes))
}

/// Engine and probe counters, read before and after the traced window.
struct Counters {
    decide_calls: u64,
    decide_raw_ns: u64,
    generated: u64,
    completed: u64,
    diverted: u64,
    restored: u64,
    congestion_reroutes: u64,
    events_recorded: u64,
    events_dropped: u64,
    fallback_activations: u64,
    ticks_degraded: u64,
}

impl Counters {
    fn read(engine: &ScenarioEngine, probe: &DecideProbe) -> Counters {
        let (decide_calls, decide_raw_ns) = probe.totals();
        let recorder = engine.recorder();
        Counters {
            decide_calls,
            decide_raw_ns,
            generated: engine.demand_generated(),
            completed: engine.ledger().completed(),
            diverted: engine.vehicles_diverted(),
            restored: engine.vehicles_restored(),
            congestion_reroutes: engine.congestion_reroutes(),
            events_recorded: recorder.map_or(0, |r| r.recorded()),
            events_dropped: recorder.map_or(0, |r| r.dropped()),
            fallback_activations: engine.fallback_activations(),
            ticks_degraded: engine.ticks_degraded(),
        }
    }
}

/// Checkpoints taken in the traced window.
#[derive(Default)]
struct Captures {
    count: u64,
    bytes: u64,
    seconds: f64,
    /// The share of `seconds` spent in captures the workload's periodic
    /// policy makes (part of its ticks), as opposed to probe captures.
    periodic_seconds: f64,
    /// `(completed vehicles, capture bytes)` at the first and last capture.
    first: Option<(u64, u64)>,
    last: Option<(u64, u64)>,
}

impl Captures {
    fn take(&mut self, engine: &ScenarioEngine, periodic: bool) -> Vec<u8> {
        let (bytes, seconds) = timed(|| {
            let bytes = engine.checkpoint();
            // A policy capture also checksums the bytes for the
            // `checkpoint` event when the engine records.
            if periodic && engine.recorder().is_some() {
                black_box(crc32(&bytes));
            }
            bytes
        });
        self.count += 1;
        self.bytes += bytes.len() as u64;
        self.seconds += seconds;
        if periodic {
            self.periodic_seconds += seconds;
        }
        let point = (engine.ledger().completed(), bytes.len() as u64);
        self.first.get_or_insert(point);
        self.last = Some(point);
        bytes
    }

    /// Capture growth per vehicle completed between the first and last
    /// capture, bytes.
    fn bytes_per_completed(&self) -> f64 {
        match (self.first, self.last) {
            (Some((c0, b0)), Some((c1, b1))) if c1 > c0 => {
                (b1 as f64 - b0 as f64) / (c1 - c0) as f64
            }
            _ => 0.0,
        }
    }
}

/// The traced run: the same plan, timed from outside at every public
/// boundary, giving the per-layer metrics.
fn traced(
    plan: &Plan,
    untraced_rate: f64,
    checks: &mut Checks,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let mut parse_ms = Vec::with_capacity(TRACED_REPS);
    let mut build_ms = Vec::with_capacity(TRACED_REPS);
    for _ in 0..TRACED_REPS {
        let (spec, parse_s) = timed(|| parse_scenario(&plan.text));
        let (engine, build_s) = timed(|| plan.workload.engine(spec?, true, &paper_controller));
        engine?;
        parse_ms.push(parse_s * 1e3);
        build_ms.push(build_s * 1e3);
    }

    let clock_ns = clock_cost_ns();
    let probe = DecideProbe::default();
    let factory = |_: usize| probe.wrap(Box::new(UtilBp::paper()));
    // Periodic captures are made explicitly below, so they can be timed.
    let mut engine = plan.workload.engine(plan.spec.clone(), false, &factory)?;
    for _ in 0..WARMUP_TICKS {
        engine.step();
    }
    engine.enable_profiling();
    let before = Counters::read(&engine, &probe);
    let period = plan.workload.checkpoint_period();
    let ticks = plan.workload.episode_ticks();
    let halfway = engine.now().index() + ticks / 2;
    let mut captures = Captures::default();
    let mut retained = VecDeque::new();
    let mut step_s = 0.0;
    let mut vehicle_ticks = 0u64;
    let chunks = episode(plan, &mut engine, checks, |engine| {
        let now = engine.now().index();
        match period {
            Some(period) if now % period == 0 => {
                // The engine's policy keeps the newest four captures.
                retained.push_back(captures.take(engine, true));
                if retained.len() > 4 {
                    retained.pop_front();
                }
            }
            // Without a periodic policy, one probe capture halfway gives
            // the capture growth per completed vehicle.
            None if now == halfway => {
                captures.take(engine, false);
            }
            _ => {}
        }
        let ((), seconds) = timed(|| engine.step());
        step_s += seconds;
        vehicle_ticks += on_network(engine);
    });
    let after = Counters::read(&engine, &probe);
    let end_capture = captures.take(&engine, false);
    let mut restore_ms = Vec::with_capacity(TRACED_REPS);
    for _ in 0..TRACED_REPS {
        restore(plan, &end_capture, &mut restore_ms)?;
    }
    let mut jsonl_ms = Vec::new();
    let mut jsonl_bytes = 0;
    for _ in 0..3 {
        let (jsonl, seconds) = timed(|| engine.events_jsonl());
        jsonl_ms.push(seconds * 1e3);
        jsonl_bytes = jsonl.len();
    }

    let profiler = engine.profiler().expect("profiling enabled");
    let section_s = |s: Section| {
        let stats = profiler.stats(s);
        stats.mean() * stats.count() as f64 / 1e6
    };
    let laps = |s: Section| profiler.stats(s).count() as f64;
    let ticks = ticks as f64;
    let traced_rate = ticks / chunks.iter().sum::<f64>();
    let tick_s = step_s + captures.periodic_seconds;
    let sections_s =
        Section::ALL.into_iter().map(section_s).sum::<f64>() + captures.periodic_seconds;
    let self_s = tick_s - sections_s;
    checks.check(sections_s <= tick_s * 1.05, || {
        format!("section times {sections_s} s exceed the step total {tick_s} s by over 5%")
    });
    let calls = (after.decide_calls - before.decide_calls) as f64;
    let raw_ns = (after.decide_raw_ns - before.decide_raw_ns) as f64;
    // Each timed call reads one clock inside its interval and one
    // outside it: the calibrated decide time drops the first, and the
    // decorator's whole footprint inside the decide section adds the
    // second.
    let decide_ns = raw_ns - calls * clock_ns;
    let decorator_ns = raw_ns + calls * clock_ns;
    let intersections = engine.network().topology().num_intersections() as f64;
    let delta = |f: fn(&Counters) -> u64| (f(&after) - f(&before)) as f64;
    let micro = plan.workload.backend() == Backend::Microscopic;
    let on = |yes: bool, value: f64| if yes { value } else { 0.0 };
    let ns = 1e9;

    let car_following_s = section_s(Section::CarFollowing);
    let landings_s = section_s(Section::Landings);
    let waiting_s = section_s(Section::Waiting);
    metrics.put(
        "microsim.car_following_ns_per_vehicle_tick",
        on(micro, per(car_following_s * ns, vehicle_ticks as f64)),
        "ns",
    );
    metrics.put(
        "microsim.car_following_share",
        on(micro, car_following_s / tick_s),
        "ratio",
    );
    metrics.put(
        "microsim.landings_ns_per_tick",
        on(micro, landings_s * ns / ticks),
        "ns",
    );
    metrics.put(
        "microsim.insert_report_ns_per_tick",
        on(micro, waiting_s * ns / ticks),
        "ns",
    );
    metrics.put("core.decide_calls", calls, "count");
    metrics.put("core.decide_ns_per_call", per(decide_ns, calls), "ns");
    metrics.put("core.decide_share", decide_ns / (tick_s * ns), "ratio");
    metrics.put(
        "substrate.sense_ns_per_intersection_tick",
        (section_s(Section::Decide) * ns - decorator_ns) / (intersections * ticks),
        "ns",
    );
    metrics.put(
        "queueing.serve_ns_per_tick",
        on(!micro, car_following_s * ns / ticks),
        "ns",
    );
    metrics.put(
        "queueing.transit_ns_per_tick",
        on(!micro, landings_s * ns / ticks),
        "ns",
    );
    metrics.put(
        "queueing.inject_ns_per_tick",
        on(!micro, waiting_s * ns / ticks),
        "ns",
    );
    metrics.put(
        "snapshot.capture_ms",
        captures.seconds * 1e3 / captures.count as f64,
        "ms",
    );
    metrics.put(
        "snapshot.bytes_per_capture",
        captures.bytes as f64 / captures.count as f64,
        "B",
    );
    metrics.put("snapshot.captures", captures.count as f64, "count");
    metrics.put(
        "snapshot.capture_share",
        captures.periodic_seconds / tick_s,
        "ratio",
    );
    metrics.put("snapshot.restore_ms", median(&mut restore_ms), "ms");
    metrics.put(
        "metrics.bytes_per_completed_vehicle",
        captures.bytes_per_completed(),
        "B/vehicle",
    );
    let passes = laps(Section::Replan);
    let checks_run = laps(Section::Monitor);
    metrics.put("netgen.replan_passes", passes, "count");
    metrics.put(
        "netgen.replan_us_per_pass",
        per(section_s(Section::Replan) * 1e6, passes),
        "us",
    );
    metrics.put("netgen.diverted", delta(|c| c.diverted), "count");
    metrics.put("netgen.restored", delta(|c| c.restored), "count");
    metrics.put(
        "netgen.diverted_per_pass",
        per(
            delta(|c| c.diverted) - delta(|c| c.congestion_reroutes),
            passes,
        ),
        "count",
    );
    metrics.put("scenario.congestion_checks", checks_run, "count");
    metrics.put(
        "scenario.monitor_us_per_check",
        per(section_s(Section::Monitor) * 1e6, checks_run),
        "us",
    );
    metrics.put(
        "telemetry.events_recorded",
        delta(|c| c.events_recorded),
        "count",
    );
    metrics.put(
        "telemetry.events_dropped",
        delta(|c| c.events_dropped),
        "count",
    );
    metrics.put("telemetry.jsonl_ms", median(&mut jsonl_ms), "ms");
    metrics.put("telemetry.jsonl_bytes", jsonl_bytes as f64, "B");
    metrics.put(
        "controllers.fallback_activations",
        delta(|c| c.fallback_activations),
        "count",
    );
    metrics.put(
        "controllers.ticks_degraded",
        delta(|c| c.ticks_degraded),
        "count",
    );
    metrics.put("scenario.step_ns", tick_s * ns / ticks, "ns");
    metrics.put("scenario.self_ns", self_s * ns / ticks, "ns");
    metrics.put("scenario.vehicle_ticks", vehicle_ticks as f64, "count");
    metrics.put(
        "scenario.ns_per_vehicle_tick",
        per(tick_s * ns, vehicle_ticks as f64),
        "ns",
    );
    metrics.put("scenario.arrivals", delta(|c| c.generated), "count");
    metrics.put("scenario.completions", delta(|c| c.completed), "count");
    metrics.put("scenario.backlog_end", engine.backlog_len() as f64, "count");
    metrics.put("scenario.parse_ms", median(&mut parse_ms), "ms");
    metrics.put("scenario.build_ms", median(&mut build_ms), "ms");
    metrics.put("trace.overhead", untraced_rate / traced_rate, "ratio");
    Ok(())
}

/// The result line: the correctness tally and every metric.
fn result_json(checks: &Checks, metrics: &Metrics) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.failed == 0,
        checks.attempted,
        checks.failed
    );
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    Ok(out)
}

fn run(args: &Args) -> Result<String, String> {
    let workload = args.workload;
    let horizon = WARMUP_TICKS + workload.episode_ticks() + RESUME_TICKS;
    let text = workload.scenario_text(args.seed, horizon);
    let spec = parse_scenario(&text)?;
    let mut checks = Checks::default();
    checks.check(
        parse_scenario(&spec.to_text()).as_ref() == Ok(&spec),
        || "parse_scenario(to_text(spec)) does not round-trip".to_string(),
    );

    std::fs::create_dir_all(RESULTS_DIR).map_err(|e| format!("creating {RESULTS_DIR}: {e}"))?;
    let stem = format!(
        "{RESULTS_DIR}/{}-seed{}-trace{}",
        workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    std::fs::write(format!("{stem}.scenario"), &text)
        .map_err(|e| format!("writing {stem}.scenario: {e}"))?;

    let plan = Plan {
        workload,
        text,
        spec,
        seconds: args.seconds,
        pinned: args.seed == DEFAULT_SEED,
    };
    let mut metrics = Metrics::default();
    let rate = untraced(&plan, &mut checks, &mut metrics)?;
    if args.trace {
        metrics = Metrics::default();
        traced(&plan, rate, &mut checks, &mut metrics)?;
    }
    let line = result_json(&checks, &metrics)?;
    std::fs::write(format!("{stem}.json"), format!("{line}\n"))
        .map_err(|e| format!("writing {stem}.json: {e}"))?;
    Ok(line)
}

fn main() -> ExitCode {
    let result = Args::parse().and_then(|args| run(&args));
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}
