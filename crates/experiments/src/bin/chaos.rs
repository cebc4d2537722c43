//! Runs the deterministic chaos harness and prints the resilience table.
//!
//! ```text
//! chaos                        # 20 timelines per backend, both backends
//! chaos --timelines 5          # fewer timelines (CI smoke)
//! chaos --horizon 160          # shorter timelines
//! chaos --seed 7               # a different timeline family
//! chaos --backend queueing     # one substrate (queueing|microscopic)
//! chaos --trace                # append a flight-recorder replay of timeline 0
//! chaos --trace --profile      # …with the tick-section profile table
//! ```
//!
//! Every simulation runs with the invariant guard installed; any
//! conservation, sensor-consistency, or closed-road violation panics
//! with a tick-stamped diagnostic. Property failures the harness can
//! report gracefully (repeat-run or recovered-run divergence,
//! degradation bound breach) print a one-line diagnostic and exit 1.

use utilbp_experiments::{
    chaos_timeline, run_chaos, run_trace, ChaosConfig, ControllerKind, TraceOptions,
};
use utilbp_scenario::Backend;

fn main() {
    if let Err(message) = run() {
        eprintln!("chaos: {message}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), String> {
    let mut config = ChaosConfig::default();
    let mut trace = false;
    let mut profile = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| {
            iter.next()
                .map(|v| v.to_string())
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--timelines" => {
                config.timelines = value("--timelines")?
                    .parse()
                    .map_err(|e| format!("--timelines: {e}"))?;
            }
            "--horizon" => {
                config.horizon = value("--horizon")?
                    .parse()
                    .map_err(|e| format!("--horizon: {e}"))?;
            }
            "--seed" => {
                config.master_seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--trace" => trace = true,
            "--profile" => {
                trace = true;
                profile = true;
            }
            "--backend" => {
                config.backends = vec![match value("--backend")?.as_str() {
                    "queueing" => Backend::Queueing,
                    "microscopic" => Backend::Microscopic,
                    other => {
                        return Err(format!("unknown backend `{other}` (queueing|microscopic)"))
                    }
                }];
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if config.timelines == 0 {
        return Err("--timelines must be at least 1".to_string());
    }
    if config.horizon < 40 {
        return Err("--horizon must be at least 40".to_string());
    }

    eprintln!(
        "running {} timeline(s) × {} backend(s), horizon {}, seed {}…",
        config.timelines,
        config.backends.len(),
        config.horizon,
        config.master_seed
    );
    let report = run_chaos(&config)?;
    println!(
        "Chaos resilience — {} timelines, {} fallback activation(s)",
        config.timelines,
        report.total_activations()
    );
    println!();
    println!("{}", report.render());

    if trace {
        // Opt-in appendix: replay timeline 0 (with the watchdog
        // installed, as the harness runs it) under the flight recorder.
        // The replay uses the guard's observe mode — violations become
        // events in the stream — while the harness proper keeps the
        // panicking guard above.
        for &backend in &config.backends {
            let mut spec = chaos_timeline(config.master_seed, 0, config.horizon);
            spec.watchdog = Some(utilbp_baselines::WatchdogConfig::default());
            let options = TraceOptions {
                backend,
                profile,
                ..TraceOptions::default()
            };
            let report = run_trace(spec, &options, &|_| ControllerKind::UtilBp.build())?;
            println!();
            println!("{}", report.render());
        }
    }
    Ok(())
}
