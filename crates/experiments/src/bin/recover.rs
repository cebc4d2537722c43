//! Runs the crash-recovery drill and prints the verdict table.
//!
//! ```text
//! recover                              # grid-degraded-recovery, queueing, torn write
//! recover --scenario paper-grid        # any builtin scenario
//! recover --backend microscopic        # the other substrate
//! recover --kill 233                   # crash at a specific tick (0 = 5/8 horizon)
//! recover --period 32                  # checkpoint cadence
//! recover --corrupt flip               # damage mode: none|torn|flip
//! recover --artifacts DIR              # write golden/resumed JSONL + outcome tables
//! ```
//!
//! The drill kills a run at the crash tick, damages the newest checkpoint
//! as configured, verifies integrity validation rejects the damage, falls
//! back to the newest valid checkpoint, fast-forwards, and **exits
//! non-zero unless the recovered run is byte-identical to an
//! uninterrupted one** — same outcome, byte-equal telemetry JSONL. With
//! `--artifacts` the compared artifacts are written out for CI upload.

use utilbp_experiments::{render_outcome, run_recovery, Corruption, RecoveryConfig};
use utilbp_scenario::{builtin, Backend, EngineConfig};

fn main() {
    if let Err(message) = run() {
        eprintln!("recover: {message}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), String> {
    let mut scenario = "grid-degraded-recovery".to_string();
    let mut backend = Backend::Queueing;
    let mut config = RecoveryConfig::default();
    let mut artifacts: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| {
            iter.next()
                .map(|v| v.to_string())
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--scenario" => scenario = value("--scenario")?,
            "--backend" => {
                backend = match value("--backend")?.as_str() {
                    "queueing" => Backend::Queueing,
                    "microscopic" => Backend::Microscopic,
                    other => {
                        return Err(format!("unknown backend `{other}` (queueing|microscopic)"))
                    }
                };
            }
            "--kill" => {
                config.kill_tick = value("--kill")?
                    .parse()
                    .map_err(|e| format!("--kill: {e}"))?;
            }
            "--period" => {
                config.period = value("--period")?
                    .parse()
                    .map_err(|e| format!("--period: {e}"))?;
            }
            "--corrupt" => config.corruption = Corruption::parse(&value("--corrupt")?)?,
            "--artifacts" => artifacts = Some(value("--artifacts")?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }

    eprintln!(
        "drilling {scenario} on {backend}: kill at {}, period {}, damage {:?}…",
        if config.kill_tick == 0 {
            "5/8 horizon".to_string()
        } else {
            format!("tick {}", config.kill_tick)
        },
        config.period,
        config.corruption
    );
    let spec = builtin(&scenario).ok_or_else(|| format!("unknown scenario `{scenario}`"))?;
    let report = run_recovery(spec, EngineConfig::new(backend), &config)?;
    let outcome_table = render_outcome(&report.outcome);
    println!("{}", report.render());
    println!();
    println!("{outcome_table}");

    if let Some(dir) = artifacts {
        let dir = std::path::Path::new(&dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("--artifacts {}: {e}", dir.display()))?;
        let write = |name: &str, contents: &str| {
            std::fs::write(dir.join(name), contents).map_err(|e| format!("writing {name}: {e}"))
        };
        write("recovery_report.txt", &report.render())?;
        write("outcome_resumed.txt", &outcome_table)?;
        write("events_golden.jsonl", &report.golden_jsonl)?;
        write("events_resumed.jsonl", &report.jsonl)?;
        eprintln!("artifacts written to {}", dir.display());
    }
    Ok(())
}
