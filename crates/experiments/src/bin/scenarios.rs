//! Runs scenario specs across controllers on both substrates and prints a
//! comparison table.
//!
//! ```text
//! scenarios                    # the whole built-in library, both backends
//! scenarios --smoke            # one small built-in per backend (CI smoke)
//! scenarios --builtin NAME ... # selected built-ins by name
//! scenarios file.scn ...       # scenario files in the text format
//! ```
//!
//! To replay one of them with the flight recorder on, run the `trace`
//! binary on the same built-in name or file.
//!
//! Env: `UTILBP_QUICK=1` caps every horizon at 300 ticks.
//!
//! Results are bit-identical across repeats (the substrate determinism
//! contract); CI diffs two runs of this binary's output.
//!
//! Every operator-facing failure — an unknown flag, a missing built-in,
//! an unreadable or malformed scenario file — prints a one-line
//! diagnostic to stderr and exits non-zero; the binary never panics on
//! bad input.

use utilbp_experiments::{scenario_comparison, Backend, ControllerKind};
use utilbp_scenario::{builtin, builtin_scenarios, parse_scenario, ScenarioSpec};

fn main() {
    if let Err(message) = run() {
        eprintln!("scenarios: {message}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let mut files: Vec<&String> = Vec::new();
    let mut builtins: Vec<ScenarioSpec> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--smoke" => {}
            "--builtin" => {
                let name = iter
                    .next()
                    .ok_or_else(|| "--builtin needs a scenario name".to_string())?;
                builtins
                    .push(builtin(name).ok_or_else(|| format!("no built-in scenario `{name}`"))?);
            }
            other if other.starts_with("--") => return Err(format!("unknown flag `{other}`")),
            _ => files.push(arg),
        }
    }

    if !builtins.is_empty() && !files.is_empty() {
        return Err("pass either --builtin names or scenario files, not both".to_string());
    }
    let mut specs: Vec<ScenarioSpec> = if !builtins.is_empty() {
        builtins
    } else if files.is_empty() {
        builtin_scenarios()
    } else {
        let mut specs = Vec::new();
        for path in files {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let spec = parse_scenario(&text).map_err(|e| format!("{path}: {e}"))?;
            spec.validate().map_err(|e| format!("{path}: {e}"))?;
            specs.push(spec);
        }
        specs
    };

    let mut horizon_cap = None;
    if std::env::var("UTILBP_QUICK").is_ok_and(|v| v == "1") {
        horizon_cap = Some(300);
    }
    if smoke {
        // One small scenario, trimmed hard: the job only checks that the
        // engine drives both substrates end to end.
        specs.truncate(1);
        horizon_cap = Some(horizon_cap.unwrap_or(300).min(200));
    }

    let controllers = [
        ControllerKind::UtilBp,
        ControllerKind::CapBp { period: 16 },
        ControllerKind::FixedTime { period: 20 },
    ];
    let backends = [Backend::Queueing, Backend::Microscopic];

    eprintln!(
        "running {} scenario(s) × {} backend(s) × {} controller(s)…",
        specs.len(),
        backends.len(),
        controllers.len()
    );
    let comparison = scenario_comparison(&specs, &backends, &controllers, horizon_cap);
    if comparison.rows.is_empty() {
        return Err("scenario sweep produced no rows".to_string());
    }
    for row in &comparison.rows {
        if !row.outcomes.iter().all(|o| o.generated > 0) {
            return Err(format!(
                "scenario {} on {} generated no vehicles",
                row.spec.name, row.backend
            ));
        }
    }

    println!("Scenario comparison — mean queuing time (completed/generated)");
    println!();
    println!("{}", comparison.render());
    Ok(())
}
