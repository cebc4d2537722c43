//! Operator-facing error paths of the `scenarios`, `chaos`, and `trace`
//! binaries and of the `UTILBP_*` environment the paper binaries read:
//! bad input gets a one-line stderr diagnostic and a non-zero exit, never
//! a panic (no `RUST_BACKTRACE` noise, no abort).

use std::process::{Command, Output};

fn scenarios(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scenarios"))
        .args(args)
        .output()
        .expect("binary spawns")
}

fn chaos(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_chaos"))
        .args(args)
        .output()
        .expect("binary spawns")
}

fn trace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trace"))
        .args(args)
        .output()
        .expect("binary spawns")
}

/// A paper binary run with one `UTILBP_*` variable set.
fn with_env(binary: &str, var: &str, value: &str) -> Output {
    Command::new(binary)
        .env(var, value)
        .output()
        .expect("binary spawns")
}

/// The failure contract: exit code 1, a single-line diagnostic on stderr
/// with the binary's name prefix, and no panic markers.
fn assert_clean_failure(output: &Output, binary: &str, needle: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(
        output.status.code(),
        Some(1),
        "exit code 1, not a panic abort: {stderr}"
    );
    assert!(
        stderr.contains(&format!("{binary}: ")),
        "diagnostic carries the binary name: {stderr}"
    );
    assert!(stderr.contains(needle), "diagnostic says why: {stderr}");
    assert!(
        !stderr.contains("panicked"),
        "user errors never panic: {stderr}"
    );
}

#[test]
fn scenarios_rejects_an_unknown_flag() {
    assert_clean_failure(
        &scenarios(&["--frobnicate"]),
        "scenarios",
        "unknown flag `--frobnicate`",
    );
}

#[test]
fn scenarios_rejects_an_unknown_builtin() {
    assert_clean_failure(
        &scenarios(&["--builtin", "no-such-scenario"]),
        "scenarios",
        "no built-in scenario `no-such-scenario`",
    );
}

#[test]
fn scenarios_rejects_a_missing_flag_value() {
    assert_clean_failure(
        &scenarios(&["--builtin"]),
        "scenarios",
        "--builtin needs a scenario name",
    );
}

#[test]
fn scenarios_rejects_the_removed_fidelity_option() {
    // The microscopic plant has one car-following contract, so neither
    // the flag nor the scenario directive exists.
    assert_clean_failure(
        &scenarios(&["--fidelity", "batched"]),
        "scenarios",
        "unknown flag `--fidelity`",
    );
    let path = std::env::temp_dir().join("utilbp-cli-errors-fidelity.scn");
    std::fs::write(
        &path,
        "scenario x\nhorizon 10\ntopology grid\nfidelity batched\n",
    )
    .expect("temp file writes");
    let output = scenarios(&[path.to_str().expect("utf-8 temp path")]);
    std::fs::remove_file(&path).ok();
    assert_clean_failure(&output, "scenarios", "line 4: unknown directive `fidelity`");
}

#[test]
fn scenarios_rejects_an_unreadable_file() {
    assert_clean_failure(
        &scenarios(&["/no/such/dir/missing.scn"]),
        "scenarios",
        "cannot read /no/such/dir/missing.scn",
    );
}

#[test]
fn scenarios_rejects_a_malformed_scenario_file() {
    let path = std::env::temp_dir().join("utilbp-cli-errors-malformed.scn");
    std::fs::write(&path, "scenario broken\nnot-a-directive yes\n").expect("temp file writes");
    let output = scenarios(&[path.to_str().expect("utf-8 temp path")]);
    std::fs::remove_file(&path).ok();
    assert_clean_failure(&output, "scenarios", "");
}

#[test]
fn scenarios_rejects_mixing_builtins_and_files() {
    assert_clean_failure(
        &scenarios(&["--builtin", "paper-grid", "whatever.scn"]),
        "scenarios",
        "not both",
    );
}

#[test]
fn trace_rejects_bad_arguments() {
    assert_clean_failure(
        &trace(&["--frobnicate"]),
        "trace",
        "unknown flag `--frobnicate`",
    );
    assert_clean_failure(&trace(&["--builtin"]), "trace", "--builtin needs a value");
    assert_clean_failure(
        &trace(&[]),
        "trace",
        "pass a scenario: --builtin NAME or a scenario file",
    );
    assert_clean_failure(
        &trace(&["--builtin", "no-such-scenario"]),
        "trace",
        "no built-in scenario `no-such-scenario`",
    );
    assert_clean_failure(
        &trace(&["--builtin", "paper-grid", "whatever.scn"]),
        "trace",
        "not both",
    );
    assert_clean_failure(
        &trace(&["one.scn", "two.scn"]),
        "trace",
        "exactly one scenario file",
    );
    assert_clean_failure(
        &trace(&["/no/such/dir/missing.scn"]),
        "trace",
        "cannot read /no/such/dir/missing.scn",
    );
    assert_clean_failure(
        &trace(&["--builtin", "paper-grid", "--capacity", "0"]),
        "trace",
        "--capacity must be at least 1",
    );
    assert_clean_failure(
        &trace(&["--builtin", "paper-grid", "--every", "0"]),
        "trace",
        "--every must be at least 1",
    );
    assert_clean_failure(
        &trace(&["--builtin", "paper-grid", "--backend", "imaginary"]),
        "trace",
        "unknown backend `imaginary`",
    );
}

#[test]
fn trace_rejects_a_degenerate_topology_instead_of_panicking() {
    // The parameter is checked before any network is built.
    let path = std::env::temp_dir().join("utilbp-cli-errors-zero-rows.scn");
    std::fs::write(&path, "scenario empty\nhorizon 50\ntopology grid rows=0\n")
        .expect("temp file writes");
    let output = trace(&[path.to_str().expect("utf-8 temp path")]);
    std::fs::remove_file(&path).ok();
    assert_clean_failure(
        &output,
        "trace",
        "line 3: topology grid: rows must be at least 1",
    );
}

#[test]
fn chaos_rejects_bad_arguments() {
    assert_clean_failure(&chaos(&["--frobnicate"]), "chaos", "unknown flag");
    assert_clean_failure(
        &chaos(&["--timelines"]),
        "chaos",
        "--timelines needs a value",
    );
    assert_clean_failure(&chaos(&["--timelines", "zero"]), "chaos", "--timelines");
    assert_clean_failure(&chaos(&["--timelines", "0"]), "chaos", "at least 1");
    assert_clean_failure(&chaos(&["--horizon", "10"]), "chaos", "at least 40");
    assert_clean_failure(
        &chaos(&["--backend", "imaginary"]),
        "chaos",
        "unknown backend `imaginary`",
    );
}

#[test]
fn experiment_binaries_reject_malformed_environment_values() {
    assert_clean_failure(
        &with_env(env!("CARGO_BIN_EXE_table3"), "UTILBP_BACKEND", "queuing"),
        "table3",
        "UTILBP_BACKEND: unknown backend `queuing`",
    );
    assert_clean_failure(
        &with_env(env!("CARGO_BIN_EXE_fig2"), "UTILBP_HOUR", "abc"),
        "fig2",
        "UTILBP_HOUR: expected a positive number of seconds, got `abc`",
    );
    assert_clean_failure(
        &with_env(env!("CARGO_BIN_EXE_ablations"), "UTILBP_HOUR", "0"),
        "ablations",
        "UTILBP_HOUR: expected a positive number of seconds, got `0`",
    );
    assert_clean_failure(
        &with_env(env!("CARGO_BIN_EXE_all"), "UTILBP_SEED", "-1"),
        "all",
        "UTILBP_SEED: expected a non-negative integer, got `-1`",
    );
}
