//! Load-regime self-test: each workload must stay in the regime its
//! benchmark figures are read against. Saturated and sub-critical loads
//! stress different layers, so a demand or routing change that moved a
//! workload across the capacity boundary would silently change what the
//! benchmark measures; these tests make it fail loudly instead.
//!
//! The tests step the same ticks the benchmark does (warm-up plus one
//! episode), so they are only run in optimized builds:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use utilbp_core::UtilBp;
use utilbp_perfbench::{on_network, Workload, DEFAULT_SEED, WARMUP_TICKS};
use utilbp_scenario::{parse_scenario, ScenarioEngine};

/// The state at one sampled tick.
struct Sample {
    backlog: usize,
    /// Queuing-time numerator and denominator of the engine's mean:
    /// total waited seconds and vehicles counted, completed or active.
    waited_s: f64,
    vehicles: f64,
    /// Vehicles on the network, summed over every tick since the last
    /// sample.
    fleet_ticks: u64,
}

/// Steps `workload` through its warm-up, then samples at the start, the
/// middle and the end of one episode.
fn run(workload: Workload, seed: u64) -> [Sample; 3] {
    let horizon = WARMUP_TICKS + workload.episode_ticks();
    let spec =
        parse_scenario(&workload.scenario_text(seed, horizon)).expect("generated text parses");
    let mut engine = workload
        .engine(spec, false, &|_| Box::new(UtilBp::paper()))
        .expect("generated spec is valid");
    for _ in 0..WARMUP_TICKS {
        engine.step();
    }
    let sample = |engine: &ScenarioEngine, fleet_ticks| {
        let ledger = engine.ledger();
        let vehicles = (ledger.completed() + ledger.active() as u64) as f64;
        Sample {
            backlog: engine.backlog_len(),
            waited_s: engine.outcome().avg_queuing_time_s * vehicles,
            vehicles,
            fleet_ticks,
        }
    };
    let start = sample(&engine, 0);
    let half = |engine: &mut ScenarioEngine| {
        let mut fleet = 0;
        for _ in 0..workload.episode_ticks() / 2 {
            engine.step();
            fleet += on_network(engine);
        }
        sample(engine, fleet)
    };
    let middle = half(&mut engine);
    let end = half(&mut engine);
    [start, middle, end]
}

/// Mean queuing time of the vehicles counted between two samples.
fn queuing_s(from: &Sample, to: &Sample) -> f64 {
    (to.waited_s - from.waited_s) / (to.vehicles - from.vehicles)
}

/// Bounded backlog and a mean queuing time that moves less than
/// `tolerance` (a share) between the two halves of the episode.
fn assert_sub_critical(workload: Workload, tolerance: f64) {
    for seed in [DEFAULT_SEED, 2] {
        let [start, middle, end] = run(workload, seed);
        let first = queuing_s(&start, &middle);
        let second = queuing_s(&middle, &end);
        let drift = (second - first).abs() / first;
        assert!(
            drift < tolerance,
            "{} seed {seed}: mean queuing time drifts {first:.1} s -> {second:.1} s",
            workload.name()
        );
        let arrivals_per_half = (end.vehicles - middle.vehicles).max(1.0);
        assert!(
            (end.backlog as f64) < 0.02 * arrivals_per_half && end.backlog <= middle.backlog + 50,
            "{} seed {seed}: entry backlog grows {} -> {} -> {}",
            workload.name(),
            start.backlog,
            middle.backlog,
            end.backlog
        );
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "steps a full episode; run with --release")]
fn grid20_queueing_is_sub_critical() {
    assert_sub_critical(Workload::Grid20Queueing, 0.1);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "steps a full episode; run with --release")]
fn grid5_incident_ops_is_stationary() {
    // Each half holds six surge and closure cycles on seed-chosen roads,
    // so the halves differ more than on a constant load.
    assert_sub_critical(Workload::Grid5IncidentOps, 0.2);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "steps a full episode; run with --release")]
fn grid10_saturated_holds_a_flat_fleet_over_a_growing_backlog() {
    let workload = Workload::Grid10Saturated;
    for seed in [DEFAULT_SEED, 2] {
        let [start, middle, end] = run(workload, seed);
        let half = (workload.episode_ticks() / 2) as f64;
        let first = middle.fleet_ticks as f64 / half;
        let second = end.fleet_ticks as f64 / half;
        assert!(
            (second - first).abs() / first < 0.05,
            "seed {seed}: on-network fleet drifts {first:.0} -> {second:.0}"
        );
        assert!(
            start.backlog < middle.backlog && middle.backlog < end.backlog,
            "seed {seed}: the entry backlog must keep growing at saturation ({} -> {} -> {})",
            start.backlog,
            middle.backlog,
            end.backlog
        );
    }
}
