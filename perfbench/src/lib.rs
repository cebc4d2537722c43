//! Engine-level benchmark of the adaptive back-pressure workspace.
//!
//! Each workload is scenario text generated from a seed, parsed with
//! `parse_scenario`, built into a `ScenarioEngine` and stepped under the
//! defaults users run (serial, exact car-following). See `README.md` in
//! this directory for the workloads, the metrics and how to run it.

pub mod timing;
pub mod workloads;

use utilbp_scenario::ScenarioEngine;

pub use workloads::{Workload, WARMUP_TICKS};

/// The seed whose outcome digests are pinned in `digests.txt`.
pub const DEFAULT_SEED: u64 = 1;

/// Vehicles on the network roads (the ledger's active vehicles minus
/// those still queued outside a boundary entry).
pub fn on_network(engine: &ScenarioEngine) -> u64 {
    engine
        .ledger()
        .active()
        .saturating_sub(engine.backlog_len()) as u64
}

/// Vehicle conservation: every active vehicle in the ledger is either on
/// a road or in the entry backlog.
pub fn conserved(engine: &ScenarioEngine) -> bool {
    let on_roads: u64 = engine
        .network()
        .topology()
        .road_ids()
        .map(|road| u64::from(engine.road_occupancy(road)))
        .sum();
    engine.ledger().active() as u64 == on_roads + engine.backlog_len() as u64
}

/// The exact-mode outcome digest: completed and generated vehicles, the
/// bits of the mean queuing time, and the entry backlog. Any change to
/// simulated behaviour changes it.
pub fn digest(engine: &ScenarioEngine) -> String {
    let outcome = engine.outcome();
    format!(
        "tick={} completed={} generated={} avg_queuing_time_bits={:#018x} backlog={}",
        engine.now().index(),
        outcome.completed,
        outcome.generated,
        outcome.avg_queuing_time_s.to_bits(),
        outcome.final_backlog,
    )
}

/// The digest pinned for `workload` on [`DEFAULT_SEED`].
pub fn pinned_digest(workload: Workload) -> Option<&'static str> {
    include_str!("../digests.txt")
        .lines()
        .filter_map(|line| line.split_once(' '))
        .find(|(name, _)| *name == workload.name())
        .map(|(_, digest)| digest.trim())
}
