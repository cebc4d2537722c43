//! The crash-recovery harness: kill a run at an adversarial tick,
//! simulate torn or corrupted checkpoint writes, verify that integrity
//! validation rejects the damage, fall back to the newest *valid*
//! checkpoint, fast-forward to the horizon, and gate the whole drill on
//! **byte-identity** with an uninterrupted golden run — same
//! [`ScenarioOutcome`], byte-equal telemetry JSONL.
//!
//! The drill models the full durability story end to end:
//!
//! 1. **Golden** — the scenario runs uninterrupted with the flight
//!    recorder and a periodic [`CheckpointPolicy`] installed; its outcome
//!    and event JSONL are the oracle.
//! 2. **Crash** — a second, identical run is killed at `kill_tick`
//!    (default: 5/8 of the horizon, inside the builtins' fault windows).
//!    Its retained checkpoint ring plays the role of the on-disk
//!    checkpoint directory.
//! 3. **Damage** — the newest "file" suffers a [`Corruption`]: a torn
//!    write (prefix only) or a flipped bit. Checksum/structure validation
//!    must reject it with a typed error — never a panic, never a silent
//!    acceptance.
//! 4. **Recover** — the drill walks the store newest first, restores
//!    the first checkpoint that passes validation, and reports how many
//!    damaged candidates were rejected on the way.
//! 5. **Fast-forward & verify** — the restored engine runs to the
//!    horizon. Anything short of byte-identity with the golden is a
//!    harness failure, not a warning.
//!
//! Everything is deterministic: the same config produces the same drill,
//! the same damage, and the same verdict. [`run_recovery`] takes any
//! [`ScenarioSpec`] and [`EngineConfig`]: the `recover` binary drills a
//! built-in, and the chaos harness drills each of its fault timelines
//! under the panicking invariant guard.
//!
//! [`ScenarioOutcome`]: utilbp_scenario::ScenarioOutcome

use utilbp_core::SignalController;
use utilbp_core::Tick;
use utilbp_metrics::TextTable;
use utilbp_scenario::{
    CheckpointPolicy, EngineConfig, ScenarioEngine, ScenarioOutcome, ScenarioSpec,
};

use crate::scenario::ControllerKind;

/// How the newest checkpoint "on disk" is damaged before recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// The write completed cleanly — recovery resumes from the newest
    /// capture and rejects nothing.
    None,
    /// A torn write: only a prefix of the bytes reached the disk (the
    /// classic crash-during-write failure).
    Torn,
    /// Silent media corruption: a single bit flipped mid-payload; the
    /// container parses structurally but the section checksum must
    /// catch it.
    BitFlip,
}

impl Corruption {
    /// Parses a CLI spelling (`none` | `torn` | `flip`).
    pub fn parse(text: &str) -> Result<Self, String> {
        match text {
            "none" => Ok(Corruption::None),
            "torn" => Ok(Corruption::Torn),
            "flip" => Ok(Corruption::BitFlip),
            other => Err(format!("unknown corruption `{other}` (none|torn|flip)")),
        }
    }

    fn label(self) -> &'static str {
        match self {
            Corruption::None => "none (clean shutdown)",
            Corruption::Torn => "torn write (truncated to 2/3)",
            Corruption::BitFlip => "bit flip (mid-payload)",
        }
    }
}

/// What one recovery drill does to a run: the checkpoint cadence, the
/// crash tick and the damage.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryConfig {
    /// Checkpoint cadence in ticks.
    pub period: u64,
    /// The crash tick; `0` picks 5/8 of the scenario's horizon.
    pub kill_tick: u64,
    /// What happens to the newest checkpoint at the crash.
    pub corruption: Corruption,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            period: 64,
            kill_tick: 0,
            corruption: Corruption::Torn,
        }
    }
}

/// The verdict of one recovery drill. Only produced when every gate
/// passed — a failed gate is a [`run_recovery`] error instead.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// The drill that ran.
    pub config: RecoveryConfig,
    /// The scenario horizon in ticks.
    pub horizon: u64,
    /// The tick the crashed run was killed at.
    pub killed_at: u64,
    /// Checkpoints in the simulated on-disk store at the crash.
    pub store_len: usize,
    /// Damaged checkpoints rejected by integrity validation during
    /// recovery (with their typed errors, newest first).
    pub rejected: Vec<String>,
    /// The tick of the checkpoint recovery resumed from.
    pub resumed_from: u64,
    /// Ticks replayed between the resume point and the horizon.
    pub fast_forwarded: u64,
    /// The resumed run's outcome (verified equal to the uninterrupted
    /// run's), which names the scenario and the backend.
    pub outcome: ScenarioOutcome,
    /// The resumed run's telemetry JSONL (verified byte-equal to the
    /// golden's).
    pub jsonl: String,
    /// The golden run's telemetry JSONL.
    pub golden_jsonl: String,
}

impl RecoveryReport {
    /// Renders the drill as a two-column fact table plus the verdict.
    pub fn render(&self) -> String {
        let mut table = TextTable::new(vec!["Recovery drill".to_string(), String::new()]);
        table.push_row(vec!["scenario".to_string(), self.outcome.scenario.clone()]);
        table.push_row(vec![
            "backend".to_string(),
            self.outcome.backend.to_string(),
        ]);
        table.push_row(vec![
            "horizon".to_string(),
            format!("{} ticks", self.horizon),
        ]);
        table.push_row(vec![
            "checkpoint period".to_string(),
            format!("{} ticks", self.config.period),
        ]);
        table.push_row(vec![
            "killed at".to_string(),
            format!("tick {}", self.killed_at),
        ]);
        table.push_row(vec![
            "store at crash".to_string(),
            format!("{} checkpoint(s)", self.store_len),
        ]);
        table.push_row(vec![
            "damage".to_string(),
            self.config.corruption.label().to_string(),
        ]);
        for (k, why) in self.rejected.iter().enumerate() {
            table.push_row(vec![format!("rejected #{}", k + 1), why.clone()]);
        }
        table.push_row(vec![
            "resumed from".to_string(),
            format!("tick {}", self.resumed_from),
        ]);
        table.push_row(vec![
            "fast-forwarded".to_string(),
            format!("{} ticks", self.fast_forwarded),
        ]);
        table.push_row(vec![
            "verdict".to_string(),
            "byte-identical to the uninterrupted run".to_string(),
        ]);
        table.render()
    }
}

/// Renders one outcome as an aligned metric table — the artifact the CI
/// recovery smoke byte-compares between the resumed and uninterrupted
/// runs.
pub fn render_outcome(outcome: &ScenarioOutcome) -> String {
    let mut table = TextTable::new(vec!["Metric".to_string(), "Value".to_string()]);
    let rows: Vec<(&str, String)> = vec![
        ("scenario", outcome.scenario.clone()),
        ("backend", outcome.backend.to_string()),
        ("generated", outcome.generated.to_string()),
        ("suppressed", outcome.suppressed.to_string()),
        ("diverted", outcome.diverted.to_string()),
        ("restored", outcome.restored.to_string()),
        ("completed", outcome.completed.to_string()),
        (
            "fallback activations",
            outcome.fallback_activations.to_string(),
        ),
        ("ticks degraded", outcome.ticks_degraded.to_string()),
        ("recovery time", format!("{:.3}", outcome.recovery_time)),
        (
            "avg queuing (s)",
            // Full bit-pattern, not a rounded display: the comparison
            // must catch even last-ulp drift.
            format!("{:.17e}", outcome.avg_queuing_time_s),
        ),
        (
            "mean journey (s)",
            format!("{:.17e}", outcome.mean_journey_s),
        ),
        ("final backlog", outcome.final_backlog.to_string()),
    ];
    for (metric, value) in rows {
        table.push_row(vec![metric.to_string(), value]);
    }
    table.render()
}

/// Walks a checkpoint store newest first, restoring the first checkpoint
/// that passes integrity validation. Returns the restored engine, the
/// tick it resumed at, and the typed rejection messages of every damaged
/// candidate skipped on the way (newest first); an error naming the last
/// rejection when *no* checkpoint in the store restores, or when the
/// store is empty.
fn recover_newest_valid(
    store: &[(Tick, Vec<u8>)],
    config: EngineConfig,
    factory: &dyn Fn(usize) -> Box<dyn SignalController>,
) -> Result<(ScenarioEngine, Tick, Vec<String>), String> {
    let mut rejected = Vec::new();
    for (tick, bytes) in store.iter().rev() {
        match ScenarioEngine::restore(bytes, config, factory) {
            Ok(engine) => return Ok((engine, *tick, rejected)),
            Err(why) => rejected.push(format!("checkpoint at tick {}: {why}", tick.index())),
        }
    }
    Err(match rejected.last() {
        Some(last) => format!("no valid checkpoint in the store ({last})"),
        None => "the checkpoint store is empty".to_string(),
    })
}

/// Applies the configured damage to the newest checkpoint in the store.
fn damage_newest(store: &mut [(Tick, Vec<u8>)], corruption: Corruption) {
    let Some((_, bytes)) = store.last_mut() else {
        return;
    };
    match corruption {
        Corruption::None => {}
        Corruption::Torn => {
            let keep = bytes.len() * 2 / 3;
            bytes.truncate(keep);
        }
        Corruption::BitFlip => {
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x08;
        }
    }
}

/// Runs one recovery drill of `spec` under `engine` end to end (see the
/// module docs for the five stages), with UTIL-BP at every intersection.
/// Every engine of the drill runs under `engine`, so a guarded config
/// watches every golden, crashed and replayed tick.
///
/// # Errors
///
/// A one-line diagnostic on the first violated gate: an invalid spec, a
/// kill tick before the first capture, damage that validation *failed*
/// to reject, an unrecoverable store, or — the headline gate — a resumed
/// run that is not byte-identical to the uninterrupted golden.
pub fn run_recovery(
    spec: ScenarioSpec,
    engine: EngineConfig,
    config: &RecoveryConfig,
) -> Result<RecoveryReport, String> {
    let horizon = spec.horizon.count();
    let kill_tick = if config.kill_tick == 0 {
        5 * horizon / 8
    } else {
        config.kill_tick
    };
    if kill_tick >= horizon {
        return Err(format!(
            "kill tick {kill_tick} is past the horizon ({horizon})"
        ));
    }
    if config.period == 0 {
        return Err("checkpoint period must be at least 1".to_string());
    }
    let factory = |_: usize| ControllerKind::UtilBp.build();
    let policy = CheckpointPolicy::every(config.period);

    // Stage 1: the golden oracle.
    let mut golden_run = ScenarioEngine::new(spec.clone(), engine, &factory)?;
    golden_run.enable_recording(512);
    golden_run.enable_checkpoints(policy);
    golden_run.run_to_end();
    let golden_outcome = golden_run.outcome();
    let golden_jsonl = golden_run.events_jsonl();

    // Stage 2: the crashed run. Its retained checkpoint ring is the
    // simulated on-disk store; the engine is dropped at the kill tick.
    let mut store: Vec<(Tick, Vec<u8>)> = {
        let mut doomed = ScenarioEngine::new(spec, engine, &factory)?;
        doomed.enable_recording(512);
        doomed.enable_checkpoints(policy);
        for _ in 0..kill_tick {
            doomed.step();
        }
        doomed.checkpoints().to_vec()
    };
    if store.is_empty() {
        return Err(format!(
            "killed at tick {kill_tick}, before the first capture (period {}) — nothing to recover",
            config.period
        ));
    }
    let store_len = store.len();

    // Stage 3: damage the newest "file".
    damage_newest(&mut store, config.corruption);

    // Stage 4: recover from the newest valid checkpoint.
    let (mut resumed, resumed_tick, rejected) = recover_newest_valid(&store, engine, &factory)?;
    match config.corruption {
        Corruption::None => {
            if !rejected.is_empty() {
                return Err(format!(
                    "clean store, yet {} checkpoint(s) were rejected: {}",
                    rejected.len(),
                    rejected.join("; ")
                ));
            }
        }
        Corruption::Torn | Corruption::BitFlip => {
            if rejected.len() != 1 {
                return Err(format!(
                    "damaged the newest checkpoint, expected exactly 1 rejection, saw {}: {}",
                    rejected.len(),
                    rejected.join("; ")
                ));
            }
            if store_len < 2 {
                return Err(
                    "damaged the only checkpoint — lengthen the run or shorten the period"
                        .to_string(),
                );
            }
        }
    }

    // Stage 5: fast-forward and gate on byte-identity.
    let fast_forwarded = horizon - resumed_tick.index();
    resumed.run_to_end();
    let outcome = resumed.outcome();
    if outcome != golden_outcome {
        return Err(format!(
            "recovered outcome diverged from the uninterrupted run\n  golden:    {golden_outcome:?}\n  recovered: {outcome:?}"
        ));
    }
    let jsonl = resumed.events_jsonl();
    if jsonl != golden_jsonl {
        let seam = golden_jsonl
            .lines()
            .zip(jsonl.lines())
            .position(|(a, b)| a != b)
            .map(|k| k + 1)
            .unwrap_or(0);
        return Err(format!(
            "recovered telemetry JSONL diverged from the uninterrupted run (first differing line {seam})"
        ));
    }

    Ok(RecoveryReport {
        config: config.clone(),
        horizon,
        killed_at: kill_tick,
        store_len,
        rejected,
        resumed_from: resumed_tick.index(),
        fast_forwarded,
        outcome,
        jsonl,
        golden_jsonl,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use utilbp_scenario::{builtin, Backend};

    fn drill(config: &RecoveryConfig) -> Result<RecoveryReport, String> {
        let spec = builtin("grid-degraded-recovery").expect("built-in exists");
        run_recovery(spec, EngineConfig::new(Backend::Queueing), config)
    }

    #[test]
    fn a_torn_write_drill_passes() {
        let report = drill(&RecoveryConfig::default()).expect("drill passes");
        assert_eq!(report.rejected.len(), 1, "the torn newest must be rejected");
        assert!(report.resumed_from < report.killed_at);
        assert_eq!(report.jsonl, report.golden_jsonl);
        let rendered = report.render();
        assert!(rendered.contains("byte-identical"), "{rendered}");
    }

    #[test]
    fn a_bit_flip_is_caught_by_the_checksum() {
        let config = RecoveryConfig {
            corruption: Corruption::BitFlip,
            ..RecoveryConfig::default()
        };
        let report = drill(&config).expect("drill passes");
        assert_eq!(report.rejected.len(), 1);
        assert!(
            report.rejected[0].contains("checksum") || report.rejected[0].contains("snapshot"),
            "rejection must be the typed integrity error: {}",
            report.rejected[0]
        );
    }

    #[test]
    fn a_clean_shutdown_resumes_from_the_newest() {
        let config = RecoveryConfig {
            corruption: Corruption::None,
            ..RecoveryConfig::default()
        };
        let report = drill(&config).expect("drill passes");
        assert!(report.rejected.is_empty());
        // The newest capture is the last period boundary before the kill.
        let expected = report.killed_at / config.period * config.period;
        assert_eq!(report.resumed_from, expected);
    }
}
