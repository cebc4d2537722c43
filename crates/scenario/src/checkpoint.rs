//! Checkpoint/restore types for the scenario engine.
//!
//! A checkpoint is a `utilbp-snapshot` container holding four sections,
//! plus a fifth when a flight recorder is installed: the engine's
//! structural metadata (backend, guard mode, microscopic-parameter
//! fingerprint, checkpoint policy, recorder shape), the scenario spec in
//! its text form, the plant's dynamic state (its clock is the engine's
//! tick), the engine's own dynamic state (demand clocks and RNG,
//! event-timeline position, fault switches, replanning trackers,
//! congestion monitor), and the recorder's buffer with its phase-trace
//! watermarks. A capture holds only words restore cannot recompute from
//! other words: the guard's watermarks, the plants' occupancy and sensor
//! counters, the demand's next vehicle id (the ledger's entered count)
//! and the watchdog event watermarks are rebuilt from the restored
//! state. The plant owns the live fleet: each vehicle record carries
//! its own entry tick, and the waiting ledger holds only totals.
//! [`ScenarioEngine::restore`] rebuilds a fresh engine from the embedded
//! spec and overwrites its dynamic state, after which the restored run
//! continues **bit-identically** to the uninterrupted one — same
//! `ScenarioOutcome`, same telemetry JSONL — on either substrate.
//!
//! [`ScenarioEngine::restore`]: crate::ScenarioEngine::restore

use std::error::Error;
use std::fmt;

use utilbp_core::state::StateError;
use utilbp_snapshot::SnapshotError;

/// Section tag of the engine-structure metadata words.
pub(crate) const TAG_META: u32 = 1;
/// Section tag of the scenario spec text (`ScenarioSpec::to_text`).
pub(crate) const TAG_SPEC: u32 = 2;
/// Section tag of the plant (substrate) state words.
pub(crate) const TAG_PLANT: u32 = 3;
/// Section tag of the engine-side dynamic state words.
pub(crate) const TAG_ENGINE: u32 = 4;
/// Section tag of the telemetry (recorder + phase-trace watermark) words;
/// present only when a flight recorder is installed.
pub(crate) const TAG_TELEMETRY: u32 = 5;

/// Periodic checkpoint capture: every `period` ticks (at the tick
/// boundary, before the tick's events apply) the engine snapshots its
/// full state, retains the bytes in a small ring, and — when a recorder
/// is installed — records a `checkpoint` event carrying the snapshot's
/// size and CRC. The policy rides along in the snapshot itself, so a
/// restored run keeps checkpointing on the same cadence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Ticks between captures (≥ 1). Tick 0 is never captured — the
    /// initial state is reproducible from the spec alone.
    pub(crate) period: u64,
}

impl CheckpointPolicy {
    /// A policy capturing every `period` ticks.
    ///
    /// # Panics
    ///
    /// Panics if `period` is 0.
    pub fn every(period: u64) -> Self {
        assert!(period >= 1, "checkpoint period must be at least 1 tick");
        CheckpointPolicy { period }
    }
}

/// Why a checkpoint could not be restored. Restoration never panics on
/// untrusted bytes: container damage surfaces as
/// [`Snapshot`](Self::Snapshot) (bad magic, version skew, truncation,
/// checksum mismatch), semantic damage inside a verified section as a
/// wrapped [`StateError`], and a checkpoint/configuration disagreement
/// as [`Mismatch`](Self::Mismatch).
#[derive(Debug, Clone, PartialEq)]
pub enum RestoreError {
    /// The container is malformed, truncated, or corrupted (this also
    /// wraps word-stream [`StateError`]s via `SnapshotError::State`).
    Snapshot(SnapshotError),
    /// The embedded scenario spec failed to parse or validate.
    Spec(String),
    /// The checkpoint was captured under a different engine
    /// configuration than the one offered for restore (backend, guard
    /// flags, or microscopic parameters).
    Mismatch {
        /// Which configuration axis disagreed.
        what: &'static str,
    },
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::Snapshot(e) => write!(f, "snapshot: {e}"),
            RestoreError::Spec(msg) => write!(f, "embedded spec: {msg}"),
            RestoreError::Mismatch { what } => {
                write!(f, "checkpoint/config mismatch: {what}")
            }
        }
    }
}

impl Error for RestoreError {}

impl From<SnapshotError> for RestoreError {
    fn from(e: SnapshotError) -> Self {
        RestoreError::Snapshot(e)
    }
}

impl From<StateError> for RestoreError {
    fn from(e: StateError) -> Self {
        RestoreError::Snapshot(SnapshotError::State(e))
    }
}
