//! Durability gates for the checkpoint/restore plane.
//!
//! The contract under test: a run interrupted at an arbitrary tick and
//! resumed from a checkpoint finishes **bit-identically** to the
//! uninterrupted run — same `ScenarioOutcome`, byte-equal telemetry
//! JSONL — across scenarios and both substrates;
//! snapshot→restore→snapshot is a byte-level fixed point; corrupted
//! containers surface typed errors, never panics; and a fork is a fully
//! independent timeline.

use utilbp_core::{SignalController, Ticks, UtilBp};
use utilbp_scenario::{
    builtin, Backend, CheckpointPolicy, EngineConfig, RestoreError, ScenarioEngine,
};
use utilbp_snapshot::SnapshotError;

fn controller(_: usize) -> Box<dyn SignalController> {
    Box::new(UtilBp::paper())
}

/// Builds an engine for a trimmed builtin with recording on.
fn engine_for(name: &str, config: EngineConfig, horizon: u64) -> ScenarioEngine {
    let mut spec = builtin(name).expect("builtin scenario");
    spec.horizon = Ticks::new(horizon);
    let mut engine = ScenarioEngine::new(spec, config, &controller).expect("engine builds");
    engine.enable_recording(256);
    engine
}

/// The golden oracle: run uninterrupted to the horizon.
fn golden(name: &str, config: EngineConfig, horizon: u64) -> (ScenarioEngine, String) {
    let mut engine = engine_for(name, config, horizon);
    engine.run_to_end();
    let jsonl = engine.events_jsonl();
    (engine, jsonl)
}

/// Interrupt at `cut`, checkpoint, drop the engine, restore from bytes,
/// and resume to the horizon.
fn interrupted(
    name: &str,
    config: EngineConfig,
    horizon: u64,
    cut: u64,
) -> (ScenarioEngine, String) {
    let bytes = {
        let mut engine = engine_for(name, config, horizon);
        for _ in 0..cut {
            engine.step();
        }
        engine.checkpoint()
        // Engine dropped here: the resumed run sees only the bytes.
    };
    let mut resumed = ScenarioEngine::restore(&bytes, config, &controller).expect("restore");
    assert_eq!(
        resumed.now().index(),
        cut,
        "restore resumes at the cut tick"
    );
    resumed.run_to_end();
    let jsonl = resumed.events_jsonl();
    (resumed, jsonl)
}

/// The scenario × cut matrix: a plain run, a closure + replanning run
/// (diverted-vehicle trackers live), a congestion-replanning run
/// (monitor state live), and a degraded-recovery run (watchdog +
/// actuation-fault state live). Cuts are adversarial: mid-closure,
/// mid-fault-window, mid-surge.
const MATRIX: &[(&str, u64, u64)] = &[
    ("paper-grid", 240, 97),
    ("grid-incident-replan", 460, 260),
    ("grid-congestion-replan", 420, 311),
    ("grid-degraded-recovery", 420, 233),
];

fn assert_bit_identical(name: &str, config: EngineConfig, horizon: u64, cut: u64) {
    let (gold, gold_jsonl) = golden(name, config, horizon);
    let (resumed, resumed_jsonl) = interrupted(name, config, horizon, cut);
    assert_eq!(
        resumed.outcome(),
        gold.outcome(),
        "{name}: resumed outcome diverged from the uninterrupted run"
    );
    assert_eq!(
        resumed_jsonl, gold_jsonl,
        "{name}: resumed telemetry JSONL diverged from the uninterrupted run"
    );
}

#[test]
fn resume_is_bit_identical_queueing() {
    for &(name, horizon, cut) in MATRIX {
        assert_bit_identical(name, EngineConfig::new(Backend::Queueing), horizon, cut);
    }
}

#[test]
fn resume_is_bit_identical_microscopic() {
    for &(name, horizon, cut) in MATRIX {
        assert_bit_identical(name, EngineConfig::new(Backend::Microscopic), horizon, cut);
    }
}

#[test]
fn resume_is_bit_identical_under_guard() {
    // The guard's own watermarks (closure drain levels, entered-counter
    // floor) are durable state: a restored guarded run must keep
    // enforcing invariants across the seam without tripping.
    let config = EngineConfig::new(Backend::Queueing).guarded();
    assert_bit_identical("grid-incident-replan", config, 460, 260);
}

#[test]
fn snapshot_restore_snapshot_is_a_fixed_point() {
    for backend in [Backend::Queueing, Backend::Microscopic] {
        let config = EngineConfig::new(backend);
        let mut engine = engine_for("grid-degraded-recovery", config, 420);
        for _ in 0..233 {
            engine.step();
        }
        let first = engine.checkpoint();
        let restored = ScenarioEngine::restore(&first, config, &controller).expect("restore");
        let second = restored.checkpoint();
        assert_eq!(
            first, second,
            "{backend:?}: save→load→save must be byte-stable"
        );
    }
}

#[test]
fn periodic_checkpoints_fire_and_resume_keeps_the_cadence() {
    let config = EngineConfig::new(Backend::Queueing);

    // Golden: policy on for the whole run, so the JSONL carries every
    // periodic `checkpoint` event.
    let mut gold = engine_for("paper-grid", config, 300);
    gold.enable_checkpoints(CheckpointPolicy::every(64));
    gold.run_to_end();
    let gold_jsonl = gold.events_jsonl();
    assert!(
        gold_jsonl.contains("\"checkpoint\""),
        "periodic captures must surface as events"
    );
    assert!(!gold.checkpoints().is_empty(), "captures must be retained");

    // Interrupted: die right after the tick-192 capture; the newest
    // retained checkpoint carries the policy, so the resumed run records
    // the remaining `checkpoint` events (including re-recording tick
    // 192's, which the snapshot itself predates) without re-arming.
    let (cut_tick, bytes) = {
        let mut engine = engine_for("paper-grid", config, 300);
        engine.enable_checkpoints(CheckpointPolicy::every(64));
        for _ in 0..200 {
            engine.step();
        }
        let (tick, bytes) = engine.latest_checkpoint().expect("captures exist").clone();
        (tick, bytes)
    };
    assert_eq!(cut_tick.index(), 192);
    let mut resumed = ScenarioEngine::restore(&bytes, config, &controller).expect("restore");
    resumed.run_to_end();
    assert_eq!(resumed.outcome(), gold.outcome());
    assert_eq!(resumed.events_jsonl(), gold_jsonl);
}

#[test]
fn fork_does_not_disturb_the_primary_timeline() {
    let config = EngineConfig::new(Backend::Queueing);
    let mut primary = engine_for("grid-incident", config, 420);
    for _ in 0..150 {
        primary.step();
    }
    let before = primary.checkpoint();

    // A pristine fork stepped forward predicts the primary's future…
    let mut what_if = primary.fork(&controller).expect("fork");
    what_if.run_to_end();

    // …without perturbing the primary (bytes unchanged by the fork)…
    assert_eq!(
        primary.checkpoint(),
        before,
        "fork must not mutate the primary"
    );

    // …and the primary, stepped forward itself, arrives at the same end.
    primary.run_to_end();
    assert_eq!(what_if.outcome(), primary.outcome());
    assert_eq!(what_if.events_jsonl(), primary.events_jsonl());
}

#[test]
fn mark_restored_surfaces_a_restore_event() {
    // Restoration never auto-records (byte-identity would break), but a
    // crash-recovery operator can opt into marking the seam: the event
    // lands at the resume tick and notes whether recovery fell back
    // past a damaged newer checkpoint.
    let config = EngineConfig::new(Backend::Queueing);
    let bytes = {
        let mut engine = engine_for("paper-grid", config, 240);
        for _ in 0..97 {
            engine.step();
        }
        engine.checkpoint()
    };
    let mut resumed = ScenarioEngine::restore(&bytes, config, &controller).expect("restore");
    resumed.mark_restored(true);
    let jsonl = resumed.events_jsonl();
    assert!(
        jsonl.ends_with("{\"tick\":97,\"kind\":\"restore\",\"fallback\":true}\n"),
        "restore event missing from the stream tail: {jsonl}"
    );
    // The marked run still reaches the horizon normally.
    resumed.run_to_end();
    assert_eq!(resumed.now().index(), 240);
}

// ---------------------------------------------------------------------
// Error paths: damaged containers are rejected with typed errors.
// ---------------------------------------------------------------------

fn sample_checkpoint() -> (Vec<u8>, EngineConfig) {
    let config = EngineConfig::new(Backend::Queueing);
    let mut engine = engine_for("paper-grid", config, 120);
    for _ in 0..60 {
        engine.step();
    }
    (engine.checkpoint(), config)
}

#[test]
fn bad_magic_is_rejected() {
    let (mut bytes, config) = sample_checkpoint();
    bytes[0] ^= 0xFF;
    match ScenarioEngine::restore(&bytes, config, &controller).err() {
        Some(RestoreError::Snapshot(SnapshotError::BadMagic)) => {}
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn version_skew_is_rejected() {
    let (mut bytes, config) = sample_checkpoint();
    // The format version is the little-endian u32 right after the magic.
    // Version 2 captures still carried the execution-mode META word.
    for version in [2u8, 0x7F] {
        bytes[8] = version;
        match ScenarioEngine::restore(&bytes, config, &controller).err() {
            Some(RestoreError::Snapshot(SnapshotError::UnsupportedVersion { found })) => {
                assert_eq!(found, u32::from(version));
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }
}

#[test]
fn payload_bit_flips_fail_the_checksum() {
    let (bytes, config) = sample_checkpoint();
    // Flip one bit in every byte position in turn past the header;
    // every single flip must surface as a typed error — never a panic,
    // never a silent success.
    let step = (bytes.len() / 97).max(1); // sample ~97 positions
    for pos in (16..bytes.len()).step_by(step) {
        let mut damaged = bytes.clone();
        damaged[pos] ^= 0x10;
        assert!(
            ScenarioEngine::restore(&damaged, config, &controller).is_err(),
            "bit flip at byte {pos} must be rejected"
        );
    }
}

#[test]
fn truncation_is_rejected_at_every_length() {
    let (bytes, config) = sample_checkpoint();
    let step = (bytes.len() / 61).max(1);
    for len in (0..bytes.len()).step_by(step) {
        assert!(
            ScenarioEngine::restore(&bytes[..len], config, &controller).is_err(),
            "truncation to {len} bytes must be rejected"
        );
    }
}

#[test]
fn config_mismatches_are_typed() {
    let (bytes, config) = sample_checkpoint();

    let mut wrong_backend = config;
    wrong_backend.backend = Backend::Microscopic;
    match ScenarioEngine::restore(&bytes, wrong_backend, &controller).err() {
        Some(RestoreError::Mismatch { what: "backend" }) => {}
        other => panic!("expected backend mismatch, got {other:?}"),
    }

    let guarded = config.guarded();
    match ScenarioEngine::restore(&bytes, guarded, &controller).err() {
        Some(RestoreError::Mismatch { what: "guard" }) => {}
        other => panic!("expected guard mismatch, got {other:?}"),
    }

    let mut wrong_micro = config;
    wrong_micro.micro.sigma = 0.25;
    match ScenarioEngine::restore(&bytes, wrong_micro, &controller).err() {
        Some(RestoreError::Mismatch {
            what: "microscopic parameters",
        }) => {}
        other => panic!("expected micro-parameter mismatch, got {other:?}"),
    }
}
