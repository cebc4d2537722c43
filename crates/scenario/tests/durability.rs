//! Durability gates for the checkpoint/restore plane.
//!
//! The contract under test: a run interrupted at an arbitrary tick and
//! resumed from a checkpoint finishes **bit-identically** to the
//! uninterrupted run — same `ScenarioOutcome`, byte-equal telemetry
//! JSONL — across scenarios and both substrates;
//! snapshot→restore→snapshot is a byte-level fixed point; corrupted
//! containers surface typed errors, never panics; and a fork is a fully
//! independent timeline.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use utilbp_core::state::StateError;
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

// ---------------------------------------------------------------------
// Crafted captures: words the checksum cannot vouch for. Each case
// rewrites one word inside a section and recomputes that section's CRC,
// so only the restore path's own checks stand between the word and the
// step path.
// ---------------------------------------------------------------------

/// Section tags of a capture; all but the spec text are word sections.
const TAG_SPEC: u32 = 2;
const TAG_PLANT: u32 = 3;
const TAG_ENGINE: u32 = 4;
const TAG_TELEMETRY: u32 = 5;

/// Every section of a capture: its tag, the offset of its CRC field and
/// its payload's byte range.
fn sections(bytes: &[u8]) -> Vec<(u32, usize, std::ops::Range<usize>)> {
    let le = |at: usize, n: usize| {
        (bytes[at..at + n].iter().rev()).fold(0u64, |acc, &b| (acc << 8) | u64::from(b))
    };
    let mut pos = 16;
    (0..le(12, 4))
        .map(|_| {
            let (tag, len) = (le(pos, 4) as u32, le(pos + 4, 8) as usize);
            pos += 16 + len;
            (tag, pos - len - 4, pos - len..pos)
        })
        .collect()
}

fn section(bytes: &[u8], tag: u32) -> (usize, std::ops::Range<usize>) {
    let (_, crc_at, payload) = sections(bytes)
        .into_iter()
        .find(|s| s.0 == tag)
        .expect("section");
    (crc_at, payload)
}

fn word_at(bytes: &[u8], tag: u32, index: usize) -> u64 {
    let at = section(bytes, tag).1.start + 8 * index;
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

/// `bytes` with word `index` of section `tag` set to `word`.
fn with_word(bytes: &[u8], tag: u32, index: usize, word: u64) -> Vec<u8> {
    let (crc_at, payload) = section(bytes, tag);
    let mut out = bytes.to_vec();
    let at = payload.start + 8 * index;
    out[at..at + 8].copy_from_slice(&word.to_le_bytes());
    let crc = utilbp_snapshot::crc32(&out[payload]);
    out[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
    out
}

fn capture(name: &str, config: EngineConfig, horizon: u64, cut: u64) -> Vec<u8> {
    let mut engine = engine_for(name, config, horizon);
    for _ in 0..cut {
        engine.step();
    }
    engine.checkpoint()
}

fn expect_invalid(bytes: &[u8], config: EngineConfig, what: &str) {
    match ScenarioEngine::restore(bytes, config, &controller).err() {
        Some(RestoreError::Snapshot(SnapshotError::State(StateError::Invalid {
            what: got,
            ..
        }))) if got == what => {}
        other => panic!("expected an invalid {what}, got {other:?}"),
    }
}

/// Engine-section words, following `save_engine_state`: the tick, the
/// event cursor, two fault switches, then the demand generator's entry
/// count and one arrival clock per entry (the first at word 5), its
/// surge factor, road count, one closure flag per road, four RNG words
/// and the next vehicle id. Returns the surge and next-id indices.
fn demand_words(bytes: &[u8]) -> (usize, usize) {
    let surge = 5 + word_at(bytes, TAG_ENGINE, 4) as usize;
    let roads = word_at(bytes, TAG_ENGINE, surge + 1) as usize;
    (surge, surge + 2 + roads + 4)
}

/// The incident builtin on the queueing plant, cut mid-closure at 260.
fn incident_capture() -> (Vec<u8>, EngineConfig) {
    let config = EngineConfig::new(Backend::Queueing);
    (capture("grid-incident-replan", config, 460, 260), config)
}

#[test]
fn engine_tick_past_the_horizon_is_rejected() {
    let (bytes, config) = incident_capture();
    assert_eq!(word_at(&bytes, TAG_ENGINE, 0), 260, "word 0 is the tick");
    // The horizon itself is a tick a finished run is captured at; here
    // it trips the next check, the demand clocks left at tick 260.
    expect_invalid(
        &with_word(&bytes, TAG_ENGINE, 0, 460),
        config,
        "demand arrival clock",
    );
    for tick in [461, 11_000_000_000_000_000_000] {
        expect_invalid(
            &with_word(&bytes, TAG_ENGINE, 0, tick),
            config,
            "engine tick",
        );
    }
}

#[test]
fn a_run_ends_at_its_horizon_and_its_last_capture_restores() {
    let config = EngineConfig::new(Backend::Queueing);
    let mut engine = engine_for("grid-incident-replan", config, 460);
    engine.run_to_end();
    let restored = ScenarioEngine::restore(&engine.checkpoint(), config, &controller)
        .expect("a capture at the horizon restores");
    assert_eq!(restored.now().index(), 460);
    for mut engine in [engine, restored] {
        let past = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.step()));
        assert!(past.is_err(), "no step runs past the horizon");
    }
}

#[test]
fn demand_clock_behind_the_engine_tick_or_not_finite_is_rejected() {
    let (bytes, config) = incident_capture();
    for seconds in [259.0, -1e300, f64::NAN, f64::INFINITY] {
        let patched = with_word(&bytes, TAG_ENGINE, 5, seconds.to_bits());
        expect_invalid(&patched, config, "demand arrival clock");
    }
}

#[test]
fn surge_factor_must_be_one_or_a_spec_event_factor() {
    // `grid-congestion-replan` surges by 4 over ticks 40..400; cut
    // before the window, the capture holds the neutral factor.
    let config = EngineConfig::new(Backend::Queueing);
    let bytes = capture("grid-congestion-replan", config, 420, 20);
    let (surge, _) = demand_words(&bytes);
    assert_eq!(f64::from_bits(word_at(&bytes, TAG_ENGINE, surge)), 1.0);
    let patched = with_word(&bytes, TAG_ENGINE, surge, 4f64.to_bits());
    assert!(ScenarioEngine::restore(&patched, config, &controller).is_ok());
    for factor in [0.0, -2.0, 3.0, f64::NAN, f64::INFINITY] {
        let patched = with_word(&bytes, TAG_ENGINE, surge, factor.to_bits());
        expect_invalid(&patched, config, "demand surge factor");
    }
}

#[test]
fn next_vehicle_id_must_match_the_ledger() {
    // The builtins confirm the invariant the check rests on: every id
    // the demand generator issued is in the plant's ledger, active or
    // completed.
    for backend in [Backend::Queueing, Backend::Microscopic] {
        for &(name, horizon, cut) in MATRIX {
            let mut engine = engine_for(name, EngineConfig::new(backend), horizon);
            for _ in 0..cut {
                engine.step();
            }
            let seen = engine.ledger().active() as u64 + engine.ledger().completed();
            assert_eq!(engine.demand_generated(), seen, "{name} on {backend:?}");
        }
    }
    let (bytes, config) = incident_capture();
    let (_, next) = demand_words(&bytes);
    let issued = word_at(&bytes, TAG_ENGINE, next);
    for id in [issued + 1, issued - 1, 69_000_000_000] {
        let patched = with_word(&bytes, TAG_ENGINE, next, id);
        expect_invalid(&patched, config, "demand next vehicle id");
    }
}

#[test]
fn ledger_id_bound_must_match_the_vehicles_seen() {
    let (bytes, config) = incident_capture();
    let engine = ScenarioEngine::restore(&bytes, config, &controller).expect("intact");
    let (seen, live) = (engine.demand_generated(), engine.ledger().active() as u64);
    // The ledger's words start with its id bound and its live count.
    let words = section(&bytes, TAG_PLANT).1.len() / 8;
    let at: Vec<usize> = (0..words - 1)
        .filter(|&i| {
            (
                word_at(&bytes, TAG_PLANT, i),
                word_at(&bytes, TAG_PLANT, i + 1),
            ) == (seen, live)
        })
        .collect();
    assert_eq!(at.len(), 1, "one ledger header");
    for bound in [seen + 1, 1 << 60] {
        let patched = with_word(&bytes, TAG_PLANT, at[0], bound);
        expect_invalid(&patched, config, "ledger id bound");
    }
}

#[test]
fn plant_tick_that_disagrees_with_the_engine_is_rejected() {
    let (bytes, config) = incident_capture();
    assert_eq!(
        word_at(&bytes, TAG_PLANT, 0),
        260,
        "plant word 0 is its clock"
    );
    for tick in [259, 261, 1 << 40] {
        expect_invalid(&with_word(&bytes, TAG_PLANT, 0, tick), config, "plant tick");
    }
}

/// The incident builtin on the queueing plant under the guard, cut
/// mid-closure at 260. The plant section opens with the guard's words:
/// its checked-tick count, the closure watermark count and one flag
/// (plus a level when set) per road, then the entered watermark count.
fn guarded_incident_capture() -> (Vec<u8>, EngineConfig) {
    let config = EngineConfig::new(Backend::Queueing).guarded();
    (capture("grid-incident-replan", config, 460, 260), config)
}

#[test]
fn guard_tick_count_that_disagrees_with_the_plant_is_rejected() {
    let (bytes, config) = guarded_incident_capture();
    assert_eq!(
        word_at(&bytes, TAG_PLANT, 0),
        260,
        "word 0 is the tick count"
    );
    for ticks in [259, 261, 1 << 40] {
        let patched = with_word(&bytes, TAG_PLANT, 0, ticks);
        expect_invalid(&patched, config, "guard tick count");
    }
    // Tick 0 comes before the first check, whose watermarks are empty.
    let patched = with_word(&bytes, TAG_PLANT, 0, 0);
    expect_invalid(&patched, config, "guard closure watermark count");
}

/// The guarded capture, its road count and the index of its entered
/// watermark count (after one flag, plus a level when set, per road).
fn guarded_watermark_words() -> (Vec<u8>, EngineConfig, u64, usize) {
    let (bytes, config) = guarded_incident_capture();
    let engine = ScenarioEngine::restore(&bytes, config, &controller).expect("intact");
    let roads = engine.network().topology().num_roads() as u64;
    assert_eq!(word_at(&bytes, TAG_PLANT, 1), roads);
    let mut entered = 2;
    for _ in 0..roads {
        entered += 1 + word_at(&bytes, TAG_PLANT, entered) as usize;
    }
    assert_eq!(word_at(&bytes, TAG_PLANT, entered), roads);
    (bytes, config, roads, entered)
}

#[test]
fn guard_watermark_count_that_is_not_the_road_count_is_rejected() {
    let (bytes, config, roads, entered) = guarded_watermark_words();
    for count in [0, 1, roads - 1, roads + 1, 1 << 40] {
        let patched = with_word(&bytes, TAG_PLANT, 1, count);
        expect_invalid(&patched, config, "guard closure watermark count");
        let patched = with_word(&bytes, TAG_PLANT, entered, count);
        expect_invalid(&patched, config, "guard entered watermark count");
    }
    // A capture before the first check holds empty watermarks.
    let early = capture("grid-incident-replan", config, 460, 0);
    assert_eq!(word_at(&early, TAG_PLANT, 1), 0);
    let mut resumed = ScenarioEngine::restore(&early, config, &controller).expect("tick 0");
    (0..50).for_each(|_| resumed.step());
}

#[test]
fn guard_watermark_that_disagrees_with_the_plant_is_rejected() {
    // After a check the watermarks are the plant's own levels: a
    // different one would trip the restored guard on its next check.
    let (bytes, config, _, entered) = guarded_watermark_words();
    let level = word_at(&bytes, TAG_PLANT, entered + 1);
    for word in [level + 1, level.wrapping_sub(1), u64::MAX] {
        let patched = with_word(&bytes, TAG_PLANT, entered + 1, word);
        expect_invalid(&patched, config, "guard watermark");
    }
}

#[test]
fn watchdog_watermark_that_disagrees_with_the_counters_is_rejected() {
    // The telemetry section ends with the per-intersection recovery
    // watermarks; the next step would emit one event per unit of gap.
    let config = EngineConfig::new(Backend::Queueing);
    let bytes = capture("grid-degraded-recovery", config, 420, 300);
    let last = section(&bytes, TAG_TELEMETRY).1.len() / 8 - 1;
    let mark = word_at(&bytes, TAG_TELEMETRY, last) + 1_000_000_000;
    let patched = with_word(&bytes, TAG_TELEMETRY, last, mark);
    expect_invalid(&patched, config, "watchdog event watermark");
}

/// Seeded single-word mutations of every word section of three real
/// captures, each section's CRC recomputed: every restore must return
/// `Ok` or a typed [`RestoreError`], and a restored engine must step on
/// without panicking.
#[test]
fn mutated_captures_restore_or_fail_typed() {
    const MUTATIONS: usize = 600;
    let mut rng = SmallRng::seed_from_u64(2020);
    let mut next = move || rng.gen::<u64>();
    let (mut restored, mut rejected, mut panics) = (0, 0, Vec::new());
    for (name, backend, horizon, cut) in [
        ("grid-incident-replan", Backend::Queueing, 460, 260),
        ("grid-incident-replan", Backend::Microscopic, 460, 260),
        ("grid-degraded-recovery", Backend::Microscopic, 420, 233),
    ] {
        let config = EngineConfig::new(backend);
        let bytes = capture(name, config, horizon, cut);
        let words: Vec<(u32, usize)> = (sections(&bytes).into_iter())
            .filter(|s| s.0 != TAG_SPEC)
            .flat_map(|(tag, _, payload)| (0..payload.len() / 8).map(move |i| (tag, i)))
            .collect();
        for _ in 0..MUTATIONS {
            let (tag, index) = words[(next() % words.len() as u64) as usize];
            let old = word_at(&bytes, tag, index);
            let new = match next() % 6 {
                0 => 0,
                1 => u64::MAX,
                2 => old.wrapping_add(if next() % 2 == 0 { 1 } else { u64::MAX }),
                3 => old ^ (1 << (next() % 64)),
                4 => next() % 16,
                _ => next(),
            };
            let mutated = with_word(&bytes, tag, index, new);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let restore = ScenarioEngine::restore(&mutated, config, &controller);
                restore.map(|mut engine| (0..50).for_each(|_| engine.step()))
            }));
            match outcome {
                Ok(Ok(())) => restored += 1,
                Ok(Err(_)) => rejected += 1,
                Err(payload) => {
                    let message = (payload.downcast_ref::<String>().map(String::as_str))
                        .or(payload.downcast_ref::<&str>().copied())
                        .unwrap_or_default();
                    panics.push(format!(
                        "{name} on {backend:?}: section {tag} word {index} {old:#x} -> {new:#x}: \
                         {message}"
                    ));
                }
            }
        }
    }
    assert!(
        panics.is_empty(),
        "{} panics:\n{}",
        panics.len(),
        panics.join("\n")
    );
    assert!(
        restored > 0 && rejected > 0,
        "the mutations must exercise both outcomes ({restored} restored, {rejected} rejected)"
    );
}
