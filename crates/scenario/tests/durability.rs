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
    // The guard's watermarks (closure drain levels, entered-counter
    // floor) are rebuilt from the restored plant: a restored guarded run
    // must keep enforcing invariants across the seam without tripping.
    let config = EngineConfig::new(Backend::Queueing).guarded();
    assert_bit_identical("grid-incident-replan", config, 460, 260);
}

#[test]
fn snapshot_restore_snapshot_is_a_fixed_point() {
    for backend in [Backend::Queueing, Backend::Microscopic] {
        for config in [
            EngineConfig::new(backend),
            EngineConfig::new(backend).observed(),
        ] {
            let mut engine = engine_for("grid-degraded-recovery", config, 420);
            for _ in 0..233 {
                engine.step();
            }
            let first = engine.checkpoint();
            let restored = ScenarioEngine::restore(&first, config, &controller).expect("restore");
            let second = restored.checkpoint();
            assert_eq!(
                first, second,
                "{config:?}: save→load→save must be byte-stable"
            );
        }
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
    // Version 2 captures still carried the execution-mode META word,
    // version 3 captures the words restore now derives, version 4
    // captures the ledger's per-vehicle entry ticks, version 5 captures
    // the ledger's waiting-time histogram.
    for version in [2u8, 3, 4, 5, 0x7F] {
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
    // The guard's mode is one META word: a panicking guard's capture is
    // not an observing guard's.
    let panicking = capture("paper-grid", guarded, 120, 60);
    match ScenarioEngine::restore(&panicking, config.observed(), &controller).err() {
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
const TAG_META: u32 = 1;
const TAG_SPEC: u32 = 2;
const TAG_PLANT: u32 = 3;
const TAG_ENGINE: u32 = 4;

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

/// Engine-section words, following `save_engine_state`: the event
/// cursor, two fault switches, then the demand generator's entry count
/// and one arrival clock per entry (the first at word 4), its surge
/// factor, road count, one closure flag per road, four RNG words and the
/// suppressed count. Returns the surge factor's index.
fn surge_word(bytes: &[u8]) -> usize {
    4 + word_at(bytes, TAG_ENGINE, 3) as usize
}

/// The incident builtin on the queueing plant, cut mid-closure at 260.
fn incident_capture() -> (Vec<u8>, EngineConfig) {
    let config = EngineConfig::new(Backend::Queueing);
    (capture("grid-incident-replan", config, 460, 260), config)
}

/// Rejections of a plant clock past the horizon: plant word 0 is the
/// clock, the engine's only tick.
fn clock_past_the_horizon_is_rejected(bytes: &[u8], config: EngineConfig) {
    assert_eq!(
        word_at(bytes, TAG_PLANT, 0),
        260,
        "plant word 0 is its clock"
    );
    let engine = ScenarioEngine::restore(bytes, config, &controller).expect("intact");
    assert_eq!(
        engine.now().index(),
        260,
        "the plant clock is the engine tick"
    );
    for tick in [461, 1 << 40, 11_000_000_000_000_000_000] {
        let patched = with_word(bytes, TAG_PLANT, 0, tick);
        expect_invalid(&patched, config, "plant tick");
    }
}

#[test]
fn engine_tick_past_the_horizon_is_rejected() {
    let (bytes, config) = incident_capture();
    clock_past_the_horizon_is_rejected(&bytes, config);
    // The horizon itself is a tick a finished run is captured at; here
    // it trips the next check, the demand clocks left at tick 260.
    expect_invalid(
        &with_word(&bytes, TAG_PLANT, 0, 460),
        config,
        "demand arrival clock",
    );
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
        let patched = with_word(&bytes, TAG_ENGINE, 4, seconds.to_bits());
        expect_invalid(&patched, config, "demand arrival clock");
    }
}

#[test]
fn surge_factor_must_be_one_or_a_spec_event_factor() {
    // `grid-congestion-replan` surges by 4 over ticks 40..400; cut
    // before the window, the capture holds the neutral factor.
    let config = EngineConfig::new(Backend::Queueing);
    let bytes = capture("grid-congestion-replan", config, 420, 20);
    let surge = surge_word(&bytes);
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
    // The builtins confirm the invariant restore rests on: every id the
    // demand generator issued entered the plant, and is active or
    // completed. The capture stores no next id: a restored engine issues
    // ids from the ledger's entered count on.
    for backend in [Backend::Queueing, Backend::Microscopic] {
        for &(name, horizon, cut) in MATRIX {
            let config = EngineConfig::new(backend);
            let mut engine = engine_for(name, config, horizon);
            for _ in 0..cut {
                engine.step();
            }
            let seen = engine.ledger().active() as u64 + engine.ledger().completed();
            assert_eq!(engine.demand_generated(), seen, "{name} on {backend:?}");
            assert_eq!(engine.ledger().entered(), seen, "{name} on {backend:?}");
            let restored = ScenarioEngine::restore(&engine.checkpoint(), config, &controller)
                .expect("an intact capture");
            assert_eq!(restored.demand_generated(), seen, "{name} on {backend:?}");
        }
    }
}

/// Plant word indices of the waiting ledger, following the plants'
/// `save_state`: after the clock and one counter come the waiting
/// statistics (count first, five words), the journey statistics (five
/// words) and the entered count. The completed count's and the entered
/// count's indices.
const LEDGER_WORDS: (usize, usize) = (2, 12);

/// Vehicle conservation, the guard's check: every vehicle the ledger
/// counts as live is on a road or in the entry backlog.
fn conserved(engine: &ScenarioEngine) -> bool {
    let topology = engine.network().topology();
    let on_roads: u64 = (topology.road_ids())
        .map(|road| u64::from(engine.road_occupancy(road)))
        .sum();
    engine.ledger().active() as u64 == on_roads + engine.backlog_len() as u64
}

#[test]
fn ledger_live_count_must_match_the_fleet() {
    let (bytes, config) = incident_capture();
    let engine = ScenarioEngine::restore(&bytes, config, &controller).expect("intact");
    let (completed, entered) = LEDGER_WORDS;
    let seen = engine.demand_generated();
    assert_eq!(
        word_at(&bytes, TAG_PLANT, entered),
        seen,
        "the entered count"
    );
    let done = engine.ledger().completed();
    assert_eq!(word_at(&bytes, TAG_PLANT, completed), done);
    // More live vehicles than the fleet holds, or fewer entered than
    // completed.
    for word in [seen + 1, 1 << 40, done - 1] {
        let patched = with_word(&bytes, TAG_PLANT, entered, word);
        expect_invalid(&patched, config, "ledger live count");
    }
    let patched = with_word(&bytes, TAG_PLANT, completed, done + 1);
    expect_invalid(&patched, config, "ledger live count");
}

#[test]
fn vehicle_records_must_lie_within_the_ledger_and_the_clock() {
    let config = EngineConfig::new(Backend::Microscopic);
    let bytes = capture("grid-incident-replan", config, 460, 260);
    let (_, entered) = LEDGER_WORDS;
    let ids = word_at(&bytes, TAG_PLANT, entered);
    // The vehicle arena follows the ledger: its slab length, its free
    // list (length, then slots), then per live slot the vehicle's id,
    // entry tick, route cursor and route.
    let first = entered + 3 + word_at(&bytes, TAG_PLANT, entered + 2) as usize;
    assert!(word_at(&bytes, TAG_PLANT, first) < ids, "a live id");
    assert!(
        word_at(&bytes, TAG_PLANT, first + 1) < 260,
        "its entry tick"
    );
    for id in [ids, u64::MAX] {
        let patched = with_word(&bytes, TAG_PLANT, first, id);
        expect_invalid(&patched, config, "vehicle id");
    }
    for tick in [260, 1 << 40] {
        let patched = with_word(&bytes, TAG_PLANT, first + 1, tick);
        expect_invalid(&patched, config, "vehicle entry tick");
    }
    // An earlier entry only lengthens the vehicle's journey.
    let patched = with_word(&bytes, TAG_PLANT, first + 1, 0);
    assert!(ScenarioEngine::restore(&patched, config, &controller).is_ok());
}

#[test]
fn a_consistently_raised_entered_count_restores_and_runs_clean() {
    // Raising the entered and completed counts together keeps the live
    // count: the capture restores, and since nothing is sized by a
    // vehicle id, ids simply resume from the raised count.
    const RAISE: u64 = 1 << 40;
    for backend in [Backend::Queueing, Backend::Microscopic] {
        let config = EngineConfig::new(backend).observed();
        let bytes = capture("grid-incident-replan", config, 460, 260);
        let (completed, entered) = LEDGER_WORDS;
        let mut patched = bytes.clone();
        for index in [completed, entered] {
            let word = word_at(&bytes, TAG_PLANT, index) + RAISE;
            patched = with_word(&patched, TAG_PLANT, index, word);
        }
        let mut engine =
            ScenarioEngine::restore(&patched, config, &controller).expect("consistent counts");
        let seen = engine.demand_generated();
        assert!(
            seen > RAISE,
            "{backend:?}: ids resume from the raised count"
        );
        for _ in 0..20 {
            engine.step();
            assert!(conserved(&engine), "{backend:?} at {}", engine.now());
        }
        assert!(
            engine.demand_generated() > seen,
            "{backend:?}: new arrivals"
        );
        assert_eq!(engine.ledger().entered(), engine.demand_generated());
        assert!(
            !engine.events_jsonl().contains("guard_violation"),
            "{backend:?}: the observing guard saw no violation"
        );
        engine.outcome();
    }
}

/// Engine-section index of the closure-diverted id set's length,
/// following `save_engine_state`: after the demand generator (its surge
/// factor, road count, one closure flag per road, four RNG words and the
/// suppressed count) come five counters, then the set.
fn diverted_set_word(bytes: &[u8]) -> usize {
    let surge = surge_word(bytes);
    surge + 2 + word_at(bytes, TAG_ENGINE, surge + 1) as usize + 5 + 5
}

#[test]
fn diverted_vehicle_ids_must_ascend_below_the_entered_count() {
    let (bytes, config) = incident_capture();
    let at = diverted_set_word(&bytes);
    let len = word_at(&bytes, TAG_ENGINE, at) as usize;
    assert!(len >= 2, "mid-closure, vehicles are on detours");
    let ids: Vec<u64> = (1..=len)
        .map(|i| word_at(&bytes, TAG_ENGINE, at + i))
        .collect();
    assert!(ids.windows(2).all(|w| w[0] < w[1]), "written sorted");
    let seen = ScenarioEngine::restore(&bytes, config, &controller)
        .expect("intact")
        .demand_generated();
    assert!(ids[len - 1] < seen, "issued ids");
    // Out of order, repeated, and never issued.
    let swapped = with_word(&bytes, TAG_ENGINE, at + 1, ids[1]);
    let swapped = with_word(&swapped, TAG_ENGINE, at + 2, ids[0]);
    expect_invalid(&swapped, config, "diverted vehicle id");
    let repeated = with_word(&bytes, TAG_ENGINE, at + 2, ids[0]);
    expect_invalid(&repeated, config, "diverted vehicle id");
    for id in [seen, u64::MAX] {
        let unissued = with_word(&bytes, TAG_ENGINE, at + len, id);
        expect_invalid(&unissued, config, "diverted vehicle id");
    }
}

#[test]
fn plant_tick_that_disagrees_with_the_engine_is_rejected() {
    // On the microscopic plant as on the queueing one, the engine keeps
    // no tick of its own: its clock is the plant's, bound by the horizon.
    let config = EngineConfig::new(Backend::Microscopic);
    let bytes = capture("grid-incident-replan", config, 460, 260);
    clock_past_the_horizon_is_rejected(&bytes, config);
}

/// The incident builtin on the queueing plant under the guard, cut
/// mid-closure at 260. The guard writes no word into the capture.
fn guarded_incident_capture() -> (Vec<u8>, EngineConfig) {
    let config = EngineConfig::new(Backend::Queueing).guarded();
    (capture("grid-incident-replan", config, 460, 260), config)
}

#[test]
fn guard_tick_count_that_disagrees_with_the_plant_is_rejected() {
    // The rebuilt guard counts its checks from the plant clock: plant
    // word 0 of a guarded capture is that clock, bound by the horizon,
    // and a restored panicking guard runs to the horizon untripped.
    let (bytes, config) = guarded_incident_capture();
    clock_past_the_horizon_is_rejected(&bytes, config);
    let mut resumed = ScenarioEngine::restore(&bytes, config, &controller).expect("intact");
    resumed.run_to_end();
}

#[test]
fn guard_watermark_count_that_is_not_the_road_count_is_rejected() {
    // The rebuilt watermarks are the plant's own levels, at any tick: a
    // capture before the first check restores as one after it.
    let (_, config) = guarded_incident_capture();
    let early = capture("grid-incident-replan", config, 460, 0);
    let mut resumed = ScenarioEngine::restore(&early, config, &controller).expect("tick 0");
    (0..50).for_each(|_| resumed.step());
}

#[test]
fn guard_watermark_that_disagrees_with_the_plant_is_rejected() {
    // Mid-closure, the closed road's drain watermark matters: the guard
    // rebuilt from the restored plant records exactly the uninterrupted
    // observing guard's events (none, on a healthy plant). The guard's
    // unit tests break a fake plant after such a seam and see both
    // guards fire alike.
    let config = EngineConfig::new(Backend::Queueing).observed();
    let (gold, gold_jsonl) = golden("grid-incident-replan", config, 460);
    let (resumed, resumed_jsonl) = interrupted("grid-incident-replan", config, 460, 260);
    assert_eq!(resumed.outcome(), gold.outcome());
    assert_eq!(resumed_jsonl, gold_jsonl);
    assert!(!gold_jsonl.contains("guard_violation"), "a healthy plant");
}

#[test]
fn watchdog_watermark_that_disagrees_with_the_counters_is_rejected() {
    // The capture holds no watchdog event watermarks: restore brings
    // them up to the restored controllers' counters, and the resumed run
    // records exactly the uninterrupted run's watchdog events. The
    // recorder keeps every event of the run.
    let config = EngineConfig::new(Backend::Queueing);
    let (horizon, cut) = (420, 150);
    let run = |bytes: Option<&[u8]>| {
        let mut engine = match bytes {
            Some(bytes) => ScenarioEngine::restore(bytes, config, &controller).expect("restore"),
            None => {
                let mut engine = engine_for("grid-degraded-recovery", config, horizon);
                engine.enable_recording(1 << 16);
                engine
            }
        };
        let capture = (bytes.is_none()).then(|| {
            (0..cut).for_each(|_| engine.step());
            engine.checkpoint()
        });
        engine.run_to_end();
        (engine.outcome(), engine.events_jsonl(), capture)
    };
    let (outcome, jsonl, capture) = run(None);
    let (resumed, resumed_jsonl, _) = run(capture.as_deref());
    assert_eq!(resumed, outcome);
    assert_eq!(resumed_jsonl, jsonl);
    let ticks: Vec<u64> = (jsonl.lines())
        .filter(|line| line.contains("\"kind\":\"watchdog_"))
        .map(|line| {
            let tick = line.trim_start_matches("{\"tick\":").split(',').next();
            tick.and_then(|t| t.parse().ok())
                .expect("a tick-stamped event")
        })
        .collect();
    assert!(
        ticks.iter().any(|&t| t < cut) && ticks.iter().any(|&t| t >= cut),
        "watchdog events on both sides of the seam: {ticks:?}"
    );
}

#[test]
fn the_guard_adds_nothing_to_a_capture() {
    // The same run at the same tick, captured unguarded, under the
    // panicking guard and under the observing guard: the bytes differ in
    // META's guard word alone.
    for backend in [Backend::Queueing, Backend::Microscopic] {
        let plain = EngineConfig::new(backend);
        let bytes = capture("grid-incident-replan", plain, 460, 260);
        for guarded in [plain.guarded(), plain.observed()] {
            let mut other = capture("grid-incident-replan", guarded, 460, 260);
            assert_ne!(other, bytes, "{guarded:?}: META names the guard");
            other = with_word(&other, TAG_META, 1, word_at(&bytes, TAG_META, 1));
            assert_eq!(other, bytes, "{guarded:?}");
        }
    }
}

/// Seeded mutations of every word section of four real captures, one of
/// them under the observing guard, each section's CRC recomputed: single
/// words, then pairs of words in one section (half of them near each
/// other, where a count and the words it counts sit). Every restore must
/// return `Ok` or a typed [`RestoreError`], and a restored engine must
/// step on without panicking, conserve its vehicles and report an
/// outcome.
#[test]
fn mutated_captures_restore_or_fail_typed() {
    const MUTATIONS: usize = 600;
    let mut rng = SmallRng::seed_from_u64(2020);
    let mut next = move || rng.gen::<u64>();
    let (mut restored, mut rejected, mut panics) = (0, 0, Vec::new());
    let micro = EngineConfig::new(Backend::Microscopic);
    for (name, config, horizon, cut) in [
        (
            "grid-incident-replan",
            EngineConfig::new(Backend::Queueing),
            460,
            260,
        ),
        ("grid-incident-replan", micro, 460, 260),
        ("grid-degraded-recovery", micro, 420, 233),
        ("grid-incident-replan", micro.observed(), 460, 260),
    ] {
        let bytes = capture(name, config, horizon, cut);
        let lens: Vec<(u32, usize)> = (sections(&bytes).into_iter())
            .filter(|s| s.0 != TAG_SPEC)
            .map(|(tag, _, payload)| (tag, payload.len() / 8))
            .collect();
        let words: Vec<(u32, usize)> = (lens.iter())
            .flat_map(|&(tag, len)| (0..len).map(move |i| (tag, i)))
            .collect();
        for pairwise in [false, true] {
            for _ in 0..MUTATIONS {
                let (tag, index) = words[(next() % words.len() as u64) as usize];
                let len = lens.iter().find(|l| l.0 == tag).expect("a word section").1;
                let mut targets = vec![index];
                if pairwise && len > 1 {
                    let other = if next() % 2 == 0 {
                        index.saturating_sub(8) + (next() % 17) as usize
                    } else {
                        (next() % len as u64) as usize
                    };
                    targets.push(other.min(len - 1));
                }
                let mut mutated = bytes.clone();
                let mut what = Vec::new();
                for index in targets {
                    let old = word_at(&bytes, tag, index);
                    let new = match next() % 6 {
                        0 => 0,
                        1 => u64::MAX,
                        2 => old.wrapping_add(if next() % 2 == 0 { 1 } else { u64::MAX }),
                        3 => old ^ (1 << (next() % 64)),
                        4 => next() % 16,
                        _ => next(),
                    };
                    mutated = with_word(&mutated, tag, index, new);
                    what.push(format!("word {index} {old:#x} -> {new:#x}"));
                }
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let restore = ScenarioEngine::restore(&mutated, config, &controller);
                    restore.map(|mut engine| {
                        (0..50).for_each(|_| engine.step());
                        assert!(conserved(&engine), "vehicle conservation");
                        engine.outcome();
                    })
                }));
                match outcome {
                    Ok(Ok(())) => restored += 1,
                    Ok(Err(_)) => rejected += 1,
                    Err(payload) => {
                        let message = (payload.downcast_ref::<String>().map(String::as_str))
                            .or(payload.downcast_ref::<&str>().copied())
                            .unwrap_or_default();
                        panics.push(format!(
                            "{name} under {config:?}: section {tag} {}: {message}",
                            what.join(", ")
                        ));
                    }
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
