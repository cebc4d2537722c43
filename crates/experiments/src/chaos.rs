//! The deterministic chaos harness: seeded fault timelines over both
//! substrates, re-proving the fault plane's safety properties on each.
//!
//! Each timeline is a scenario on the paper's grid whose fault content —
//! a sensor-fault window, an actuation-fault window, and (on half the
//! timelines) a closure/reopen interleaving — is drawn from a splitmix64
//! stream seeded by `master_seed + index`. Chaos is *reproducible*: the
//! same config always generates the same timelines, so a failing seed is
//! a one-line repro.
//!
//! For every timeline × backend the harness runs the scenario three
//! times, always under `EngineConfig::guarded()`, so the engine runs an
//! [`InvariantGuard`] against the plant after every tick (vehicle
//! conservation, sensor consistency, and closed-road emptiness are
//! re-proved; any violation panics with a tick-stamped diagnostic),
//! and drills a crash recovery:
//!
//! 1. watchdog installed — the reference outcome, recorded with
//!    periodic checkpointing as the recovery drill's golden;
//! 2. watchdog installed again, unrecorded — must equal the reference
//!    bit for bit (repeat determinism under active faults, and
//!    passive recording and checkpointing);
//! 3. watchdog absent — the degradation baseline;
//! 4. the **crash-recovery drill** of [`run_recovery`]: the reference
//!    run is repeated, killed at 5/8 of the horizon (inside the
//!    actuation-fault window), its newest checkpoint suffers a torn
//!    write, and recovery must reject the damage on checksum/structure
//!    grounds, fall back to the previous capture, fast-forward, and
//!    land on the reference outcome and event stream exactly —
//!    checkpoint durability re-proved under active sensor faults,
//!    actuation faults, and closures, with the guard watching every
//!    replayed tick.
//!
//! The report's aggregate check bounds degradation: summed over the
//! timelines of one backend, mean waiting with the watchdog fallback
//! must not exceed waiting without it by more than a small tolerance
//! (individual light-fault timelines where the watchdog never trips are
//! exact ties by construction — the monitor draws nothing and passes the
//! inner decision through).
//!
//! [`InvariantGuard`]: utilbp_substrate::InvariantGuard

use utilbp_core::{Tick, Ticks};
use utilbp_metrics::TextTable;
use utilbp_scenario::{
    run_scenario, Backend, DemandProfile, EngineConfig, ReplanPolicy, ScenarioEvent,
    ScenarioOutcome, ScenarioSpec, TopologySpec,
};

use crate::recovery::{run_recovery, RecoveryConfig};
use crate::scenario::ControllerKind;

/// Headroom the aggregate degradation bound allows for watchdog false
/// positives on light-fault timelines (see the module docs).
const DEGRADATION_TOLERANCE: f64 = 1.05;

/// How much chaos to generate.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Fault timelines per backend.
    pub timelines: usize,
    /// Horizon of every timeline, in ticks.
    pub horizon: u64,
    /// Seed of the timeline generator (timeline `k` draws from a
    /// splitmix64 stream seeded `master_seed + k`).
    pub master_seed: u64,
    /// The substrates to cover.
    pub backends: Vec<Backend>,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            timelines: 20,
            horizon: 240,
            master_seed: 2020,
            backends: Backend::ALL.to_vec(),
        }
    }
}

/// One timeline × backend result.
#[derive(Debug, Clone)]
pub struct TimelineReport {
    /// The timeline's index in the run.
    pub index: usize,
    /// The timeline's derived seed (reproduces it alone).
    pub seed: u64,
    /// The substrate it ran on.
    pub backend: Backend,
    /// The guarded reference outcome (watchdog installed).
    pub with_fallback: ScenarioOutcome,
    /// The same timeline without the watchdog — the degradation
    /// baseline.
    pub without_fallback: ScenarioOutcome,
}

/// The rendered result of one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// One entry per timeline × backend.
    pub timelines: Vec<TimelineReport>,
}

impl ChaosReport {
    /// Renders the resilience table: one row per timeline × backend with
    /// the watchdog counters and the with/without-fallback waiting
    /// comparison.
    pub fn render(&self) -> String {
        let mut table = TextTable::new(vec![
            "Timeline".to_string(),
            "Seed".to_string(),
            "Backend".to_string(),
            "Gen".to_string(),
            "Done".to_string(),
            "Activations".to_string(),
            "Degraded".to_string(),
            "Recovery".to_string(),
            "Wait (fallback)".to_string(),
            "Wait (none)".to_string(),
        ]);
        for report in &self.timelines {
            let with = &report.with_fallback;
            table.push_row(vec![
                report.index.to_string(),
                report.seed.to_string(),
                report.backend.to_string(),
                with.generated.to_string(),
                with.completed.to_string(),
                with.fallback_activations.to_string(),
                with.ticks_degraded.to_string(),
                format!("{:.1}", with.recovery_time),
                format!("{:.2}s", with.avg_queuing_time_s),
                format!("{:.2}s", report.without_fallback.avg_queuing_time_s),
            ]);
        }
        table.render()
    }

    /// Total watchdog fallback activations across all timelines.
    pub fn total_activations(&self) -> u64 {
        self.timelines
            .iter()
            .map(|t| t.with_fallback.fallback_activations)
            .sum()
    }
}

/// The splitmix64 step — the timeline generator's only randomness, so a
/// timeline is a pure function of its seed.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)`.
fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Generates timeline `index`'s scenario (watchdog not yet attached —
/// the harness runs each timeline with and without one).
///
/// # Panics
///
/// Panics if `horizon < 40` — too short to fit the fault windows.
pub fn chaos_timeline(master_seed: u64, index: usize, horizon: u64) -> ScenarioSpec {
    assert!(horizon >= 40, "chaos timelines need at least 40 ticks");
    let seed = master_seed.wrapping_add(index as u64);
    let mut stream = seed;
    let h = horizon;

    let mut events = vec![
        // A mid-run sensor window biased toward the persistent modes
        // (frozen counters, stuck-at detectors): those are what the
        // watchdog exists to catch, and what hurt an unmonitored
        // controller the most.
        ScenarioEvent::SensorFault {
            config: utilbp_baselines::SensorFaultConfig {
                dropout: 0.2 * unit(&mut stream),
                frozen: 0.4 + 0.5 * unit(&mut stream),
                stuck_at: 0.3 * unit(&mut stream),
                stuck_at_value: (splitmix64(&mut stream) % 40) as u32,
                ..utilbp_baselines::SensorFaultConfig::NONE
            },
            from: Tick::new(h / 4),
            until: Tick::new(h / 2),
        },
        // An overlapping actuation window: stuck phases, dropped and
        // delayed commands.
        ScenarioEvent::ActuationFault {
            config: utilbp_baselines::ActuationFaultConfig {
                stuck: 0.1 * unit(&mut stream),
                stuck_ticks: 10 + splitmix64(&mut stream) % 30,
                drop: 0.3 * unit(&mut stream),
                delay: 0.3 * unit(&mut stream),
                delay_ticks: 1 + splitmix64(&mut stream) % 6,
            },
            from: Tick::new(h / 3),
            until: Tick::new(3 * h / 4),
        },
    ];
    // Half the timelines interleave a closure/reopen pair with the fault
    // windows, exercising the guard's closed-road invariant under
    // simultaneous sensor and actuation faults.
    if splitmix64(&mut stream).is_multiple_of(2) {
        let prototype = ScenarioSpec {
            name: String::new(),
            seed,
            horizon: Ticks::new(h),
            topology: grid_topology(),
            demand: DemandProfile::Constant,
            events: Vec::new(),
            replan: ReplanPolicy::Off,
            watchdog: None,
        };
        let network = prototype.build_network();
        let topology = network.topology();
        // Exit roads cannot close (closing one strands traffic, and
        // validation rejects it) — draw from the closable set.
        let closable: Vec<utilbp_netgen::RoadId> = topology
            .road_ids()
            .filter(|&r| !topology.road(r).is_exit())
            .collect();
        let road = closable[(splitmix64(&mut stream) % closable.len() as u64) as usize];
        events.push(ScenarioEvent::CloseRoad {
            road,
            at: Tick::new(h / 4 + 5),
        });
        events.push(ScenarioEvent::ReopenRoad {
            road,
            at: Tick::new(2 * h / 3),
        });
    }

    ScenarioSpec {
        name: format!("chaos-{index}"),
        seed,
        horizon: Ticks::new(h),
        topology: grid_topology(),
        demand: DemandProfile::Constant,
        events,
        replan: ReplanPolicy::Off,
        watchdog: None,
    }
}

fn grid_topology() -> TopologySpec {
    TopologySpec::Grid {
        spec: utilbp_netgen::GridSpec::paper(),
        pattern: utilbp_netgen::Pattern::II,
    }
}

/// Runs the harness: generates `config.timelines` timelines, runs each
/// on every configured backend (see the module docs for the runs per
/// timeline), and returns the report.
///
/// # Errors
///
/// Returns a one-line diagnostic naming the timeline seed on the first
/// violated property: a repeat-run or recovered-run outcome mismatch, or
/// an aggregate degradation bound breach. Invariant violations inside a
/// run (conservation, sensor consistency, closed-road emptiness) panic
/// with the guard's tick-stamped diagnostic instead — the harness runs
/// every simulation guarded.
pub fn run_chaos(config: &ChaosConfig) -> Result<ChaosReport, String> {
    let factory = |_: usize| ControllerKind::UtilBp.build();
    let mut jobs: Vec<(usize, Backend)> = Vec::new();
    for index in 0..config.timelines {
        for &backend in &config.backends {
            jobs.push((index, backend));
        }
    }

    let results: Vec<Result<TimelineReport, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .iter()
            .map(|&(index, backend)| {
                scope.spawn(move || {
                    let spec = chaos_timeline(config.master_seed, index, config.horizon);
                    let seed = spec.seed;
                    let mut with = spec.clone();
                    with.watchdog = Some(utilbp_baselines::WatchdogConfig::default());

                    let guarded = EngineConfig::new(backend).guarded();
                    // The recovery drill is runs 1 and 4 (see the module
                    // docs): its uninterrupted golden is the reference.
                    // Period horizon/6 guarantees at least two captures
                    // exist by the 5/8-horizon kill, so there is a valid
                    // fallback behind the torn newest.
                    let drill = RecoveryConfig {
                        period: config.horizon / 6,
                        ..RecoveryConfig::default()
                    };
                    let reference = run_recovery(with.clone(), guarded, &drill)
                        .map_err(|e| format!("timeline seed {seed} on {backend}: {e}"))?
                        .outcome;
                    let repeat = run_scenario(with, guarded, &factory)
                        .map_err(|e| format!("timeline seed {seed} on {backend}: {e}"))?;
                    if repeat != reference {
                        return Err(format!(
                            "timeline seed {seed} on {backend}: repeat run diverges"
                        ));
                    }

                    let without = run_scenario(spec, guarded, &factory)
                        .map_err(|e| format!("timeline seed {seed} on {backend}: {e}"))?;
                    Ok(TimelineReport {
                        index,
                        seed,
                        backend,
                        with_fallback: reference,
                        without_fallback: without,
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("chaos timeline must not panic"))
            .collect()
    });

    let timelines: Vec<TimelineReport> = results.into_iter().collect::<Result<_, _>>()?;

    // The aggregate degradation bound, per backend: waiting with the
    // fallback must not exceed waiting without it by more than the
    // tolerance.
    for &backend in &config.backends {
        let (mut with, mut without) = (0.0, 0.0);
        for report in timelines.iter().filter(|t| t.backend == backend) {
            with += report.with_fallback.avg_queuing_time_s;
            without += report.without_fallback.avg_queuing_time_s;
        }
        if with > without * DEGRADATION_TOLERANCE {
            return Err(format!(
                "degradation bound breached on {backend}: waiting with fallback {with:.2}s \
                 exceeds {DEGRADATION_TOLERANCE}x waiting without {without:.2}s"
            ));
        }
    }

    Ok(ChaosReport { timelines })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timelines_are_pure_functions_of_their_seed() {
        let a = chaos_timeline(7, 3, 200);
        let b = chaos_timeline(7, 3, 200);
        assert_eq!(a, b, "same seed, same timeline");
        let c = chaos_timeline(7, 4, 200);
        assert_ne!(a.seed, c.seed, "different index, different seed");
        a.validate().expect("generated timelines validate");
        c.validate().expect("generated timelines validate");
    }

    #[test]
    fn a_small_chaos_run_passes_and_renders() {
        let config = ChaosConfig {
            timelines: 2,
            horizon: 120,
            master_seed: 11,
            backends: vec![Backend::Queueing],
        };
        let report = run_chaos(&config).expect("chaos run passes");
        assert_eq!(report.timelines.len(), 2);
        let rendered = report.render();
        assert!(rendered.contains("Wait (fallback)"), "{rendered}");
    }
}
