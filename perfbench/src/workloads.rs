//! The benchmark's workloads: each one is scenario text generated from a
//! seed, plus the engine options (substrate, flight recorder, checkpoint
//! cadence) the text format does not carry.

use std::fmt::Write as _;

use utilbp_core::standard::Approach;
use utilbp_core::SignalController;
use utilbp_netgen::{GridNetwork, GridPos, GridSpec};
use utilbp_scenario::{Backend, CheckpointPolicy, EngineConfig, ScenarioEngine, ScenarioSpec};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Microscopic 10×10 Pattern I grid: the on-network fleet saturates
    /// while the entry backlog grows. Car-following dominates the step.
    Grid10Saturated,
    /// Queueing 20×20 asymmetric grid at a sub-critical uniform rate: no
    /// microsimulation, so sensing and `decide` dominate the step.
    Grid20Queueing,
    /// Microscopic 5×5 Pattern II grid with repeated surge and
    /// closure/reopen cycles, congestion replanning, a watchdog with one
    /// frozen-sensor window, the flight recorder and periodic checkpoints.
    Grid5IncidentOps,
}

/// Length of one surge + closure cycle of `grid5-incident-ops`, ticks.
pub const INCIDENT_CYCLE: u64 = 1000;

/// Ticks every workload steps before its measured episodes, so they
/// start in the workload's load regime rather than on an empty network.
/// The outcome digest is taken here.
pub const WARMUP_TICKS: u64 = 4_000;

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::Grid10Saturated,
        Workload::Grid20Queueing,
        Workload::Grid5IncidentOps,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Grid10Saturated => "grid10-saturated",
            Workload::Grid20Queueing => "grid20-queueing",
            Workload::Grid5IncidentOps => "grid5-incident-ops",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The substrate the workload runs on.
    pub fn backend(self) -> Backend {
        match self {
            Workload::Grid20Queueing => Backend::Queueing,
            _ => Backend::Microscopic,
        }
    }

    /// Ticks of one measured episode. A run resumes the warmed-up state
    /// and steps episodes until `--seconds` have passed, so the state it
    /// measures (backlog, ledger, capture size) is fixed by the workload,
    /// never by how fast the engine is.
    pub fn episode_ticks(self) -> u64 {
        match self {
            Workload::Grid10Saturated => 10_000,
            Workload::Grid20Queueing => 20_000,
            Workload::Grid5IncidentOps => 12_000,
        }
    }

    /// Flight-recorder ring capacity, when the workload records events.
    pub fn recorder_capacity(self) -> Option<usize> {
        match self {
            Workload::Grid5IncidentOps => Some(16_384),
            _ => None,
        }
    }

    /// Periodic checkpoint cadence, when the workload captures one.
    pub fn checkpoint_period(self) -> Option<u64> {
        match self {
            Workload::Grid5IncidentOps => Some(256),
            _ => None,
        }
    }

    /// The engine configuration users run by default: serial, exact,
    /// unguarded.
    pub fn config(self) -> EngineConfig {
        EngineConfig::new(self.backend())
    }

    /// The scenario text for `seed`, with a horizon of `horizon` ticks.
    /// Everything random in the workload derives from `seed`: the
    /// demand and car-following streams through the `seed` line, and —
    /// for `grid5-incident-ops` — the closed roads and the sensor-fault
    /// window through the generator below.
    pub fn scenario_text(self, seed: u64, horizon: u64) -> String {
        let mut text = format!("scenario {}\nseed {seed}\nhorizon {horizon}\n", self.name());
        match self {
            Workload::Grid10Saturated => {
                text.push_str("topology grid rows=10 cols=10 pattern=I\ndemand constant\n");
            }
            Workload::Grid20Queueing => {
                text.push_str(
                    "topology asym-grid rows=20 cols=20 north-gap=18 east-gap=18 \
                     south-gap=18 west-gap=18\ndemand constant\n",
                );
            }
            Workload::Grid5IncidentOps => {
                text.push_str(
                    "topology grid rows=5 cols=5 pattern=II\ndemand constant\n\
                     replan congestion period=20 threshold=0.2 hysteresis=0.04\n\
                     watchdog freeze-ticks=24 max-delta=16 recovery-ticks=12\n",
                );
                let mut rng = SplitMix64(seed);
                // One frozen-counter window after the reopening of one of
                // the cycles 4..=14, inside the measured episode.
                let fault = (4 + rng.below(11)) * INCIDENT_CYCLE + 800;
                writeln!(
                    text,
                    "event sensor-fault from={fault} until={} frozen=1",
                    fault + 150
                )
                .expect("writing to a String cannot fail");
                let deep = deep_roads(5);
                let mut cycle = 0;
                while cycle + INCIDENT_CYCLE <= horizon {
                    let road = deep[rng.below(deep.len() as u64) as usize];
                    writeln!(
                        text,
                        "event surge factor=2 from={} until={}\n\
                         event close road={road} at={}\nevent reopen road={road} at={}",
                        cycle + 100,
                        cycle + 300,
                        cycle + 400,
                        cycle + 700,
                    )
                    .expect("writing to a String cannot fail");
                    cycle += INCIDENT_CYCLE;
                }
            }
        }
        text
    }

    /// Builds the workload's engine for a parsed spec, with the recorder
    /// and — when `periodic_checkpoints` — the checkpoint policy
    /// installed.
    ///
    /// # Errors
    ///
    /// Returns the engine's validation message.
    pub fn engine(
        self,
        spec: ScenarioSpec,
        periodic_checkpoints: bool,
        make_controller: &dyn Fn(usize) -> Box<dyn SignalController>,
    ) -> Result<ScenarioEngine, String> {
        let mut engine = ScenarioEngine::new(spec, self.config(), make_controller)?;
        if let Some(capacity) = self.recorder_capacity() {
            engine.enable_recording(capacity);
        }
        if let (true, Some(period)) = (periodic_checkpoints, self.checkpoint_period()) {
            engine.enable_checkpoints(CheckpointPolicy::every(period));
        }
        Ok(engine)
    }
}

/// Road ids of an `n×n` grid that leave an interior intersection: every
/// route onto one has crossed at least two junctions, so closing it
/// leaves upstream traffic that replanning can still divert.
fn deep_roads(n: u32) -> Vec<u32> {
    let grid = GridNetwork::new(GridSpec::with_size(n, n));
    let mut roads = Vec::new();
    for row in 1..n - 1 {
        for col in 1..n - 1 {
            let junction = grid
                .topology()
                .intersection(grid.intersection_at(GridPos::new(row, col)));
            for side in Approach::ALL {
                roads.push(junction.outgoing_road(side.outgoing()).index() as u32);
            }
        }
    }
    roads
}

/// SplitMix64: the benchmark's own seeded stream, so generated scenarios
/// depend on nothing but the seed.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..bound` (modulo bias is irrelevant at these bounds).
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use utilbp_scenario::{parse_scenario, ScenarioEvent};

    #[test]
    fn text_depends_on_the_seed_alone() {
        for workload in Workload::ALL {
            assert_eq!(
                workload.scenario_text(7, 5_000),
                workload.scenario_text(7, 5_000)
            );
            assert_ne!(
                workload.scenario_text(7, 5_000),
                workload.scenario_text(8, 5_000)
            );
        }
    }

    #[test]
    fn generated_specs_validate_and_round_trip() {
        for workload in Workload::ALL {
            for seed in 0..4 {
                let spec = parse_scenario(&workload.scenario_text(seed, 5_000)).unwrap();
                spec.validate().unwrap();
                assert_eq!(parse_scenario(&spec.to_text()).unwrap(), spec);
            }
        }
    }

    #[test]
    fn incident_cycles_close_deep_internal_roads_inside_the_horizon() {
        let deep = deep_roads(5);
        assert_eq!(deep.len(), 36, "9 interior junctions x 4 outgoing roads");
        let spec = parse_scenario(&Workload::Grid5IncidentOps.scenario_text(3, 5_300)).unwrap();
        let network = spec.build_network();
        let closures: Vec<_> = spec
            .events
            .iter()
            .filter_map(|e| match e {
                ScenarioEvent::CloseRoad { road, .. } => Some(*road),
                _ => None,
            })
            .collect();
        assert_eq!(closures.len(), 5, "one closure per whole cycle");
        for road in closures {
            assert!(deep.contains(&(road.index() as u32)));
            assert!(network.topology().road(road).is_internal());
        }
        assert!(spec.sensor_fault().is_some() && spec.watchdog.is_some());
    }
}
