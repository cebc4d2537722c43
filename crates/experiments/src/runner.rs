//! Substrate-agnostic scenario runner with probes. Both backends are
//! built through `utilbp-scenario`'s shared constructor and driven
//! through the [`utilbp_substrate::TrafficSubstrate`] trait — the runner
//! never dispatches on the backend. Every run is guarded: an
//! [`InvariantGuard`] in panic mode re-proves vehicle conservation,
//! sensor consistency and closure drain after every step, so each paper
//! table and figure re-checks the plant invariants in release builds.

use utilbp_core::{IncomingId, Tick};
use utilbp_metrics::{PhaseTrace, TimeSeries};
use utilbp_netgen::{Arrival, DemandConfig, DemandGenerator, GridNetwork, IntersectionId};
use utilbp_scenario::build_substrate;
use utilbp_substrate::{GuardMode, InvariantGuard, StepReport};

use crate::scenario::{ControllerKind, Scenario};

/// What to record during a run, beyond the always-on waiting statistics.
#[derive(Debug, Clone, Default)]
pub struct Probe {
    /// Record the applied phase per tick at these intersections
    /// (Figs. 3–4).
    pub phase_traces: Vec<IntersectionId>,
    /// Record the physical queue length at these incoming arms (Fig. 5).
    pub queue_series: Vec<(IntersectionId, IncomingId)>,
    /// Sampling stride for queue series, in ticks (0 or 1 = every tick).
    pub sample_every: u64,
}

impl Probe {
    /// A probe that records nothing extra.
    pub fn none() -> Self {
        Probe::default()
    }
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The controller's display label.
    pub controller: String,
    /// The paper's headline metric: average queuing time of a vehicle
    /// across the whole network, in seconds, counting vehicles still in
    /// the network at the horizon.
    pub avg_queuing_time_s: f64,
    /// Average journey time over completed vehicles, seconds.
    pub mean_journey_s: f64,
    /// Vehicles that completed their journey.
    pub completed: u64,
    /// Vehicles generated by the demand process.
    pub generated: u64,
    /// Phase traces, in the order requested by the probe.
    pub phase_traces: Vec<PhaseTrace>,
    /// Queue-length series, in the order requested by the probe.
    pub queue_series: Vec<TimeSeries>,
}

/// Runs `controller` on `scenario`, recording `probe`.
///
/// Every intersection gets its own fresh controller instance
/// (decentralized control); the demand stream is identical for identical
/// `(scenario.seed, schedule, grid)`, so controllers are compared on the
/// same traffic.
///
/// # Panics
///
/// Panics with the guard's tick-stamped diagnostic when a plant
/// invariant fails after a step.
///
/// # Examples
///
/// ```
/// use utilbp_core::Ticks;
/// use utilbp_experiments::{run, Backend, ControllerKind, Probe, Scenario};
/// use utilbp_netgen::{DemandSchedule, Pattern};
///
/// let scenario = Scenario::paper(
///     DemandSchedule::constant(Pattern::II, Ticks::new(300)),
///     Backend::Queueing,
///     42,
/// );
/// let result = run(&scenario, &ControllerKind::UtilBp, &Probe::none());
/// assert!(result.generated > 0);
/// ```
pub fn run(scenario: &Scenario, controller: &ControllerKind, probe: &Probe) -> RunResult {
    let grid = GridNetwork::new(scenario.grid);
    let n = grid.topology().num_intersections();
    let controllers = controller.build_n(n);

    // The shared constructor derives the queueing substrate's paper-exact
    // configuration from the microscopic parameters, so both backends
    // simulate the same physical setup (same `Δt`, same free-flow speed).
    let mut substrate = build_substrate(
        scenario.backend,
        grid.topology().clone(),
        controllers,
        scenario.micro,
    );

    let mut demand = DemandGenerator::new(
        &grid,
        DemandConfig {
            schedule: scenario.schedule.clone(),
            turning: scenario.turning,
            dt_seconds: scenario.micro.dt_seconds,
        },
        scenario.seed,
    );

    let mut traces: Vec<PhaseTrace> = probe
        .phase_traces
        .iter()
        .map(|i| PhaseTrace::new(format!("intersection {i}")))
        .collect();
    let mut series: Vec<TimeSeries> = probe
        .queue_series
        .iter()
        .map(|(i, arm)| TimeSeries::new(format!("queue at {i}/{arm}")))
        .collect();
    let stride = probe.sample_every.max(1);

    let horizon = scenario.horizon().count();
    let mut arrivals: Vec<Arrival> = Vec::new();
    let mut report = StepReport::empty();
    let mut guard = InvariantGuard::new(GuardMode::Panic);
    for k in 0..horizon {
        let tick = Tick::new(k);
        arrivals.clear();
        demand.poll_into(&grid, tick, &mut arrivals);
        substrate.step_into(&mut arrivals, &mut report, None);
        guard.check(&*substrate);
        for (slot, &i) in probe.phase_traces.iter().enumerate() {
            traces[slot].record(tick, report.decisions[i.index()]);
        }
        if k % stride == 0 {
            for (slot, &(i, arm)) in probe.queue_series.iter().enumerate() {
                series[slot].push(tick, substrate.incoming_queue_len(i, arm) as f64);
            }
        }
    }

    let ledger = substrate.ledger();
    RunResult {
        controller: controller.label(),
        avg_queuing_time_s: substrate.mean_waiting_including_active() * scenario.micro.dt_seconds,
        mean_journey_s: ledger.journey_stats().mean() * scenario.micro.dt_seconds,
        completed: ledger.completed(),
        generated: demand.generated(),
        phase_traces: traces,
        queue_series: series,
    }
}

/// Runs several controllers on the same scenario, in parallel threads, and
/// returns results in the input order. Each run is independently seeded
/// from the scenario, so running them on threads does not affect the
/// numbers.
pub fn run_many(
    scenario: &Scenario,
    controllers: &[ControllerKind],
    probe: &Probe,
) -> Vec<RunResult> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = controllers
            .iter()
            .map(|kind| scope.spawn(move || run(scenario, kind, probe)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("runner thread must not panic"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Backend;
    use utilbp_core::Ticks;
    use utilbp_netgen::{DemandSchedule, GridPos, Pattern};

    fn short_scenario(backend: Backend) -> Scenario {
        Scenario::paper(
            DemandSchedule::constant(Pattern::I, Ticks::new(400)),
            backend,
            7,
        )
    }

    #[test]
    fn runs_on_both_backends() {
        for backend in [Backend::Queueing, Backend::Microscopic] {
            let result = run(
                &short_scenario(backend),
                &ControllerKind::UtilBp,
                &Probe::none(),
            );
            assert!(result.generated > 100, "{backend}: {}", result.generated);
            assert!(result.completed > 0, "{backend}");
            assert!(result.avg_queuing_time_s >= 0.0);
            assert_eq!(result.controller, "UTIL-BP");
        }
    }

    #[test]
    fn probes_record_traces_and_series() {
        let grid = GridNetwork::new(utilbp_netgen::GridSpec::paper());
        let top_right = grid.intersection_at(GridPos::new(0, 2));
        let east_arm = utilbp_core::standard::Approach::East.incoming();
        let probe = Probe {
            phase_traces: vec![top_right],
            queue_series: vec![(top_right, east_arm)],
            sample_every: 5,
        };
        let result = run(
            &short_scenario(Backend::Queueing),
            &ControllerKind::CapBp { period: 16 },
            &probe,
        );
        assert_eq!(result.phase_traces.len(), 1);
        assert_eq!(result.queue_series.len(), 1);
        assert_eq!(result.phase_traces[0].end(), Tick::new(400));
        assert_eq!(result.queue_series[0].len(), 80);
        // CAP-BP must actually cycle phases under Pattern I.
        assert!(result.phase_traces[0].num_switches() > 2);
    }

    #[test]
    fn identical_scenarios_give_identical_results() {
        let s = short_scenario(Backend::Queueing);
        let a = run(&s, &ControllerKind::UtilBp, &Probe::none());
        let b = run(&s, &ControllerKind::UtilBp, &Probe::none());
        assert_eq!(a.avg_queuing_time_s, b.avg_queuing_time_s);
        assert_eq!(a.completed, b.completed);
    }

    #[test]
    fn run_many_matches_sequential_runs() {
        let s = short_scenario(Backend::Queueing);
        let kinds = vec![
            ControllerKind::UtilBp,
            ControllerKind::CapBp { period: 16 },
            ControllerKind::FixedTime { period: 20 },
        ];
        let parallel = run_many(&s, &kinds, &Probe::none());
        for (kind, par) in kinds.iter().zip(&parallel) {
            let seq = run(&s, kind, &Probe::none());
            assert_eq!(
                par.avg_queuing_time_s,
                seq.avg_queuing_time_s,
                "{}",
                kind.label()
            );
            assert_eq!(par.completed, seq.completed);
        }
    }
}
