//! Cross-substrate integration: the mesoscopic and microscopic simulators
//! must tell consistent comparative stories and be bit-reproducible, and
//! both must honour the plant contract when driven through
//! `TrafficSubstrate` alone.

use adaptive_backpressure::core::{SignalController, Tick, Ticks, UtilBp};
use adaptive_backpressure::experiments::{run, Backend, ControllerKind, Probe, Scenario};
use adaptive_backpressure::microsim::{MicroSim, MicroSimConfig};
use adaptive_backpressure::netgen::{
    DemandConfig, DemandGenerator, DemandSchedule, GridNetwork, GridSpec, Network, Pattern,
};
use adaptive_backpressure::queueing::{QueueSim, QueueSimConfig};
use adaptive_backpressure::scenario::build_substrate;
use adaptive_backpressure::substrate::{GuardMode, InvariantGuard, StepReport, TrafficSubstrate};
use adaptive_backpressure::telemetry::{Section, TickProfiler};

fn scenario(backend: Backend, pattern: Pattern, horizon: u64, seed: u64) -> Scenario {
    Scenario::paper(
        DemandSchedule::constant(pattern, Ticks::new(horizon)),
        backend,
        seed,
    )
}

#[test]
fn identical_runs_are_bit_reproducible_on_both_substrates() {
    for backend in [Backend::Queueing, Backend::Microscopic] {
        let s = scenario(backend, Pattern::III, 500, 99);
        let a = run(&s, &ControllerKind::UtilBp, &Probe::none());
        let b = run(&s, &ControllerKind::UtilBp, &Probe::none());
        assert_eq!(a.avg_queuing_time_s, b.avg_queuing_time_s, "{backend}");
        assert_eq!(a.completed, b.completed, "{backend}");
        assert_eq!(a.generated, b.generated, "{backend}");
    }
}

#[test]
fn demand_stream_is_identical_across_controllers() {
    // Same scenario ⇒ same generated vehicle count, whatever the
    // controller does.
    let s = scenario(Backend::Queueing, Pattern::I, 600, 4);
    let a = run(&s, &ControllerKind::UtilBp, &Probe::none());
    let b = run(
        &s,
        &ControllerKind::FixedTime { period: 20 },
        &Probe::none(),
    );
    assert_eq!(a.generated, b.generated);
}

#[test]
fn adaptive_beats_open_loop_on_both_substrates() {
    for backend in [Backend::Queueing, Backend::Microscopic] {
        let s = scenario(backend, Pattern::I, 1500, 77);
        let util = run(&s, &ControllerKind::UtilBp, &Probe::none());
        let fixed = run(
            &s,
            &ControllerKind::FixedTime { period: 20 },
            &Probe::none(),
        );
        assert!(
            util.avg_queuing_time_s < fixed.avg_queuing_time_s,
            "{backend}: UTIL-BP {:.1}s vs fixed-time {:.1}s",
            util.avg_queuing_time_s,
            fixed.avg_queuing_time_s
        );
    }
}

#[test]
fn most_vehicles_complete_under_moderate_demand() {
    // Pattern II is the lightest pattern: after the horizon, the large
    // majority of generated vehicles must have finished their journey on
    // either substrate under either back-pressure controller.
    for backend in [Backend::Queueing, Backend::Microscopic] {
        for kind in [ControllerKind::UtilBp, ControllerKind::CapBp { period: 16 }] {
            let s = scenario(backend, Pattern::II, 1500, 11);
            let r = run(&s, &kind, &Probe::none());
            let rate = r.completed as f64 / r.generated as f64;
            assert!(
                rate > 0.6,
                "{backend} {}: completion rate {rate:.2} too low",
                r.controller
            );
        }
    }
}

#[test]
fn microscopic_journeys_respect_free_flow_physics() {
    // No vehicle can traverse the network faster than free-flow: the mean
    // journey on the microscopic substrate must exceed the 2-road minimum
    // (600 m at 13.89 m/s ≈ 43 s plus one crossing).
    let s = scenario(Backend::Microscopic, Pattern::II, 1200, 3);
    let r = run(&s, &ControllerKind::UtilBp, &Probe::none());
    assert!(
        r.mean_journey_s > 45.0,
        "mean journey {:.1}s breaks physics",
        r.mean_journey_s
    );
}

#[test]
fn probes_work_identically_on_both_substrates() {
    use adaptive_backpressure::core::standard::Approach;
    use adaptive_backpressure::netgen::{GridNetwork, GridSpec};

    let grid = GridNetwork::new(GridSpec::paper());
    let probe = Probe {
        phase_traces: vec![grid.top_right()],
        queue_series: vec![(grid.top_right(), Approach::East.incoming())],
        sample_every: 10,
    };
    for backend in [Backend::Queueing, Backend::Microscopic] {
        let s = scenario(backend, Pattern::I, 400, 8);
        let r = run(&s, &ControllerKind::UtilBp, &probe);
        assert_eq!(r.phase_traces.len(), 1, "{backend}");
        assert_eq!(r.queue_series.len(), 1, "{backend}");
        assert_eq!(r.phase_traces[0].end().index(), 400, "{backend}");
        assert_eq!(r.queue_series[0].len(), 40, "{backend}");
    }
}

fn controllers(n: usize) -> Vec<Box<dyn SignalController>> {
    (0..n)
        .map(|_| Box::new(UtilBp::paper()) as Box<dyn SignalController>)
        .collect()
}

fn paper_demand(grid: &GridNetwork, pattern: Pattern, horizon: u64, seed: u64) -> DemandGenerator {
    DemandGenerator::new(
        grid,
        DemandConfig::new(DemandSchedule::constant(pattern, Ticks::new(horizon))),
        seed,
    )
}

#[test]
fn both_backends_build_and_step_through_the_trait() {
    let grid = GridNetwork::new(GridSpec::paper());
    let net = Network::from_grid(&grid, Pattern::II);
    for backend in Backend::ALL {
        let n = grid.topology().num_intersections();
        let mut substrate = build_substrate(
            backend,
            grid.topology().clone(),
            controllers(n),
            MicroSimConfig::default(),
        );
        assert_eq!(substrate.backend(), backend);
        let mut demand = paper_demand(&grid, Pattern::II, 200, 7);
        let mut arrivals = Vec::new();
        let mut report = StepReport::empty();
        for k in 0..200u64 {
            arrivals.clear();
            demand.poll_into(&grid, Tick::new(k), &mut arrivals);
            substrate.step_into(&mut arrivals, &mut report, None);
            assert_eq!(report.decisions.len(), n);
            assert!(arrivals.is_empty(), "step must drain the arrivals");
        }
        assert!(substrate.ledger().completed() > 0, "{backend}");
        assert!(substrate.mean_waiting_including_active() >= 0.0);
        // Entered counters: every road entry shows cumulative traffic.
        let total_entered: u64 = net
            .topology()
            .road_ids()
            .map(|r| substrate.road_entered(r))
            .sum();
        assert!(total_entered > 0, "{backend}: entered counters track");
        // Closure round-trips through the trait.
        let internal = net
            .topology()
            .road_ids()
            .find(|&r| net.topology().road(r).is_internal())
            .unwrap();
        substrate.set_road_closed(internal, true);
        assert!(substrate.road_closed(internal));
        substrate.set_road_closed(internal, false);
        assert!(!substrate.road_closed(internal));
    }
}

#[test]
fn guarded_runs_match_unguarded_runs_on_both_backends() {
    // The guard and the profiler read, never write: stepping the same
    // seed with and without a checker after every step and a profiler
    // attached (with a mid-run closure and reopen) must produce
    // identical ledgers and metrics, no check may fire on a healthy
    // plant, and each plant section takes one lap per step.
    let grid = GridNetwork::new(GridSpec::paper());
    let net = Network::from_grid(&grid, Pattern::II);
    let closed = net
        .topology()
        .road_ids()
        .find(|&r| net.topology().road(r).is_internal())
        .unwrap();
    for backend in Backend::ALL {
        let n = grid.topology().num_intersections();
        let run = |mut guard: Option<InvariantGuard>,
                   mut profiler: Option<&mut TickProfiler>|
         -> (u64, f64, usize) {
            let mut substrate = build_substrate(
                backend,
                grid.topology().clone(),
                controllers(n),
                MicroSimConfig::default(),
            );
            let mut demand = paper_demand(&grid, Pattern::II, 300, 11);
            let mut arrivals = Vec::new();
            let mut report = StepReport::empty();
            for k in 0..300u64 {
                if k == 80 || k == 200 {
                    substrate.set_road_closed(closed, k == 80);
                    if let Some(guard) = guard.as_mut() {
                        guard.road_toggled(closed);
                    }
                }
                arrivals.clear();
                demand.poll_into(&grid, Tick::new(k), &mut arrivals);
                substrate.step_into(&mut arrivals, &mut report, profiler.as_deref_mut());
                if let Some(guard) = guard.as_mut() {
                    guard.check(&*substrate);
                }
            }
            (
                substrate.ledger().completed(),
                substrate.mean_waiting_including_active(),
                substrate.backlog_len(),
            )
        };
        let mut profiler = TickProfiler::new();
        assert_eq!(
            run(
                Some(InvariantGuard::new(GuardMode::Panic)),
                Some(&mut profiler)
            ),
            run(None, None),
            "{backend}"
        );
        for section in Section::ALL {
            let engine_only = matches!(section, Section::Replan | Section::Monitor);
            let laps = if engine_only { 0 } else { 300 };
            assert_eq!(
                profiler.stats(section).count(),
                laps,
                "{backend} {section:?}"
            );
        }
        let calls = profiler.decide_calls_per_tick().unwrap();
        assert!(calls > 0.0 && calls <= n as f64, "{backend}: {calls}");
    }
}

#[test]
fn replan_walk_reports_committed_prefixes() {
    // Every visited vehicle must present a committed prefix that is
    // consistent with its route (at least the next crossing when in the
    // network, nothing when backlogged), and a `None`-returning callback
    // must rewrite nobody.
    let grid = GridNetwork::new(GridSpec::paper());
    for backend in Backend::ALL {
        let n = grid.topology().num_intersections();
        let mut substrate = build_substrate(
            backend,
            grid.topology().clone(),
            controllers(n),
            MicroSimConfig::default(),
        );
        let mut demand = paper_demand(&grid, Pattern::II, 150, 9);
        let mut arrivals = Vec::new();
        let mut report = StepReport::empty();
        for k in 0..150u64 {
            arrivals.clear();
            demand.poll_into(&grid, Tick::new(k), &mut arrivals);
            substrate.step_into(&mut arrivals, &mut report, None);
        }
        let mut visited = 0u64;
        let mut last_id = None;
        let rewritten = substrate.replan_routes(&mut |id, route, fixed| {
            visited += 1;
            assert!(fixed <= route.len() + 1, "{backend}: prefix out of range");
            assert_ne!(
                Some(id),
                last_id,
                "{backend}: each visit is a distinct vehicle"
            );
            last_id = Some(id);
            None
        });
        assert_eq!(rewritten, 0);
        assert!(visited > 0, "{backend}: a loaded network has vehicles");
    }
}

/// Steps `plant` 300 ticks of Pattern I demand through the trait object
/// alone and returns the per-step `(served, completed)` sums.
fn report_sums(plant: &mut dyn TrafficSubstrate, grid: &GridNetwork) -> (u64, u64) {
    let mut demand = paper_demand(grid, Pattern::I, 300, 5);
    let (mut arrivals, mut report) = (Vec::new(), StepReport::empty());
    let (mut served, mut completed) = (0u64, 0u64);
    for k in 0..300u64 {
        arrivals.clear();
        demand.poll_into(grid, Tick::new(k), &mut arrivals);
        plant.step_into(&mut arrivals, &mut report, None);
        assert_eq!(report.tick, Tick::new(k));
        served += u64::from(report.served);
        completed += u64::from(report.completed);
    }
    assert_eq!(completed, plant.ledger().completed());
    assert!(completed > 0 && served > completed, "a loaded grid");
    (served, completed)
}

#[test]
fn step_report_counters_sum_to_the_plant_totals() {
    // `served` is one counter on both plants: junction services on the
    // queueing plant and stop-line crossings started on the microscopic
    // one. Each plant's own running total must equal the per-step sum.
    let grid = GridNetwork::new(GridSpec::paper());
    let n = grid.topology().num_intersections();
    let mut queueing = QueueSim::new(
        grid.topology().clone(),
        controllers(n),
        QueueSimConfig::paper_exact(),
    );
    let (served, _) = report_sums(&mut queueing, &grid);
    assert_eq!(served, queueing.total_served());
    let mut micro = MicroSim::new(
        grid.topology().clone(),
        controllers(n),
        MicroSimConfig::default(),
    );
    let (served, _) = report_sums(&mut micro, &grid);
    assert_eq!(served, micro.total_crossings());
}
