//! Extension experiments, all on Pattern I: ablates UTIL-BP's mechanisms
//! (hysteresis, special cases, per-movement pressure, adaptivity), then
//! runs the α/β trade-off, seed robustness, lane discipline, detector
//! range and sensor-dropout studies.

use utilbp_baselines::SensorFaultConfig;
use utilbp_core::Tick;
use utilbp_experiments::{
    ablation, plant_studies, robustness, scenario_comparison, tradeoff, Backend, ControllerKind,
    ExperimentOptions,
};
use utilbp_netgen::{GridSpec, Pattern};
use utilbp_scenario::{DemandProfile, ReplanPolicy, ScenarioEvent, ScenarioSpec, TopologySpec};

fn main() {
    let opts = ExperimentOptions::from_env().unwrap_or_else(|e| {
        eprintln!("ablations: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "running ablations on the {} backend (hour = {} ticks)…",
        opts.backend,
        opts.hour.count()
    );
    println!("{}", ablation(&opts, Pattern::I).render());

    let result = tradeoff(&opts, Pattern::I);
    println!("{}", result.render());
    let best = result.best();
    println!("best combination: alpha={} beta={}", best.alpha, best.beta);
    println!();

    // Keep the period sweep light per seed.
    let mut sweep = opts.clone();
    sweep.periods = vec![10, 16, 24];
    println!(
        "{}",
        robustness(&sweep, Pattern::I, &[2020, 2021, 2022, 2023, 2024]).render()
    );

    println!("{}", plant_studies(&opts, Pattern::I));

    // Every detector of every intersection drops readings at the given
    // rate for the whole horizon.
    let specs: Vec<ScenarioSpec> = [0.0, 0.05, 0.2, 0.5]
        .into_iter()
        .map(|dropout| ScenarioSpec {
            name: format!("dropout-{:.0}%", dropout * 100.0),
            seed: opts.seed,
            horizon: opts.hour,
            topology: TopologySpec::Grid {
                spec: GridSpec::paper(),
                pattern: Pattern::I,
            },
            demand: DemandProfile::Constant,
            events: vec![ScenarioEvent::SensorFault {
                config: SensorFaultConfig {
                    dropout,
                    ..SensorFaultConfig::NONE
                },
                from: Tick::ZERO,
                until: Tick::new(opts.hour.count()),
            }],
            replan: ReplanPolicy::Off,
            watchdog: None,
        })
        .collect();
    let controllers = [ControllerKind::UtilBp, ControllerKind::CapBp { period: 16 }];
    let dropout = scenario_comparison(&specs, &[Backend::Microscopic], &controllers, None);
    println!(
        "Sensor-dropout robustness (Pattern I)\n\n{}",
        dropout.render()
    );
}
