//! Regenerates Fig. 2: avg queuing time vs CAP-BP period, mixed pattern.
//!
//! Env: `UTILBP_QUICK=1` for a scaled run, `UTILBP_BACKEND=queueing|micro`.

fn main() {
    let opts = utilbp_experiments::ExperimentOptions::from_env().unwrap_or_else(|e| {
        eprintln!("fig2: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "running Fig. 2 on the {} backend (hour = {} ticks, {} periods)…",
        opts.backend,
        opts.hour.count(),
        opts.periods.len()
    );
    let result = utilbp_experiments::fig2(&opts);
    println!("{}", result.render());
}
