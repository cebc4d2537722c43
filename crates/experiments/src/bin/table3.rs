//! Regenerates Table III: per-pattern best-period CAP-BP vs UTIL-BP.
//!
//! Env: `UTILBP_QUICK=1` for a scaled run, `UTILBP_BACKEND=queueing|micro`.

fn main() {
    let opts = utilbp_experiments::ExperimentOptions::from_env().unwrap_or_else(|e| {
        eprintln!("table3: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "running Table III on the {} backend (hour = {} ticks)…",
        opts.backend,
        opts.hour.count()
    );
    let result = utilbp_experiments::table3(&opts);
    println!("{}", result.render());
}
