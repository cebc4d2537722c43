//! Regenerates Fig. 5: queue lengths at the east approach of the top-right
//! intersection, Pattern I, CAP-BP vs UTIL-BP.

fn main() {
    let opts = utilbp_experiments::ExperimentOptions::from_env().unwrap_or_else(|e| {
        eprintln!("fig5: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "running Fig. 5 on the {} backend ({} ticks)…",
        opts.backend,
        opts.trace_horizon.count()
    );
    let detail = utilbp_experiments::pattern1_detail(&opts);
    println!("{}", detail.render_fig5());
}
