//! Regenerates Figs. 3 and 4: Pattern I phase traces at the top-right
//! intersection under CAP-BP (optimal period) and UTIL-BP.

fn main() {
    let opts = utilbp_experiments::ExperimentOptions::from_env().unwrap_or_else(|e| {
        eprintln!("fig3_fig4: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "running Figs. 3–4 on the {} backend ({} ticks)…",
        opts.backend,
        opts.trace_horizon.count()
    );
    let detail = utilbp_experiments::pattern1_detail(&opts);
    println!("{}", detail.render_fig3_fig4());
}
