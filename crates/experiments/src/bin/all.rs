//! Regenerates every table and figure of the paper's evaluation section in
//! one run, plus the input tables and the ablation extension.

fn main() {
    let opts = utilbp_experiments::ExperimentOptions::from_env().unwrap_or_else(|e| {
        eprintln!("all: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "regenerating all artifacts on the {} backend (hour = {} ticks)…",
        opts.backend,
        opts.hour.count()
    );

    println!(
        "{}",
        utilbp_experiments::render_table1(&utilbp_netgen::TurningProbabilities::PAPER,)
    );
    println!("{}", utilbp_experiments::render_table2());

    let fig2 = utilbp_experiments::fig2(&opts);
    println!("{}", fig2.render());

    let table3 = utilbp_experiments::table3(&opts);
    println!("{}", table3.render());

    let detail = utilbp_experiments::pattern1_detail(&opts);
    println!("{}", detail.render_fig3_fig4());
    println!("{}", detail.render_fig5());

    let ablation = utilbp_experiments::ablation(&opts, utilbp_netgen::Pattern::I);
    println!("{}", ablation.render());
}
