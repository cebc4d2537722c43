//! Regenerates every artifact and writes CSV files for external plotting.
//!
//! Output directory: `UTILBP_OUT` (default `target/experiments`).

fn main() {
    let opts = utilbp_experiments::ExperimentOptions::from_env().unwrap_or_else(|e| {
        eprintln!("export: {e}");
        std::process::exit(1);
    });
    let dir = std::env::var("UTILBP_OUT").unwrap_or_else(|_| "target/experiments".to_string());
    let dir = std::path::PathBuf::from(dir);
    eprintln!(
        "exporting artifacts to {} (backend={}, hour={} ticks)…",
        dir.display(),
        opts.backend,
        opts.hour.count()
    );
    let table3 = utilbp_experiments::table3(&opts);
    let detail = utilbp_experiments::pattern1_detail(&opts);
    match utilbp_experiments::artifacts::export_all(&dir, &table3, &detail) {
        Ok(paths) => {
            for p in paths {
                println!("wrote {}", p.display());
            }
        }
        Err(e) => {
            eprintln!("export failed: {e}");
            std::process::exit(1);
        }
    }
}
