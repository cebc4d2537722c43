//! CSV export of every regenerated artifact, so external plotting tools
//! can draw the paper's figures from this workspace's data.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::comparison::Comparison;
use crate::table3::Table3Result;
use crate::traces::Pattern1Detail;

/// Renders Fig. 2's sweep as CSV (`period,capbp,utilbp`).
pub(crate) fn fig2_csv(result: &Comparison) -> String {
    let mut out = String::from("period_s,capbp_avg_queuing_s,utilbp_avg_queuing_s\n");
    for &(period, capbp) in &result.capbp {
        out.push_str(&format!("{period},{capbp},{}\n", result.utilbp));
    }
    out
}

/// Renders Table III as CSV.
pub(crate) fn table3_csv(result: &Table3Result) -> String {
    let mut out = String::from(
        "pattern,capbp_best_period_s,capbp_avg_queuing_s,utilbp_avg_queuing_s,improvement_pct\n",
    );
    for row in &result.rows {
        out.push_str(&format!(
            "{},{},{},{},{:.2}\n",
            row.pattern,
            row.best_period,
            row.capbp_s,
            row.utilbp_s,
            row.improvement_pct()
        ));
    }
    out
}

/// Renders the Fig. 3/4 phase traces as CSV
/// (`tick,capbp_phase,utilbp_phase`; 0 = amber).
pub(crate) fn traces_csv(detail: &Pattern1Detail) -> String {
    let cap = detail.capbp_trace.expand();
    let util = detail.utilbp_trace.expand();
    let mut out = String::from("tick,capbp_phase,utilbp_phase\n");
    for (k, (c, u)) in cap.iter().zip(&util).enumerate() {
        out.push_str(&format!("{k},{c},{u}\n"));
    }
    out
}

/// Renders the Fig. 5 queue series as CSV (`tick,capbp_queue,utilbp_queue`).
pub(crate) fn fig5_csv(detail: &Pattern1Detail) -> String {
    let mut out = String::from("tick,capbp_queue,utilbp_queue\n");
    for ((t, c), (_, u)) in detail.capbp_queue.iter().zip(detail.utilbp_queue.iter()) {
        out.push_str(&format!("{},{c},{u}\n", t.index()));
    }
    out
}

/// Writes every artifact to `dir` (created if missing) and returns the
/// paths written: `fig2.csv` (from Table III's Mixed row),
/// `table3.csv`, `fig3_fig4_traces.csv`, `fig5.csv`.
///
/// # Errors
///
/// Propagates any I/O error from creating the directory or writing files.
pub fn export_all(
    dir: &Path,
    table3: &Table3Result,
    detail: &Pattern1Detail,
) -> io::Result<Vec<PathBuf>> {
    fs::create_dir_all(dir)?;
    let files = [
        ("fig2.csv", fig2_csv(&table3.fig2)),
        ("table3.csv", table3_csv(table3)),
        ("fig3_fig4_traces.csv", traces_csv(detail)),
        ("fig5.csv", fig5_csv(detail)),
    ];
    let mut written = Vec::with_capacity(files.len());
    for (name, contents) in files {
        let path = dir.join(name);
        fs::write(&path, contents)?;
        written.push(path);
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::ExperimentOptions;
    use crate::scenario::Backend;
    use crate::{pattern1_detail, table3};
    use utilbp_core::Ticks;

    fn tiny() -> ExperimentOptions {
        let mut opts = ExperimentOptions::quick();
        opts.backend = Backend::Queueing;
        opts.hour = Ticks::new(200);
        opts.trace_horizon = Ticks::new(200);
        opts.periods = vec![12, 20];
        opts
    }

    #[test]
    fn csv_payloads_are_well_formed() {
        let opts = tiny();
        let t3 = table3(&opts);
        let detail = pattern1_detail(&opts);

        let f2_csv = fig2_csv(&t3.fig2);
        assert!(f2_csv.starts_with("period_s,"));
        assert_eq!(f2_csv.lines().count(), 1 + opts.periods.len());

        let t3_csv = table3_csv(&t3);
        assert_eq!(t3_csv.lines().count(), 1 + 5);

        let tr_csv = traces_csv(&detail);
        assert_eq!(tr_csv.lines().count(), 1 + 200);

        let f5_csv = fig5_csv(&detail);
        assert!(f5_csv.lines().count() > 10);
    }

    #[test]
    fn export_writes_all_files() {
        let opts = tiny();
        let t3 = table3(&opts);
        let detail = pattern1_detail(&opts);

        let dir =
            std::env::temp_dir().join(format!("utilbp-artifacts-test-{}", std::process::id()));
        let written = export_all(&dir, &t3, &detail).expect("export succeeds");
        assert_eq!(written.len(), 4);
        for path in &written {
            let metadata = std::fs::metadata(path).expect("file exists");
            assert!(metadata.len() > 0, "{path:?} is empty");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
