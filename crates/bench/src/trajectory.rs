//! The `sim_throughput` perf-trajectory JSON: rendering, run appending,
//! and the structural invariants CI (and `cargo test`) check.
//!
//! The trajectory file is hand-rolled JSON (the workspace has no
//! serialization dependency): a `runs` array where each run records the
//! measurement protocol and one row per substrate × workload.
//! [`render_run`] and [`append_run`] produce it; [`verify_trajectory`]
//! asserts the invariants that used to live as inline Python in the CI
//! workflow — every expected run label present in order, the required
//! workload rows in the newest run, and a per-phase breakdown on at least
//! one microscopic row — so the checks run locally via
//! `cargo test -p utilbp-bench` and in CI through the `verify_bench`
//! binary, from one implementation. The file format itself (field
//! meanings, row labels, protocol entries) is documented for operators
//! in `docs/PERFORMANCE.md`; keep the two in sync when the schema
//! changes.

use utilbp_substrate::PhaseTimings;

/// Workload rows every fresh trajectory run must contain (the largest
/// grid plus the scenario-driven rows, including both replanning
/// scenarios on both substrates).
pub const REQUIRED_WORKLOADS: &[&str] = &[
    "20x20",
    "arterial-rush-hour",
    "grid-incident-replan",
    "grid-congestion-replan",
    "grid-degraded-recovery+ckpt256",
];

/// One throughput measurement: a substrate × workload row.
pub struct Measurement {
    /// Substrate name (`"queueing"` / `"microscopic"`).
    pub substrate: &'static str,
    /// Workload label: `"5x5"` for grids, the scenario name otherwise.
    pub workload: String,
    /// Measured tick count.
    pub ticks: u64,
    /// Best-of-reps wall-clock seconds for the measured ticks.
    pub seconds: f64,
    /// Per-phase breakdown (grid rows only), from one extra timed rep —
    /// fractions of that rep's step time.
    pub phases: Option<PhaseTimings>,
}

impl Measurement {
    /// The row's headline rate.
    pub fn ticks_per_sec(&self) -> f64 {
        self.ticks as f64 / self.seconds
    }
}

/// Keeps an operator-supplied string JSON-safe inside the hand-rolled
/// output (quotes, backslashes, and control characters would corrupt the
/// whole trajectory file).
pub fn sanitize(label: &str) -> String {
    label
        .chars()
        .filter(|c| !c.is_control() && *c != '"' && *c != '\\')
        .collect()
}

/// Renders one run object (protocol + results) for the `runs` array.
pub fn render_run(results: &[Measurement], warmup_ticks: u64, reps: u32, label: &str) -> String {
    let mut s = String::new();
    s.push_str("    {\n");
    s.push_str(&format!(
        "      \"protocol\": {{\"label\": \"{}\", \"warmup_ticks\": {warmup_ticks}, \"controller\": \"util-bp\", \"pattern\": \"I\", \"seed\": 7, \"best_of_reps\": {reps}}},\n",
        sanitize(label),
    ));
    s.push_str("      \"results\": [\n");
    for (i, m) in results.iter().enumerate() {
        s.push_str(&format!(
            "        {{\"substrate\": \"{}\", \"grid\": \"{}\", \"measured_ticks\": {}, \"seconds\": {:.4}, \"ticks_per_sec\": {:.1}",
            m.substrate,
            m.workload,
            m.ticks,
            m.seconds,
            m.ticks_per_sec(),
        ));
        if let Some(p) = m.phases {
            let total = p.total().max(f64::MIN_POSITIVE);
            s.push_str(&format!(
                ", \"phase_fractions\": {{\"decide\": {:.3}, \"car_following\": {:.3}, \"landings\": {:.3}, \"waiting\": {:.3}}}",
                p.decide / total,
                p.car_following / total,
                p.landings / total,
                p.waiting / total,
            ));
        }
        s.push_str(if i + 1 == results.len() {
            "}\n"
        } else {
            "},\n"
        });
    }
    s.push_str("      ]\n    }");
    s
}

/// Appends `new_run` to the `runs` array of an existing benchmark file,
/// migrating the pre-`runs` flat format (a single `protocol`/`results`
/// object) to `runs[0]`. Returns the full new file contents.
pub fn append_run(existing: Option<String>, new_run: &str) -> String {
    let header = "{\n  \"benchmark\": \"sim_throughput\",\n  \"unit\": \"ticks_per_second\",\n  \"runs\": [\n";
    let footer = "\n  ]\n}\n";
    if let Some(text) = existing {
        if let Some(end) = text.rfind("\n  ]\n}") {
            if text.contains("\"runs\": [") {
                // Already the runs format: splice before the closing `]`.
                return format!("{},\n{new_run}{footer}", &text[..end]);
            }
        }
        if let (Some(proto_start), Some(res_start)) =
            (text.find("\"protocol\": "), text.find("\"results\": [\n"))
        {
            // Flat single-run format: lift protocol + rows into runs[0].
            let proto_end = text[proto_start..].find('\n').map(|o| proto_start + o);
            let res_body_start = res_start + "\"results\": [\n".len();
            let res_end = text[res_body_start..]
                .find("\n  ]")
                .map(|o| res_body_start + o);
            if let (Some(proto_end), Some(res_end)) = (proto_end, res_end) {
                let protocol = text[proto_start..proto_end].trim_end_matches(',');
                let rows: String = text[res_body_start..res_end]
                    .lines()
                    .map(|l| format!("    {l}\n"))
                    .collect();
                let migrated = format!(
                    "    {{\n      {protocol},\n      \"results\": [\n{}      ]\n    }}",
                    rows
                );
                return format!("{header}{migrated},\n{new_run}{footer}");
            }
        }
        eprintln!("warning: could not parse existing benchmark file; starting a fresh trajectory");
    }
    format!("{header}{new_run}{footer}")
}

/// Every `"key": "value"` occurrence of `key` in `text`, in order — the
/// whole trajectory format is produced by [`render_run`], so field
/// scanning is exact for it.
fn string_values<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
    let needle = format!("\"{key}\": \"");
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(at) = rest.find(&needle) {
        let after = &rest[at + needle.len()..];
        match after.find('"') {
            Some(end) => {
                out.push(&after[..end]);
                rest = &after[end..];
            }
            None => break,
        }
    }
    out
}

/// The run labels of a trajectory file, in order.
pub fn run_labels(text: &str) -> Vec<&str> {
    string_values(text, "label")
}

/// Checks the structural invariants of a trajectory file.
///
/// - The file is the `runs` format and its run labels are exactly
///   `expected_labels`, in order.
/// - The newest run's results contain every workload in
///   [`REQUIRED_WORKLOADS`] — and each replanning scenario row on *both*
///   substrates.
/// - At least one row of the newest run carries a `phase_fractions`
///   breakdown (the microscopic phase attribution stays wired up).
///
/// # Errors
///
/// Returns a message describing the first violated invariant.
pub fn verify_trajectory(text: &str, expected_labels: &[&str]) -> Result<(), String> {
    if !text.contains("\"runs\": [") {
        return Err("not a runs-format trajectory file".to_string());
    }
    let labels = run_labels(text);
    if labels != expected_labels {
        return Err(format!(
            "run labels {labels:?} do not match expected {expected_labels:?}"
        ));
    }
    // The newest run is everything after the last protocol line.
    let last_run = text
        .rfind("\"protocol\": ")
        .map(|at| &text[at..])
        .ok_or("no run protocol found")?;
    let grids = string_values(last_run, "grid");
    for required in REQUIRED_WORKLOADS {
        if !grids.contains(required) {
            return Err(format!("newest run is missing the `{required}` row"));
        }
    }
    let substrates = string_values(last_run, "substrate");
    for scenario in ["grid-incident-replan", "grid-congestion-replan"] {
        for substrate in ["queueing", "microscopic"] {
            let found = grids
                .iter()
                .zip(&substrates)
                .any(|(g, s)| g == &scenario && s == &substrate);
            if !found {
                return Err(format!(
                    "newest run is missing the `{scenario}` row on the {substrate} substrate"
                ));
            }
        }
    }
    if !last_run.contains("\"phase_fractions\": {") {
        return Err("newest run has no phase_fractions breakdown".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measurement(substrate: &'static str, workload: &str, timed: bool) -> Measurement {
        Measurement {
            substrate,
            workload: workload.to_string(),
            ticks: 100,
            seconds: 0.5,
            phases: timed.then_some(PhaseTimings {
                decide: 0.1,
                car_following: 0.3,
                landings: 0.05,
                waiting: 0.05,
            }),
        }
    }

    /// A full synthetic run satisfying every invariant.
    fn full_run(label: &str) -> String {
        let mut rows = vec![measurement("microscopic", "20x20", true)];
        for scenario in [
            "arterial-rush-hour",
            "grid-incident-replan",
            "grid-congestion-replan",
            "grid-degraded-recovery+ckpt256",
        ] {
            for substrate in ["queueing", "microscopic"] {
                rows.push(measurement(substrate, scenario, false));
            }
        }
        render_run(&rows, 300, 3, label)
    }

    #[test]
    fn rendered_runs_append_and_verify() {
        let one = append_run(None, &full_run("first"));
        verify_trajectory(&one, &["first"]).expect("one-run file verifies");
        let two = append_run(Some(one), &full_run("second"));
        verify_trajectory(&two, &["first", "second"]).expect("appended file verifies");
        assert_eq!(run_labels(&two), ["first", "second"]);
    }

    #[test]
    fn verify_rejects_label_mismatch_and_missing_rows() {
        let text = append_run(None, &full_run("only"));
        let err = verify_trajectory(&text, &["expected"]).unwrap_err();
        assert!(err.contains("labels"), "{err}");

        // Drop the congestion rows: the invariant must name the gap.
        let partial = render_run(
            &[
                measurement("microscopic", "20x20", true),
                measurement("queueing", "arterial-rush-hour", false),
                measurement("microscopic", "arterial-rush-hour", false),
                measurement("queueing", "grid-incident-replan", false),
                measurement("microscopic", "grid-incident-replan", false),
            ],
            300,
            3,
            "partial",
        );
        let text = append_run(None, &partial);
        let err = verify_trajectory(&text, &["partial"]).unwrap_err();
        assert!(err.contains("grid-congestion-replan"), "{err}");

        // A run with a congestion row on only one substrate also fails.
        let lopsided = render_run(
            &[
                measurement("microscopic", "20x20", true),
                measurement("queueing", "arterial-rush-hour", false),
                measurement("queueing", "grid-incident-replan", false),
                measurement("microscopic", "grid-incident-replan", false),
                measurement("queueing", "grid-congestion-replan", false),
                measurement("queueing", "grid-degraded-recovery+ckpt256", false),
            ],
            300,
            3,
            "lopsided",
        );
        let text = append_run(None, &lopsided);
        let err = verify_trajectory(&text, &["lopsided"]).unwrap_err();
        assert!(
            err.contains("grid-congestion-replan") && err.contains("microscopic"),
            "{err}"
        );

        // No timed row → no phase breakdown → rejected.
        let untimed = render_run(
            &{
                let mut rows = vec![measurement("microscopic", "20x20", false)];
                for scenario in [
                    "arterial-rush-hour",
                    "grid-incident-replan",
                    "grid-congestion-replan",
                    "grid-degraded-recovery+ckpt256",
                ] {
                    for substrate in ["queueing", "microscopic"] {
                        rows.push(measurement(substrate, scenario, false));
                    }
                }
                rows
            },
            300,
            3,
            "untimed",
        );
        let text = append_run(None, &untimed);
        let err = verify_trajectory(&text, &["untimed"]).unwrap_err();
        assert!(err.contains("phase_fractions"), "{err}");
    }

    #[test]
    fn flat_format_files_migrate_to_runs_zero() {
        let flat = "{\n  \"benchmark\": \"sim_throughput\",\n  \"unit\": \"ticks_per_second\",\n  \"protocol\": {\"label\": \"legacy\", \"warmup_ticks\": 300, \"controller\": \"util-bp\", \"pattern\": \"I\", \"seed\": 7, \"best_of_reps\": 3},\n  \"results\": [\n    {\"substrate\": \"queueing\", \"grid\": \"3x3\", \"mode\": \"serial\", \"measured_ticks\": 100, \"seconds\": 0.1, \"ticks_per_sec\": 1000.0}\n  ]\n}\n";
        let migrated = append_run(Some(flat.to_string()), &full_run("fresh"));
        assert_eq!(run_labels(&migrated), ["legacy", "fresh"]);
        verify_trajectory(&migrated, &["legacy", "fresh"]).expect("migrated file verifies");
    }

    #[test]
    fn sanitize_strips_json_breaking_characters() {
        assert_eq!(sanitize("a\"b\\c\nd"), "abcd");
        assert_eq!(sanitize("pr5-run"), "pr5-run");
    }
}
