//! # utilbp-bench
//!
//! The simulator throughput harness for the adaptive back-pressure
//! workspace. It has two binaries:
//!
//! - `sim_throughput` steps both substrates over fixed workloads under
//!   UTIL-BP and appends one run to the machine-readable perf trajectory
//!   (`BENCH_sim_throughput.json`);
//! - `verify_bench` checks a trajectory file's structural invariants.
//!
//! The JSON rendering and those invariants live in [`trajectory`], shared
//! by both binaries and unit-tested, so the checks also run locally via
//! `cargo test -p utilbp-bench`; so does [`positive_count`], the parse
//! of `sim_throughput`'s count knobs (`BENCH_TICKS`, `BENCH_REPS`).
//!
//! The paper's tables and figures and the extension studies are
//! regenerated by the `utilbp-experiments` binaries (`fig2`, `table3`,
//! `fig3_fig4`, `fig5`, `ablations`); the engine-level benchmark with
//! per-layer metrics is the separate `perfbench` package.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod trajectory;

/// Parses the value of the count knob `name` (`None` when the variable
/// is unset): a count must be a positive integer, so a run never
/// silently measures full length on a typo or records rows that measured
/// no ticks.
///
/// # Errors
///
/// Returns a message naming the variable and its value when the value
/// is not a positive integer of `T`.
pub fn positive_count<T>(name: &str, value: Option<&str>) -> Result<Option<T>, String>
where
    T: std::str::FromStr + PartialEq + From<u8>,
{
    let Some(value) = value else {
        return Ok(None);
    };
    match value.parse::<T>() {
        Ok(n) if n != T::from(0) => Ok(Some(n)),
        _ => Err(format!(
            "{name}: expected a positive integer, got `{value}`"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_knobs_accept_only_positive_integers() {
        assert_eq!(positive_count::<u64>("BENCH_TICKS", None), Ok(None));
        assert_eq!(
            positive_count::<u64>("BENCH_TICKS", Some("25")),
            Ok(Some(25))
        );
        assert_eq!(positive_count::<u32>("BENCH_REPS", Some("1")), Ok(Some(1)));
        for (name, bad) in [
            ("BENCH_TICKS", "0"),
            ("BENCH_TICKS", "ten"),
            ("BENCH_TICKS", "-5"),
            ("BENCH_TICKS", ""),
            ("BENCH_REPS", "0"),
            ("BENCH_REPS", "3x"),
        ] {
            assert_eq!(
                positive_count::<u64>(name, Some(bad)),
                Err(format!("{name}: expected a positive integer, got `{bad}`"))
            );
        }
        // Out of the knob's range is not a count either.
        assert!(positive_count::<u32>("BENCH_REPS", Some("4294967296")).is_err());
    }
}
