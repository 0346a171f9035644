//! Small reporting helpers shared by the benchmark binaries and examples.

use crate::run::RunReport;
use crate::sweep::SweepReport;

/// Speedup of every run relative to the run whose configuration label is
/// `baseline` (the paper normalises to NATIVE X1). Returns
/// `(label, speedup)` pairs in input order.
///
/// # Panics
///
/// Panics if `baseline` is not among the reports.
#[must_use]
pub fn speedup_vs<'a>(reports: &'a [RunReport], baseline: &str) -> Vec<(&'a str, f64)> {
    let base = reports
        .iter()
        .find(|r| r.config == baseline)
        .unwrap_or_else(|| panic!("baseline configuration {baseline} not present"))
        .cycles as f64;
    reports
        .iter()
        .map(|r| (r.config.as_str(), base / r.cycles as f64))
        .collect()
}

/// Geometric mean of a set of strictly positive values (used for the
/// average-speedup summaries).
///
/// # Panics
///
/// Panics if `values` is empty or contains non-positive entries.
#[must_use]
pub fn geometric_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of an empty set");
    assert!(
        values.iter().all(|v| *v > 0.0),
        "geometric mean requires positive values"
    );
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// One-line execution summary of a sweep: points, threads, wall/busy time,
/// compile-cache traffic and (when a store was attached) how many points
/// the result store served. Printed by the benchmark binaries under
/// `--threads` and `--store` so incremental runs show what they skipped.
#[must_use]
pub fn format_sweep_summary(report: &SweepReport) -> String {
    let mut out = format!(
        "{} points on {} thread{} in {:.1} ms (busy {:.1} ms); compile cache {} hit / {} miss",
        report.points.len(),
        report.threads,
        if report.threads == 1 { "" } else { "s" },
        report.wall_ns as f64 / 1e6,
        report.busy_ns() as f64 / 1e6,
        report.cache_hits,
        report.cache_misses,
    );
    if report.store_hits + report.store_misses > 0 {
        out.push_str(&format!(
            "; store served {} of {}",
            report.store_hits,
            report.store_hits + report.store_misses
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::ScenarioConfig;
    use crate::run::run_workload;
    use crate::sweep::Sweep;
    use ava_workloads::{Axpy, SharedWorkload};
    use std::sync::Arc;

    fn two_reports() -> Vec<RunReport> {
        let w = Axpy::new(256);
        vec![
            run_workload(&w, &ScenarioConfig::native_x(1)),
            run_workload(&w, &ScenarioConfig::native_x(4)),
        ]
    }

    #[test]
    fn speedups_are_relative_to_the_baseline() {
        let reports = two_reports();
        let s = speedup_vs(&reports, "NATIVE X1");
        assert_eq!(s[0].1, 1.0);
        assert!(s[1].1 > 1.0);
    }

    #[test]
    #[should_panic(expected = "not present")]
    fn unknown_baseline_panics() {
        let reports = two_reports();
        let _ = speedup_vs(&reports, "NATIVE X9");
    }

    #[test]
    fn geometric_mean_of_known_values() {
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn geometric_mean_rejects_empty_input() {
        let _ = geometric_mean(&[]);
    }

    #[test]
    fn sweep_summary_mentions_the_store_only_when_attached() {
        let workloads: Vec<SharedWorkload> = vec![Arc::new(Axpy::new(128))];
        let sweep = Sweep::grid(workloads, vec![ScenarioConfig::native_x(1)]);
        let summary = format_sweep_summary(&sweep.runner().threads(1).run());
        assert!(summary.contains("1 point"));
        assert!(summary.contains("compile cache"));
        assert!(!summary.contains("store served"));

        let mut with_store = sweep.runner().threads(1).run();
        with_store.store_hits = 1;
        assert!(format_sweep_summary(&with_store).contains("store served 1 of 1"));
    }
}
