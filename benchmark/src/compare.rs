//! `compare`: do two result sets of the benchmark agree?
//!
//! Per workload × end-to-end metric: both medians, the ratio with its
//! base, the bound, and a verdict — `ok`, `worse` (the second median is
//! worse than the first by more than the bound) or `unresolved` (the
//! run-to-run spread of either set is wider than the bound, so the sets
//! cannot tell). Where both sets ran the same seeds, digests and failure
//! counts must be identical: the program is deterministic per seed.

use crate::json::Json;
use crate::metrics::END_TO_END;
use crate::workloads::NAMES;

/// Verdict on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// The spread is wider than the bound.
    Unresolved,
    /// Worse by more than the bound.
    Worse,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Unresolved => "unresolved",
            Verdict::Worse => "worse",
        }
    }
}

/// The verdict for medians `a` → `b` of a metric with the given spreads.
/// `setup_s` is exempt from the spread rule (its bound only guards the
/// median), as the driver's acceptance rule has it.
pub fn verdict(
    m: &crate::metrics::EndToEnd,
    a: f64,
    b: f64,
    spread_a: f64,
    spread_b: f64,
) -> Verdict {
    if m.better.worse_by(a, b) > m.bound {
        Verdict::Worse
    } else if m.name != "setup_s" && spread_a.max(spread_b) > m.bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn number(set: &Json, workload: &str, table: &str, metric: &str) -> Result<f64, String> {
    set.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get(table))
        .and_then(|t| t.get(metric))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{workload}.{table}.{metric} missing"))
}

/// (seed, digest, failed) of every run of a workload.
fn fingerprints(set: &Json, workload: &str) -> Vec<(u64, String, u64)> {
    set.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("runs"))
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|run| {
            Some((
                run.get("seed")?.as_f64()? as u64,
                run.get("digest")?.as_str()?.to_string(),
                run.get("failed")?.as_f64()? as u64,
            ))
        })
        .collect()
}

/// Compares two parsed result sets; returns the report and the worst
/// verdict. A digest or failure-count mismatch on a shared seed is `Worse`.
pub fn compare_sets(a: &Json, b: &Json) -> Result<(String, Verdict), String> {
    let mut report = format!(
        "{:<16} {:<13} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict\n",
        "workload", "metric", "median a", "median b", "b/a", "bound", "spread"
    );
    let mut worst = Verdict::Ok;
    for workload in NAMES {
        for m in &END_TO_END {
            let (ma, mb) =
                (number(a, workload, "median", m.name)?, number(b, workload, "median", m.name)?);
            // A single-run set has no spread to report.
            let spread = |set| number(set, workload, "iqr_share", m.name).unwrap_or(0.0);
            let (sa, sb) = (spread(a), spread(b));
            let v = verdict(m, ma, mb, sa, sb);
            worst = worst.max(v);
            report.push_str(&format!(
                "{workload:<16} {:<13} {ma:>14.4} {mb:>14.4} {:>9.4} {:>7.2} {:>8.4}  {}\n",
                m.name,
                mb / ma,
                m.bound,
                sa.max(sb),
                v.as_str()
            ));
        }
        let (fa, fb) = (fingerprints(a, workload), fingerprints(b, workload));
        for (seed, digest, failed) in &fa {
            if let Some((_, other_digest, other_failed)) = fb.iter().find(|(s, _, _)| s == seed) {
                if digest != other_digest || failed != other_failed {
                    worst = Verdict::Worse;
                    report.push_str(&format!(
                        "{workload:<16} seed {seed}: digest {digest} / {failed} failed vs \
                         {other_digest} / {other_failed} failed  MISMATCH\n"
                    ));
                }
            }
        }
    }
    Ok((report, worst))
}

/// Reads and compares two result-set files.
pub fn compare_files(a: &str, b: &str) -> Result<(String, Verdict), String> {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    compare_sets(&read(a)?, &read(b)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(run_s: f64, spread: f64, digest: &str) -> Json {
        let metrics = format!(
            "{{\"setup_s\": 1.0, \"run_s\": {run_s}, \"ops_per_s\": {}, \"peak_rss_mib\": 100.0}}",
            1000.0 / run_s
        );
        let spreads = format!(
            "{{\"setup_s\": 0.9, \"run_s\": {spread}, \"ops_per_s\": {spread}, \"peak_rss_mib\": 0.0}}"
        );
        let workloads: Vec<String> = NAMES
            .iter()
            .map(|w| {
                format!(
                    "\"{w}\": {{\"runs\": [{{\"seed\": 1, \"digest\": \"{digest}\", \"failed\": 0}}], \
                     \"median\": {metrics}, \"iqr_share\": {spreads}}}"
                )
            })
            .collect();
        Json::parse(&format!("{{\"workloads\": {{{}}}}}", workloads.join(", "))).unwrap()
    }

    #[test]
    fn equal_sets_are_ok_and_setup_spread_is_exempt() {
        let (report, worst) = compare_sets(&set(2.0, 0.01, "aa"), &set(2.1, 0.02, "aa")).unwrap();
        assert_eq!(worst, Verdict::Ok, "{report}");
        assert_eq!(report.matches(" ok\n").count(), NAMES.len() * END_TO_END.len());
    }

    #[test]
    fn a_slower_second_set_is_worse() {
        let (report, worst) = compare_sets(&set(2.0, 0.01, "aa"), &set(2.8, 0.01, "aa")).unwrap();
        assert_eq!(worst, Verdict::Worse);
        // run_s rose 40 %, ops_per_s fell 29 %: both beyond the 25 % bound.
        assert_eq!(report.matches(" worse\n").count(), 2 * NAMES.len());
        // The other direction is an improvement, not a regression.
        assert_eq!(
            compare_sets(&set(2.8, 0.01, "aa"), &set(2.0, 0.01, "aa")).unwrap().1,
            Verdict::Ok
        );
    }

    #[test]
    fn a_wide_spread_is_unresolved_and_a_digest_mismatch_is_worse() {
        let (_, worst) = compare_sets(&set(2.0, 0.3, "aa"), &set(2.0, 0.01, "aa")).unwrap();
        assert_eq!(worst, Verdict::Unresolved);
        let (report, worst) = compare_sets(&set(2.0, 0.01, "aa"), &set(2.0, 0.01, "bb")).unwrap();
        assert_eq!(worst, Verdict::Worse);
        assert!(report.contains("MISMATCH"));
    }
}
