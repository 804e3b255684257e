//! CSV and `BENCH_*.json` export for experiment results.
//!
//! Every experiment binary prints human-readable tables; when
//! `IPFS_REPRO_CSV_DIR` is set ([`RunConfig::csv_dir`]), they additionally
//! write machine-readable CSV so plots can be regenerated outside this
//! repository, and the harnesses write their `BENCH_<harness>.json`
//! through the one [`BenchDoc`] writer.

use crate::runner::RunConfig;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Escapes one CSV field (RFC 4180: quote when needed, double quotes).
fn escape(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Renders rows to CSV text.
pub fn to_csv(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(&headers.iter().map(|h| escape(h)).collect::<Vec<_>>().join(","));
    out.push('\n');
    for row in rows {
        out.push_str(&row.iter().map(|f| escape(f)).collect::<Vec<_>>().join(","));
        out.push('\n');
    }
    out
}

/// Writes `file` into the export directory `dir`, if there is one.
/// Returns the path written, or `None` when exporting is off. IO errors
/// are reported to stderr but never fail the experiment.
pub(crate) fn write_file(dir: Option<&Path>, file: &str, body: &str) -> Option<PathBuf> {
    let dir = dir?;
    let path = dir.join(file);
    match fs::create_dir_all(dir).and_then(|()| fs::write(&path, body)) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("export: cannot write {}: {e}", path.display());
            None
        }
    }
}

/// Writes `<name>.csv` into the run's export directory; see
/// [`write_file`] for the return value and error policy.
pub fn write_csv(
    run: &RunConfig,
    name: &str,
    headers: &[&str],
    rows: &[Vec<String>],
) -> Option<PathBuf> {
    write_file(run.csv_dir.as_deref(), &format!("{name}.csv"), &to_csv(headers, rows))
}

/// First line a tool prints, or "unknown" when it cannot be run.
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8_lossy(&o.stdout).lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The one `BENCH_<harness>.json` shape (example in DESIGN.md §7):
/// top-level `harness`, `seed`, `provenance` and `cells[{label, result}]`.
/// `provenance` is a single line — commit, toolchain, core count, the
/// SHA-256 kernel that ran (`sha-ni` or `portable`, ≈ 5× apart in
/// data-plane wall-clock) and the parsed knobs (the export directory is
/// where the file is) — so a byte-identity check drops it with `grep -v`.
/// `wall_sec`, `events` and `events_per_sec` appear only on cells a
/// harness timed; `result` holds the cell's deterministic output.
#[derive(Debug, Clone)]
pub struct BenchDoc {
    harness: String,
    run: RunConfig,
    cells: Vec<String>,
}

impl BenchDoc {
    /// An empty document for `harness`, produced under `run`.
    pub fn new(harness: &str, run: &RunConfig) -> BenchDoc {
        BenchDoc { harness: harness.to_string(), run: run.clone(), cells: Vec::new() }
    }

    /// Appends a cell that was not timed. `result` is a serialized JSON
    /// value.
    pub fn cell(&mut self, label: &str, result: &str) {
        self.cells.push(format!("    {{\"label\": \"{label}\", \"result\": {result}}}"));
    }

    /// Appends a cell whose `events` took `wall_sec` of wall-clock time.
    pub fn timed_cell(&mut self, label: &str, wall_sec: f64, events: u64, result: &str) {
        self.cells.push(format!(
            "    {{\"label\": \"{label}\", \"wall_sec\": {wall_sec:.6}, \"events\": {events}, \
             \"events_per_sec\": {:.1}, \"result\": {result}}}",
            events as f64 / wall_sec.max(1e-9)
        ));
    }

    /// Appends a cell that took `wall_sec` of wall-clock time and counts
    /// no events.
    pub fn wall_cell(&mut self, label: &str, wall_sec: f64, result: &str) {
        self.cells.push(format!(
            "    {{\"label\": \"{label}\", \"wall_sec\": {wall_sec:.6}, \"result\": {result}}}"
        ));
    }

    /// The serialized document, stamped with what produced it.
    pub fn render(&self) -> String {
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        format!(
            "{{\n  \"harness\": \"{}\",\n  \"seed\": {},\n  \"provenance\": {{\"git_commit\": {:?}, \
             \"rustc\": {:?}, \"nproc\": {nproc}, \"sha256\": {:?}, \"scale\": {:?}, \"jobs\": {}, \
             \"shards\": {}, \"dtrace\": {}}},\n  \"cells\": [\n{}\n  ]\n}}\n",
            self.harness,
            self.run.seed,
            tool_line("git", &["rev-parse", "HEAD"]),
            tool_line("rustc", &["--version"]),
            multiformats::sha256::backend(),
            format!("{:?}", self.run.scale).to_lowercase(),
            self.run.jobs,
            self.run.shards,
            self.run.dtrace,
            self.cells.join(",\n")
        )
    }

    /// Writes `BENCH_<harness>.json` into the run's export directory, if
    /// it has one; see [`write_file`] for the return value and error policy.
    pub fn write(&self) -> Option<PathBuf> {
        let dir = self.run.csv_dir.as_deref()?;
        write_file(Some(dir), &format!("BENCH_{}.json", self.harness), &self.render())
    }
}

/// One stitched distributed trace collected by a harness cell, ready for
/// the exemplar dump (`<artifact>_traces.json`).
#[derive(Debug, Clone)]
pub struct TraceExemplar {
    /// End-to-end op duration in integer nanoseconds (the sort key).
    pub dur_nanos: u64,
    /// The op's id (deterministic tie-break).
    pub op: u64,
    /// The rendered exemplar object
    /// ([`ipfs_core::obs::dtrace::exemplar_json`]).
    pub json: String,
}

/// Picks the `n` slowest ops across all cells — sorted by duration
/// descending, then cell index, then op id, so the selection is
/// byte-identical at any job count — and renders the exemplar dump's
/// JSON document.
pub fn render_trace_exemplars(
    harness: &str,
    seed: u64,
    cells: &[&[TraceExemplar]],
    n: usize,
) -> String {
    let mut all: Vec<(u64, usize, u64, &str)> = Vec::new();
    for (ci, cell) in cells.iter().enumerate() {
        for e in cell.iter() {
            all.push((e.dur_nanos, ci, e.op, e.json.as_str()));
        }
    }
    all.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
    all.truncate(n);
    let entries: Vec<String> = all.iter().map(|(_, _, _, j)| format!("    {j}")).collect();
    format!(
        "{{\n  \"harness\": \"{harness}\",\n  \"seed\": {seed},\n  \"slowest\": {},\n  \"traces\": [\n{}\n  ]\n}}\n",
        entries.len(),
        entries.join(",\n")
    )
}

/// Convenience: exports a series of (x, y) points.
pub fn write_series_csv(
    run: &RunConfig,
    name: &str,
    x_label: &str,
    y_label: &str,
    points: &[(f64, f64)],
) -> Option<PathBuf> {
    let rows: Vec<Vec<String>> =
        points.iter().map(|(x, y)| vec![format!("{x}"), format!("{y}")]).collect();
    write_csv(run, name, &[x_label, y_label], &rows)
}

/// Renders a human-readable report of a metrics registry: every counter,
/// then an n/mean/p50/p90/p99 row per histogram. Uses
/// [`ipfs_core::MetricsRegistry::histogram_stats`], so both exact and
/// log-bucketed streaming histograms are covered (exact-mode values match
/// the old raw-sample summaries bit for bit — same nearest-rank formula).
pub fn metrics_report(metrics: &ipfs_core::MetricsRegistry) -> String {
    let mut out = String::from("== counters ==\n");
    for (name, value) in metrics.counters() {
        out.push_str(&format!("{name:<40} {value}\n"));
    }
    out.push_str("== histograms ==\n");
    for (name, s) in metrics.histogram_stats() {
        out.push_str(&format!(
            "{name:<40} n={} mean={:.3} p50={:.3} p90={:.3} p99={:.3}\n",
            s.n, s.mean, s.p50, s.p90, s.p99
        ));
    }
    out
}

/// Exports a [`ipfs_core::TimeSeries`] as `<name>.csv`, one row per
/// (window, metric): counters carry `value`, histogram families carry
/// `n/mean/p50/p90/p99`. Rows are ordered by window then kind then name,
/// so the file is deterministic for a deterministically built series.
pub fn write_timeseries_csv(
    run: &RunConfig,
    name: &str,
    ts: &ipfs_core::TimeSeries,
) -> Option<PathBuf> {
    let mut rows: Vec<Vec<String>> = Vec::new();
    for idx in ts.window_indices() {
        let start = ts.window_start_secs(idx);
        for (metric, value) in ts.counters_in(idx) {
            rows.push(vec![
                format!("{start}"),
                "counter".into(),
                metric.to_string(),
                value.to_string(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
            ]);
        }
        for (metric, samples) in ts.samples_in(idx) {
            let s = crate::stats::Summary::of(samples);
            rows.push(vec![
                format!("{start}"),
                "histogram".into(),
                metric.to_string(),
                String::new(),
                s.n.to_string(),
                format!("{:.6}", s.mean),
                format!("{:.6}", s.p50),
                format!("{:.6}", s.p90),
                format!("{:.6}", s.p99),
            ]);
        }
    }
    write_csv(
        run,
        name,
        &["window_start_secs", "kind", "name", "value", "n", "mean", "p50", "p90", "p99"],
        &rows,
    )
}

/// Renders the fault-injection section of a report: every `fault_*`
/// counter plus a summary of the `fault_recovery_secs` histogram
/// (time-to-first-successful-retrieval after heal). Empty string when the
/// run injected no faults, so plain runs stay byte-identical.
pub fn fault_report(metrics: &ipfs_core::MetricsRegistry) -> String {
    let mut out = String::new();
    for (name, value) in metrics.counters_with_prefix("fault_") {
        out.push_str(&format!("{name:<40} {value}\n"));
    }
    let recovery = metrics.samples(ipfs_core::obs::names::FAULT_RECOVERY_SECS);
    if !recovery.is_empty() {
        let s = crate::stats::Summary::of(recovery);
        out.push_str(&format!(
            "{:<40} n={} mean={:.3} p50={:.3} p90={:.3} p99={:.3}\n",
            "fault_recovery_secs", s.n, s.mean, s.p50, s.p90, s.p99
        ));
    }
    if out.is_empty() {
        out
    } else {
        format!("== faults ==\n{out}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_rendering_and_escaping() {
        let csv = to_csv(
            &["region", "value"],
            &[
                vec!["eu_central_1".into(), "1.81".into()],
                vec!["with,comma".into(), "with\"quote".into()],
            ],
        );
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "region,value");
        assert_eq!(lines[1], "eu_central_1,1.81");
        assert_eq!(lines[2], "\"with,comma\",\"with\"\"quote\"");
    }

    #[test]
    fn metrics_report_lists_counters_and_summaries() {
        let mut m = ipfs_core::MetricsRegistry::new();
        m.add("dials_ok", 7);
        for v in [1.0, 2.0, 3.0, 4.0] {
            m.observe("dht_walk_rpcs", v);
        }
        let report = metrics_report(&m);
        assert!(report.contains("dials_ok"));
        assert!(report.contains('7'));
        assert!(report.contains("dht_walk_rpcs"));
        assert!(report.contains("n=4"));
    }

    #[test]
    fn fault_report_is_empty_without_faults_and_lists_fault_counters() {
        let mut m = ipfs_core::MetricsRegistry::new();
        m.add("dials_ok", 3);
        assert_eq!(fault_report(&m), "", "no fault counters, no section");
        m.incr("fault_partition_starts");
        m.add("fault_dials_blocked", 12);
        m.observe("fault_recovery_secs", 4.5);
        let report = fault_report(&m);
        assert!(report.starts_with("== faults =="));
        assert!(report.contains("fault_partition_starts"));
        assert!(report.contains("fault_dials_blocked"));
        assert!(report.contains("fault_recovery_secs"));
        assert!(!report.contains("dials_ok"));
    }

    #[test]
    fn no_dir_no_write() {
        assert!(write_csv(&RunConfig::default(), "x", &["a"], &[]).is_none());
    }

    #[test]
    fn writes_into_configured_dir() {
        let dir = std::env::temp_dir().join(format!("ipfs-repro-csv-{}", std::process::id()));
        let run = RunConfig { csv_dir: Some(dir.clone()), ..RunConfig::default() };
        let path = write_csv(&run, "unit_test", &["a", "b"], &[vec!["1".into(), "2".into()]])
            .expect("written");
        assert_eq!(fs::read_to_string(&path).unwrap(), "a,b\n1,2\n");
        let _ = fs::remove_dir_all(dir);
    }

    /// Pins the one BENCH shape: top-level `harness`/`seed`, a single-line
    /// `provenance`, `cells[].label`/`result`, timing keys only when timed.
    #[test]
    fn bench_doc_shape() {
        let run = RunConfig { seed: 7, jobs: 3, ..RunConfig::default() };
        let mut doc = BenchDoc::new("unit", &run);
        doc.cell("plain", "{\"ok\": true}");
        doc.timed_cell("timed", 0.5, 100, "{\"ok\": false}");
        doc.wall_cell("wall", 1.25, "{}");
        let text = doc.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[..3], ["{", "  \"harness\": \"unit\",", "  \"seed\": 7,"]);
        assert!(lines[3].starts_with("  \"provenance\": {\"git_commit\": \""), "{}", lines[3]);
        for key in ["rustc", "nproc", "sha256", "scale", "jobs\": 3", "shards", "dtrace"] {
            assert!(lines[3].contains(&format!("\"{key}")), "{key} missing: {}", lines[3]);
        }
        let kernel = format!("\"sha256\": \"{}\"", multiformats::sha256::backend());
        assert!(lines[3].contains(&kernel), "{kernel} missing: {}", lines[3]);
        assert!(lines[3].ends_with("},"), "provenance is one line: {}", lines[3]);
        assert_eq!(lines[4], "  \"cells\": [");
        assert_eq!(lines[5], "    {\"label\": \"plain\", \"result\": {\"ok\": true}},");
        assert_eq!(
            lines[6],
            "    {\"label\": \"timed\", \"wall_sec\": 0.500000, \"events\": 100, \
             \"events_per_sec\": 200.0, \"result\": {\"ok\": false}},"
        );
        assert_eq!(lines[7], "    {\"label\": \"wall\", \"wall_sec\": 1.250000, \"result\": {}}");
        assert_eq!(lines[8..], ["  ]", "}"]);
        assert_eq!(text.matches("wall_sec").count(), 2, "no timing keys on the untimed cell");
    }
}
