//! Latency-attribution harness: the §6.2 / Fig. 9b–10 decomposition.
//!
//! Folds every traced retrieval into a span tree and a
//! [`ipfs_core::LatencyBreakdown`] whose components partition the op
//! interval exactly, then reports p50/p90/p99 per pipeline phase for
//! each (publisher region × clean/faulted) cell. On the default
//! workload the DHT walk dominates, as the paper measures.
//!
//! Writes `tab_latency_attribution.txt` and `BENCH_latency.json` into
//! `--out <dir>` (default `results/` for a full run; a `--smoke` run writes
//! them only when `--out` is given, so it never overwrites the committed
//! recording); with `IPFS_REPRO_CSV_DIR` set the JSON is additionally
//! exported there. Output is byte-identical for any
//! `IPFS_REPRO_JOBS` value (cells are pure functions of the master seed;
//! see `bench::runner`).
//!
//! Flags:
//! * `--smoke` — tiny fixed-size run for the CI determinism gate.
//! * `--out <dir>` — where the table and JSON land (default `results`,
//!   none under `--smoke`).
//! * `--trace-out <path>` — additionally collect distributed traces and
//!   dump the slowest ops' stitched trees (cross-node spans + critical
//!   path) as JSON exemplars; measured tables are unchanged.

use bench::latency::{bench_doc, render_table, render_trace_out, run_all_traced, LatencyConfig};
use bench::RunConfig;
use std::path::Path;

/// Slowest ops kept in the `--trace-out` exemplar dump.
const TRACE_OUT_SLOWEST: usize = 8;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_dir = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .or_else(|| (!smoke).then(|| "results".to_string()));
    let trace_out = args
        .iter()
        .position(|a| a == "--trace-out")
        .and_then(|i| args.get(i + 1))
        .map(String::from);

    let run = RunConfig::start("Latency", "per-phase retrieval latency attribution (span trees)");
    let seed = run.seed;
    let cfg = if smoke { LatencyConfig::smoke() } else { LatencyConfig::at_scale(run.scale) };

    let results = run_all_traced(&cfg, seed, run.jobs, trace_out.is_some());
    let table = render_table(&results);
    print!("{table}");
    let doc = bench_doc(&results, &run);
    let json = doc.render();

    if let Some(dir) = out_dir.as_deref().map(Path::new) {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("latency: cannot create {}: {e}", dir.display());
            std::process::exit(2);
        }
        for (name, body) in [("tab_latency_attribution.txt", &table), ("BENCH_latency.json", &json)]
        {
            let path = dir.join(name);
            if let Err(e) = std::fs::write(&path, body) {
                eprintln!("latency: cannot write {}: {e}", path.display());
                std::process::exit(2);
            }
            println!("wrote {}", path.display());
        }
    }
    if let Some(path) = doc.write() {
        println!("wrote {}", path.display());
    }
    if let Some(path) = trace_out {
        let doc = render_trace_out(&results, seed, TRACE_OUT_SLOWEST);
        if let Err(e) = std::fs::write(&path, &doc) {
            eprintln!("latency: cannot write {path}: {e}");
            std::process::exit(2);
        }
        println!("wrote {path}");
    }
}
