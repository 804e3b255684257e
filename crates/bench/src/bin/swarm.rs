//! Swarm-transfer benchmark: multi-provider Bitswap sessions over chunked
//! Merkle-DAGs.
//!
//! Extends the paper's single-provider retrieval cells (§6.2) with the
//! session layer the deployed client ships: WANT-HAVE broadcast over the
//! provider swarm, want splitting with per-peer in-flight budgets, EWMA
//! latency scoring, duplicate-factor ablation and renege re-routing (see
//! `bench::swarm`). Reports sim-time goodput against swarm size for
//! 512 KiB – 64 MiB DAGs.
//!
//! Stdout is byte-identical for any `IPFS_REPRO_JOBS` value (cells are
//! pure functions of the master seed; see `bench::runner`). Wall-clock
//! events/sec goes to stderr and the exported JSON only. When
//! `IPFS_REPRO_CSV_DIR` is set, results land in `BENCH_swarm.json`.
//!
//! Flags:
//! * `--smoke` — tiny fixed-size run for the CI determinism gate.
//! * `--trace-out <path>` — additionally collect distributed traces and
//!   dump the slowest retrievals' stitched trees (cross-node spans +
//!   critical path) as JSON exemplars; the report is unchanged.

use bench::swarm::{bench_doc, render_report, render_trace_out, run_all_traced, SwarmBenchConfig};
use bench::RunConfig;

/// Slowest retrievals kept in the `--trace-out` exemplar dump.
const TRACE_OUT_SLOWEST: usize = 8;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let trace_out = args
        .iter()
        .position(|a| a == "--trace-out")
        .and_then(|i| args.get(i + 1))
        .map(String::from);

    let run =
        RunConfig::start("Swarm transfer", "multi-provider Bitswap sessions over chunked DAGs");
    let seed = run.seed;
    let cfg = if smoke { SwarmBenchConfig::smoke() } else { SwarmBenchConfig::at_scale(run.scale) };

    let outputs = run_all_traced(&cfg, seed, smoke, run.jobs, trace_out.is_some());
    print!("{}", render_report(&outputs));
    if let Some(path) = &trace_out {
        let doc = render_trace_out(&outputs, seed, TRACE_OUT_SLOWEST);
        if let Err(e) = std::fs::write(path, &doc) {
            eprintln!("swarm: cannot write {path}: {e}");
            std::process::exit(2);
        }
        println!("wrote {path}");
    }

    // Wall-clock rates to stderr: stdout must stay byte-identical across
    // job counts and machines.
    for c in &outputs {
        eprintln!("{}: {:.0} sim events/s", c.label, c.events as f64 / c.wall_sec);
    }

    if let Some(path) = bench_doc(&outputs, &run).write() {
        println!("wrote {}", path.display());
    }
}
