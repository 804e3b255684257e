//! Gateway-fleet harness: N gateways behind a deterministic load balancer.
//!
//! Not a paper artifact by itself — the paper's Table 5 and Fig. 11 are
//! single-gateway views of a production fleet. This binary runs the fleet
//! (see `bench::gateway_fleet`): consistent-hash and round-robin routing,
//! LRU vs TinyLFU nginx admission on the same trace, singleflight
//! coalescing, negative caching, a flash-crowd shock, and a regional
//! outage with failover.
//!
//! Stdout is byte-identical for any `IPFS_REPRO_JOBS` value (cells are
//! pure functions of the master seed; see `bench::runner`). Wall-clock
//! sustained requests/sec goes to stderr and the exported JSON only. When
//! `IPFS_REPRO_CSV_DIR` is set, results land in `BENCH_gateway_fleet.json`.
//!
//! Flags:
//! * `--smoke` — tiny fixed-size run for the CI determinism gate.

use bench::gateway_fleet::{bench_doc, render_report, run_all, FleetBenchConfig};
use bench::RunConfig;

fn main() {
    let smoke = std::env::args().skip(1).any(|a| a == "--smoke");

    let run = RunConfig::start(
        "Gateway fleet",
        "load-balanced gateways: admission, coalescing, failover",
    );
    let cfg = if smoke { FleetBenchConfig::smoke() } else { FleetBenchConfig::at_scale(run.scale) };

    let outputs = run_all(&cfg, run.seed, smoke, run.jobs);
    print!("{}", render_report(&outputs));

    // Wall-clock rates to stderr: stdout must stay byte-identical across
    // job counts and machines.
    for c in &outputs {
        eprintln!("{}: {:.0} requests/s", c.label, c.requests as f64 / c.wall_sec);
    }

    if let Some(path) = bench_doc(&outputs, &run).write() {
        println!("wrote {}", path.display());
    }
}
