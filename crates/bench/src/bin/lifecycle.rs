//! Content-lifecycle benchmark: keyspace-ordered reprovide sweep vs
//! per-CID republish chains at 10k/100k (and, at paper scale, 1M) CIDs.
//!
//! Reports DHT messages per maintained record for both maintenance
//! modes, resident provider records and per-node state bytes,
//! record-availability around a crash that spans a republish boundary,
//! and the same lifecycle through the region-sharded PDES (see
//! `bench::lifecycle`).
//!
//! Stdout is byte-identical for any `IPFS_REPRO_JOBS` and
//! `IPFS_REPRO_SHARDS` value (cells are pure functions of the master
//! seed; the PDES cell's results are shard-invariant). Wall-clock
//! events/sec goes to stderr and the exported JSON only. When
//! `IPFS_REPRO_CSV_DIR` is set, results land in `BENCH_lifecycle.json`.
//!
//! Flags:
//! * `--smoke` — tiny fixed-size run for the CI determinism gate.

use bench::lifecycle::{bench_doc, render_report, run_all};
use bench::RunConfig;

fn main() {
    let smoke = std::env::args().skip(1).any(|a| a == "--smoke");

    let run = RunConfig::start("Content lifecycle", "reprovide sweep vs per-CID chains at scale");

    let outputs = run_all(&run, smoke);
    print!("{}", render_report(&outputs));

    // Wall-clock rates to stderr: stdout must stay byte-identical across
    // job counts and machines.
    for c in &outputs {
        eprintln!("{}: {:.0} sim events/s", c.label, c.events as f64 / c.wall_sec);
    }

    if let Some(path) = bench_doc(&outputs, &run).write() {
        println!("wrote {}", path.display());
    }
}
