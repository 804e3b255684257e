//! Chaos harness: fault injection and recovery measurement.
//!
//! Not a paper artifact — the paper (§6.1) measures steady-state dial
//! failures and churn; this binary measures how the same stack *recovers*
//! from scripted correlated failures (see `crates/faultsim`). Six
//! scenarios, each an independent deterministic cell:
//!
//! 1. **regional_partition** — a vantage region is cut off; reports
//!    retrieval failure during the window, time-to-first-successful
//!    retrieval after heal, and routing-table staleness decay.
//! 2. **crash_wave** — half the online peers crash and restart; reports
//!    provider-record reachability during and after.
//! 3. **dial_fail_spike** — +60 % dial failures network-wide; reports
//!    publish success and walk failures during vs after.
//! 4. **degraded_links** — 4× latency and 5 % loss everywhere; retrieval
//!    slows but completes, then returns to baseline.
//! 5. **provider_crash_midfetch** — the busiest provider of a 3-peer
//!    swarm transfer crashes mid-fetch; the Bitswap session re-routes its
//!    in-flight wants to the survivors and the retrieval completes.
//! 6. **gateway_dip** — the gateway's region is partitioned for two hours
//!    of the day; reports the hit-rate dip and recovery per time bin.
//!
//! Output is byte-identical for any `IPFS_REPRO_JOBS` value (cells are
//! pure functions of the master seed; see `bench::runner`). When
//! `IPFS_REPRO_CSV_DIR` is set, results land in `BENCH_chaos.json`.
//!
//! Flags:
//! * `--smoke` — tiny fixed-size run for the CI determinism gate.

use bench::chaos::{bench_doc, render_report, run_all, ChaosConfig};
use bench::RunConfig;

fn main() {
    let smoke = std::env::args().skip(1).any(|a| a == "--smoke");
    let run = RunConfig::start("Chaos", "fault injection & recovery measurement (faultsim)");
    let cfg = if smoke { ChaosConfig::smoke() } else { ChaosConfig::at_scale(run.scale) };

    let outputs = run_all(&cfg, run.seed, run.jobs);
    print!("{}", render_report(&outputs));

    if let Some(ts) = outputs.iter().find_map(|c| c.timeseries.as_ref()) {
        if let Some(path) = bench::write_timeseries_csv(&run, "chaos_gateway_timeseries", ts) {
            eprintln!("wrote {}", path.display());
        }
    }
    if let Some(path) = bench_doc(&outputs, &run).write() {
        println!("wrote {}", path.display());
    }
}
