//! Ablation: serial Bitswap-then-DHT vs parallel Bitswap+DHT discovery.
//!
//! §6.2/§6.4: "running DHT lookups in parallel to Bitswap could be
//! superior, by trading additional network requests for faster retrieval
//! times" — the 1 s opportunistic timeout is a fixed floor on every
//! DHT-resolved retrieval.

use bench::stats::Summary;
use bench::{RunConfig, ScaleConfig};
use ipfs_core::{DhtPerfConfig, DhtPerfExperiment, NetworkConfig};

fn main() {
    let run = RunConfig::start("Ablation", "serial (1 s Bitswap first) vs parallel DHT+Bitswap");
    let cfg = ScaleConfig::resolve(run.scale);
    let seed = run.seed;

    let mut results = Vec::new();
    for parallel in [false, true] {
        let r = DhtPerfExperiment::new(DhtPerfConfig {
            population: cfg.population,
            iterations_per_region: cfg.iterations_per_region.min(10),
            seed,
            network: NetworkConfig { parallel_dht_and_bitswap: parallel, ..Default::default() },
            ..Default::default()
        })
        .run();
        let totals: Vec<f64> = r.retrieves.iter().map(|(_, rep)| rep.total.as_secs_f64()).collect();
        results.push((parallel, Summary::of(&totals), r.retrieve_success_rate()));
    }

    println!("mode        n      mean    p50     p90     p95    success");
    for (parallel, s, ok) in &results {
        println!(
            "{:<10} {:>5}  {:>6.2}s {:>6.2}s {:>6.2}s {:>6.2}s  {:>5.1} %",
            if *parallel { "parallel" } else { "serial" },
            s.n,
            s.mean,
            s.p50,
            s.p90,
            s.p95,
            100.0 * ok
        );
    }
    let serial_p50 = results[0].1.p50;
    let parallel_p50 = results[1].1.p50;
    println!(
        "\nparallel lookup saves {:.2} s at the median ({:.0} % of the serial time) — \
the Bitswap timeout floor the paper identifies (up to 1 s, §6.2 footnote 4)",
        serial_p50 - parallel_p50,
        100.0 * (serial_p50 - parallel_p50) / serial_p50
    );
}
