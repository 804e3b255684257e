//! Ablation: the DHT client/server split.
//!
//! §6.4: "the distinction between server and client peers (after the v0.5
//! release of IPFS) has given a significant boost to the performance of
//! IPFS, as peers avoid costly operations of attempting to punch through
//! NATs, failing and timing out eventually."
//!
//! With the split disabled, NAT'ed clients sit in routing tables like any
//! other peer; every walk wastes transport timeouts dialing them.

use bench::stats::Summary;
use bench::{RunConfig, ScaleConfig};
use ipfs_core::{DhtPerfConfig, DhtPerfExperiment, NetworkConfig};

fn main() {
    let run =
        RunConfig::start("Ablation", "DHT client/server split on vs off (pre-v0.5 behaviour)");
    let cfg = ScaleConfig::resolve(run.scale);
    let seed = run.seed;

    let mut rows = Vec::new();
    for split_disabled in [false, true] {
        let r = DhtPerfExperiment::new(DhtPerfConfig {
            population: cfg.population,
            iterations_per_region: cfg.iterations_per_region.min(10),
            seed,
            network: NetworkConfig {
                clients_in_routing_tables: split_disabled,
                ..Default::default()
            },
            ..Default::default()
        })
        .run();
        let pub_totals: Vec<f64> = r.publishes.iter().map(|(_, p)| p.total.as_secs_f64()).collect();
        let ret_totals: Vec<f64> = r.retrieves.iter().map(|(_, p)| p.total.as_secs_f64()).collect();
        rows.push((
            split_disabled,
            Summary::of(&pub_totals),
            Summary::of(&ret_totals),
            r.retrieve_success_rate(),
        ));
    }

    println!("mode               pub p50    pub p95    ret p50    ret p95    ret success");
    for (disabled, p, r, ok) in &rows {
        println!(
            "{:<18} {:>7.1} s  {:>7.1} s  {:>7.2} s  {:>7.2} s  {:>6.1} %",
            if *disabled { "split OFF (old)" } else { "split ON (v0.5+)" },
            p.p50,
            p.p95,
            r.p50,
            r.p95,
            100.0 * ok
        );
    }
    let on = &rows[0];
    let off = &rows[1];
    println!(
        "\ndisabling the split inflates the median publication by {:.1}x and retrieval by {:.1}x \
— the \"significant boost\" of §6.4 in reverse",
        off.1.p50 / on.1.p50,
        off.2.p50 / on.2.p50,
    );
}
