//! Figure 9: CDFs of content publication (a–c) and retrieval (d–f) delay
//! per AWS region.
//!
//! (a) overall publication; (b) publication DHT walk; (c) provider-record
//! RPC batch; (d) overall retrieval; (e) both retrieval DHT walks;
//! (f) content fetch.

use bench::stats::{ascii_series, cdf_points, Summary};
use bench::{RunConfig, ScaleConfig};
use ipfs_core::{DhtPerfConfig, DhtPerfExperiment};
use simnet::latency::VantagePoint;

fn main() {
    let run = RunConfig::start("Figure 9", "publication & retrieval delay CDFs per region");
    let cfg = ScaleConfig::resolve(run.scale);
    let results = DhtPerfExperiment::new(DhtPerfConfig {
        population: cfg.population,
        iterations_per_region: cfg.iterations_per_region,
        seed: run.seed,
        ..Default::default()
    })
    .run();

    println!(
        "sample size: {} publications, {} retrievals (paper: 3,281 / 14,564; 4,324 samples per CDF)\n",
        results.publishes.len(),
        results.retrieves.len()
    );

    // --- per-region phase summaries ---
    println!("--- per-region phase summaries (seconds) ---");
    for vp in VantagePoint::ALL {
        let pubs: Vec<_> = results.publishes.iter().filter(|(v, _)| *v == vp).collect();
        let rets: Vec<_> = results.retrieves.iter().filter(|(v, _)| *v == vp).collect();
        let s = |f: &dyn Fn(&ipfs_core::PublishReport) -> f64| {
            Summary::of(&pubs.iter().map(|(_, r)| f(r)).collect::<Vec<_>>())
        };
        let t = |f: &dyn Fn(&ipfs_core::RetrieveReport) -> f64| {
            Summary::of(&rets.iter().map(|(_, r)| f(r)).collect::<Vec<_>>())
        };
        let pub_total = s(&|r| r.total.as_secs_f64());
        let pub_walk = s(&|r| r.dht_walk.as_secs_f64());
        let pub_rpc = s(&|r| r.rpc_batch.as_secs_f64());
        let ret_total = t(&|r| r.total.as_secs_f64());
        let ret_walks = t(&|r| (r.provider_walk + r.peer_walk).as_secs_f64());
        let ret_fetch = t(&|r| r.fetch.as_secs_f64());
        println!(
            "{:>14}: pub total p50={:6.2} walk p50={:6.2} rpc p50={:6.2} | ret total p50={:5.2} walks p50={:5.2} fetch p50={:5.2}",
            vp.label(),
            pub_total.p50, pub_walk.p50, pub_rpc.p50,
            ret_total.p50, ret_walks.p50, ret_fetch.p50,
        );
    }

    // --- combined CDFs, one per sub-figure ---
    let pub_total: Vec<f64> =
        results.publishes.iter().map(|(_, r)| r.total.as_secs_f64()).collect();
    let pub_walk: Vec<f64> =
        results.publishes.iter().map(|(_, r)| r.dht_walk.as_secs_f64()).collect();
    let pub_rpc: Vec<f64> =
        results.publishes.iter().map(|(_, r)| r.rpc_batch.as_secs_f64()).collect();
    let ret_total: Vec<f64> =
        results.retrieves.iter().map(|(_, r)| r.total.as_secs_f64()).collect();
    let ret_walks: Vec<f64> = results
        .retrieves
        .iter()
        .map(|(_, r)| (r.provider_walk + r.peer_walk).as_secs_f64())
        .collect();
    let ret_fetch: Vec<f64> =
        results.retrieves.iter().map(|(_, r)| r.fetch.as_secs_f64()).collect();

    for (csv_name, data) in [
        ("fig09a_pub_total", &pub_total),
        ("fig09b_pub_walk", &pub_walk),
        ("fig09c_pub_rpc", &pub_rpc),
        ("fig09d_ret_total", &ret_total),
        ("fig09e_ret_walks", &ret_walks),
        ("fig09f_ret_fetch", &ret_fetch),
    ] {
        bench::export::write_series_csv(&run, csv_name, "seconds", "cdf", &cdf_points(data, 100));
    }

    println!();
    for (name, data) in [
        ("Fig 9a — overall publication (s)", &pub_total),
        ("Fig 9b — publication DHT walk (s)", &pub_walk),
        ("Fig 9c — provider-record RPC batch (s)", &pub_rpc),
        ("Fig 9d — overall retrieval (s)", &ret_total),
        ("Fig 9e — retrieval DHT walks (s)", &ret_walks),
        ("Fig 9f — content fetch (s)", &ret_fetch),
    ] {
        println!("{}", ascii_series(name, &cdf_points(data, 20), 48));
    }

    // --- headline comparisons ---
    let walk_share: f64 = results
        .publishes
        .iter()
        .map(|(_, r)| r.dht_walk.as_secs_f64() / r.total.as_secs_f64().max(1e-9))
        .sum::<f64>()
        / results.publishes.len().max(1) as f64;
    println!(
        "publication: DHT walk covers {:.1} % of the total on average (paper: 87.9 %)",
        100.0 * walk_share
    );
    let rpc_under_2s =
        pub_rpc.iter().filter(|&&x| x < 2.0).count() as f64 / pub_rpc.len().max(1) as f64;
    let rpc_over_5s =
        pub_rpc.iter().filter(|&&x| x > 5.0).count() as f64 / pub_rpc.len().max(1) as f64;
    let rpc_over_20s =
        pub_rpc.iter().filter(|&&x| x > 20.0).count() as f64 / pub_rpc.len().max(1) as f64;
    println!(
        "RPC batches: {:.1} % under 2 s (paper 43.3 %), {:.1} % over 5 s (paper 53.7 %), {:.1} % over 20 s (paper 11.3 %)",
        100.0 * rpc_under_2s,
        100.0 * rpc_over_5s,
        100.0 * rpc_over_20s
    );
    println!(
        "retrieval success rate: {:.1} % (paper: 100 %)",
        100.0 * results.retrieve_success_rate()
    );
    let fetch_under =
        ret_fetch.iter().filter(|&&x| x < 1.26).count() as f64 / ret_fetch.len().max(1) as f64;
    println!("content exchange under 1.26 s: {:.1} % (paper: >99 %)", 100.0 * fetch_under);
}
