//! Figure 11: (a) distribution of upstream response latency and of bytes
//! downloaded per gateway request; (b) proportion of cached vs non-cached
//! traffic per 30-minute bin.
//!
//! Paper: median object 664.59 kB, 79.1 % > 100 kB; 46 % of fetches have
//! zero latency (nginx hits), node-store hits < 24 ms, 76 % of requests
//! served < 250 ms; latency/size Pearson r = 0.13.

use bench::stats::{cdf_points, fraction_below, pearson, percentile};
use bench::{RunConfig, ScaleConfig};
use gateway::log::RequestBins;
use gateway::workload::{GatewayWorkload, WorkloadConfig};
use gateway::{Gateway, GatewayConfig, ServedBy};
use ipfs_core::{IpfsNetwork, NetworkConfig, NodeId};
use simnet::latency::VantagePoint;
use simnet::{Population, PopulationConfig, SimDuration};

fn main() {
    let run = RunConfig::start("Figure 11", "gateway latency/size distributions and cache bins");
    let cfg = ScaleConfig::resolve(run.scale);
    let seed = run.seed;
    let pop = Population::generate(
        PopulationConfig {
            size: cfg.population.min(2_000),
            nat_fraction: 0.455,
            horizon: SimDuration::from_hours(26),
            ..Default::default()
        },
        seed,
    );
    let mut net = IpfsNetwork::from_population(
        &pop,
        &[VantagePoint::UsWest1],
        NetworkConfig::default(),
        seed,
    );
    let gw_node = net.vantage_ids(1)[0];
    let workload = GatewayWorkload::generate(WorkloadConfig {
        catalog_size: cfg.gateway_catalog,
        users: cfg.gateway_users,
        requests: cfg.gateway_requests,
        seed,
        ..Default::default()
    });
    let mut gw = Gateway::new(gw_node, GatewayConfig::default());
    let providers: Vec<NodeId> =
        net.server_ids().into_iter().filter(|&i| net.is_dialable(i)).take(50).collect();
    gw.install_catalog(&mut net, &workload, &providers);
    let log = gw.serve_all(&mut net, &workload);

    // --- Figure 11a: latency distribution ---
    let latencies: Vec<f64> = log.iter().map(|e| e.latency.as_secs_f64()).collect();
    let zero = latencies.iter().filter(|&&l| l == 0.0).count() as f64 / latencies.len() as f64;
    println!("--- Fig 11a: upstream response latency ---");
    println!("zero-latency (nginx hits): {:.1} % (paper: 46 %)", 100.0 * zero);
    println!("served < 250 ms: {:.1} % (paper: 76 %)", 100.0 * fraction_below(&latencies, 0.25));
    for (v, q) in cdf_points(&latencies, 10) {
        println!("  p{:>4.0}: {:>8.3} s", q * 100.0, v);
    }

    // --- Figure 11a: size distribution ---
    let sizes: Vec<f64> = log.iter().map(|e| e.bytes as f64).collect();
    println!("\n--- Fig 11a: bytes downloaded per request ---");
    println!(
        "median {:.1} kB (paper: 664.59 kB); >100 kB: {:.1} % (paper: 79.1 %)",
        percentile(&sizes, 50.0) / 1e3,
        100.0 * (1.0 - fraction_below(&sizes, 100_000.0))
    );
    let total_tb = sizes.iter().sum::<f64>() / 1e12;
    println!("total downloaded: {total_tb:.3} TB (paper: 6.57 TB at full scale)");

    // Latency/size correlation (paper: 0.13 — size-agnostic delays).
    println!("\nPearson(latency, size) = {:.3} (paper: 0.13)", pearson(&latencies, &sizes));

    // --- Figure 11b: cached vs non-cached traffic per 30-min bin ---
    println!("\n--- Fig 11b: cached vs non-cached requests per 30-min bin ---");
    let day = SimDuration::from_hours(24);
    let bin = SimDuration::from_mins(30);
    // "Cached" = the content-bearing cache tiers; a negative-cache answer
    // (remembered failure) counts on the non-cached side.
    let cached = RequestBins::build(&log, day, bin, |e| {
        matches!(e.served_by, ServedBy::NginxCache | ServedBy::NodeStore)
    });
    let noncached = RequestBins::build(&log, day, bin, |e| {
        !matches!(e.served_by, ServedBy::NginxCache | ServedBy::NodeStore)
    });
    let mut min_rate: f64 = 1.0;
    let mut max_rate: f64 = 0.0;
    for i in 0..cached.counts.len() {
        let c = cached.counts[i] as f64;
        let n = noncached.counts[i] as f64;
        if c + n > 0.0 {
            let rate = c / (c + n);
            min_rate = min_rate.min(rate);
            max_rate = max_rate.max(rate);
        }
        if i % 4 == 0 {
            println!(
                "  {:>5.1} h: cached {:>6} non-cached {:>5} ({:.0} % cached)",
                i as f64 * 0.5,
                cached.counts[i],
                noncached.counts[i],
                100.0 * c / (c + n).max(1.0)
            );
        }
    }
    println!(
        "cache-served share ranges {:.1} %–{:.1} % across bins \
(paper: nginx tier alone 32.3 %–65.6 %; combined tiers exceed 80 %)",
        100.0 * min_rate,
        100.0 * max_rate
    );
}
