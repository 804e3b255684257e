//! Table 5: traffic and latencies at the gateway per serving tier.
//!
//! Paper:
//! ```text
//!                  nginx cache  IPFS node store  Non Cached
//! Latency (median)  0 s          8 ms             4.04 s
//! Traffic served    46.4 %       38.0 %           15.6 %
//! Requests served   46.0 %       40.2 %           13.8 %
//! ```

use bench::stats::{markdown_table, percentile};
use bench::{RunConfig, ScaleConfig};
use gateway::workload::{GatewayWorkload, WorkloadConfig};
use gateway::{Gateway, GatewayConfig, ServedBy};
use ipfs_core::{IpfsNetwork, NetworkConfig, NodeId};
use simnet::latency::VantagePoint;
use simnet::{Population, PopulationConfig, SimDuration};

fn main() {
    let run = RunConfig::start("Table 5", "gateway cache-tier latency and traffic split");
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

    let total_requests = log.len() as f64;
    let total_bytes: u64 = log.iter().map(|e| e.bytes).sum();
    let paper = [
        (ServedBy::NginxCache, "0 s", "46.4 %", "46.0 %"),
        (ServedBy::NodeStore, "8 ms", "38.0 %", "40.2 %"),
        (ServedBy::Network, "4.04 s", "15.6 %", "13.8 %"),
    ];
    let mut rows = Vec::new();
    for (tier, p_lat, p_traffic, p_req) in paper {
        let entries: Vec<_> = log.iter().filter(|e| e.served_by == tier).collect();
        let lats: Vec<f64> = entries.iter().map(|e| e.latency.as_secs_f64()).collect();
        let bytes: u64 = entries.iter().map(|e| e.bytes).sum();
        rows.push(vec![
            tier.label().to_string(),
            format!("{:.3} s", percentile(&lats, 50.0)),
            format!("{:.1} %", 100.0 * bytes as f64 / total_bytes as f64),
            format!("{:.1} %", 100.0 * entries.len() as f64 / total_requests),
            format!("{p_lat} / {p_traffic} / {p_req}"),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &[
                "Tier",
                "Latency (median)",
                "Traffic served",
                "Requests served",
                "Paper (lat/traffic/req)"
            ],
            &rows
        )
    );
    // "Cached" means the content-bearing tiers only — a negative-cache
    // answer is a remembered failure, not cached content.
    let combined = log
        .iter()
        .filter(|e| matches!(e.served_by, ServedBy::NginxCache | ServedBy::NodeStore))
        .count() as f64
        / total_requests;
    println!(
        "combined cache tiers serve {:.1} % of requests (paper: >80 %); nginx lifetime hit rate {:.1} %",
        100.0 * combined,
        100.0 * gw.nginx.hit_rate()
    );
}
