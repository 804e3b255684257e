//! Ablation: gateway cache capacity sweep.
//!
//! §6.3/§6.4 argue that "augmenting IPFS with a gateway model does offer a
//! meaningful strategy for reducing delays by aggregating demand via the
//! cache" (76 % of requests under 250 ms). This sweep varies the nginx
//! tier's capacity — including effectively disabling it — and reports the
//! latency users would see.

use bench::stats::{fraction_below, markdown_table, percentile};
use bench::{RunConfig, ScaleConfig};
use gateway::workload::{GatewayWorkload, WorkloadConfig};
use gateway::{Gateway, GatewayConfig, ServedBy};
use ipfs_core::{IpfsNetwork, NetworkConfig, NodeId};
use simnet::latency::VantagePoint;
use simnet::{Population, PopulationConfig, SimDuration};

fn main() {
    let run = RunConfig::start("Ablation", "gateway nginx-cache capacity sweep");
    let cfg = ScaleConfig::resolve(run.scale);
    let seed = run.seed;
    let base = GatewayConfig::default().nginx_capacity_bytes;

    let mut rows = Vec::new();
    for (label, capacity) in
        [("off (1 kB)", 1_024u64), ("x0.25", base / 4), ("x1 (default)", base), ("x4", base * 4)]
    {
        let pop = Population::generate(
            PopulationConfig {
                size: cfg.population.min(1_500),
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
            catalog_size: cfg.gateway_catalog.min(1_500),
            users: cfg.gateway_users.min(600),
            requests: cfg.gateway_requests.min(9_000),
            seed,
            // Pin little, so the sweep isolates the nginx tier's effect
            // rather than the node store's.
            pinned_fraction: 0.15,
            ..Default::default()
        });
        let mut gw = Gateway::new(
            gw_node,
            GatewayConfig { nginx_capacity_bytes: capacity, ..Default::default() },
        );
        let providers: Vec<NodeId> =
            net.server_ids().into_iter().filter(|&i| net.is_dialable(i)).take(40).collect();
        gw.install_catalog(&mut net, &workload, &providers);
        let log = gw.serve_all(&mut net, &workload);

        let lats: Vec<f64> = log.iter().map(|e| e.latency.as_secs_f64()).collect();
        let nginx_share = log.iter().filter(|e| e.served_by == ServedBy::NginxCache).count() as f64
            / log.len() as f64;
        let network_share = log.iter().filter(|e| e.served_by == ServedBy::Network).count() as f64
            / log.len() as f64;
        rows.push(vec![
            label.to_string(),
            format!("{:.1} %", 100.0 * nginx_share),
            format!("{:.1} %", 100.0 * network_share),
            format!("{:.0} %", 100.0 * fraction_below(&lats, 0.25)),
            format!("{:.3} s", percentile(&lats, 50.0)),
            format!("{:.2} s", percentile(&lats, 95.0)),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &["nginx capacity", "nginx hits", "network fetches", "<250 ms", "lat p50", "lat p95"],
            &rows
        )
    );
    println!(
        "(paper: with caching, 76 % of requests are served under 250 ms; \
without aggregation every miss pays the multi-second P2P pipeline)"
    );
}
