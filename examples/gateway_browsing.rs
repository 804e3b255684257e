//! Browser users on an IPFS gateway (paper §3.4, §6.3).
//!
//! Users without IPFS software fetch `https://gateway/ipfs/{CID}`; the
//! gateway bridges HTTP to the P2P network through two cache tiers. This
//! example serves a morning of traffic and shows the latency cliff between
//! cache hits and cold P2P retrievals.
//!
//! ```sh
//! cargo run --release -p ipfs-examples --bin gateway_browsing
//! ```

use gateway::workload::{GatewayWorkload, WorkloadConfig};
use gateway::{FleetConfig, GatewayFleet, ServedBy};
use ipfs_examples::example_network;
use simnet::latency::VantagePoint;

fn main() {
    println!("building the network and a US-west gateway...");
    let (mut net, ids) = example_network(600, &[VantagePoint::UsWest1], 23);

    let workload = GatewayWorkload::generate(WorkloadConfig {
        catalog_size: 400,
        users: 150,
        requests: 2_500,
        seed: 23,
        ..Default::default()
    });
    let mut gw = GatewayFleet::new(&ids, FleetConfig::default());
    let providers: Vec<_> =
        net.server_ids().into_iter().filter(|&i| net.is_dialable(i)).take(25).collect();
    gw.install_catalog(&mut net, &workload, &providers);
    println!(
        "catalog installed: {} objects ({} pinned by the storage initiatives)\n",
        workload.objects.len(),
        workload.objects.iter().filter(|o| o.pinned).count()
    );

    let log: Vec<_> = gw.serve_all(&mut net, &workload).into_iter().map(|e| e.entry).collect();

    // Show a few individual requests end-to-end.
    println!("sample requests:");
    for entry in log.iter().take(8) {
        println!(
            "  t+{:>8.1}s  user#{:<4} [{}]  GET /ipfs/{:.16}…  -> {:<15} {:>9.3}s  {:>8} B",
            entry.at.as_secs_f64(),
            entry.user,
            entry.country.code(),
            entry.cid.to_string(),
            entry.served_by.label(),
            entry.latency.as_secs_f64(),
            entry.bytes,
        );
    }

    // Tier summary.
    println!("\ntier summary over {} requests:", log.len());
    for tier in
        [ServedBy::NginxCache, ServedBy::NodeStore, ServedBy::Network, ServedBy::NegativeCache]
    {
        let entries: Vec<_> = log.iter().filter(|e| e.served_by == tier).collect();
        if entries.is_empty() {
            continue;
        }
        let mut lats: Vec<f64> = entries.iter().map(|e| e.latency.as_secs_f64()).collect();
        lats.sort_by(f64::total_cmp);
        println!(
            "  {:<16} {:>5} requests ({:>4.1} %)   median latency {:>8.3}s",
            tier.label(),
            entries.len(),
            100.0 * entries.len() as f64 / log.len() as f64,
            lats[lats.len() / 2],
        );
    }
    let under_250ms =
        log.iter().filter(|e| e.latency.as_millis() < 250).count() as f64 / log.len() as f64;
    println!(
        "\n{:.0} % of requests served in under 250 ms (paper: 76 %) — demand aggregation at work",
        100.0 * under_250ms
    );
}
