//! Ablation: the replication factor k.
//!
//! §3.1 picks k = 20 as "a compromise between excessive replication
//! overhead and risking record deletion because of peer churn"; §5.3's
//! churn data ("87.6 % of sessions under 8 hours") explains why. This
//! ablation publishes provider records with k ∈ {2, 5, 10, 20, 30}, lets
//! the network churn for several hours, and measures whether the records
//! can still be found.

use bench::runner::run_cells_with_jobs;
use bench::stats::markdown_table;
use bench::{RunConfig, ScaleConfig};
use bytes::Bytes;
use ipfs_core::{IpfsNetwork, NetworkConfig, NodeConfig};
use simnet::latency::VantagePoint;
use simnet::{Population, PopulationConfig, SimDuration};

fn main() {
    let run = RunConfig::start("Ablation", "replication factor k vs record survival under churn");
    let cfg = ScaleConfig::resolve(run.scale);
    let seed = run.seed;
    let objects = 30usize;
    let wait_hours = [4u64, 8, 16];

    // Each k is an independent simulation — run them as parallel cells
    // (IPFS_REPRO_JOBS); results come back in k order regardless.
    let ks = [2usize, 5, 10, 20, 30];
    let rows: Vec<Vec<String>> = run_cells_with_jobs(run.jobs, ks.len(), |cell| {
        let k = ks[cell];
        let pop = Population::generate(
            PopulationConfig {
                size: cfg.population.min(2_500),
                nat_fraction: 0.455,
                horizon: SimDuration::from_hours(30),
                ..Default::default()
            },
            seed,
        );
        let net_cfg = NetworkConfig {
            node: NodeConfig { replication: k, ..Default::default() },
            ..Default::default()
        };
        let mut net = IpfsNetwork::from_population(
            &pop,
            &[VantagePoint::EuCentral1, VantagePoint::UsWest1],
            net_cfg,
            seed,
        );
        let [provider, requester] = net.vantage_ids(2)[..] else { unreachable!() };

        // Publish `objects` fresh objects at t=0.
        let mut cids = Vec::new();
        for i in 0..objects {
            let mut data = vec![0u8; 64 * 1024];
            data[..8].copy_from_slice(&(i as u64).to_be_bytes());
            let cid = net.import_content(provider, &Bytes::from(data));
            net.publish(provider, cid.clone());
            net.run_until_quiet();
            cids.push(cid);
        }
        let publish_rpcs: f64 =
            net.publish_reports.iter().map(|r| r.records_stored as f64).sum::<f64>()
                / net.publish_reports.len() as f64;

        let mut row = vec![k.to_string(), format!("{publish_rpcs:.1}")];
        for &h in &wait_hours {
            // Advance churn to the checkpoint (no republish — this is the
            // survival question the 12 h republish interval answers).
            let target = simnet::SimTime::ZERO + SimDuration::from_hours(h);
            if net.now() < target {
                net.run_until(target);
            }
            let mut found = 0;
            for cid in &cids {
                let before = net.retrieve_reports.len();
                net.retrieve(requester, cid.clone());
                net.run_until_quiet();
                if net.retrieve_reports[before..].iter().any(|r| r.success) {
                    found += 1;
                }
                net.disconnect_all(requester);
                let p = net.peer_id(provider).clone();
                net.forget_address(requester, &p);
                // Clear fetched blocks so later probes are honest.
                let node = net.node_mut(requester);
                let cs: Vec<_> = node.store.cids().cloned().collect();
                for c in cs {
                    merkledag::BlockStore::delete(&mut node.store, &c);
                }
            }
            row.push(format!("{:.0} %", 100.0 * found as f64 / objects as f64));
        }
        row
    });
    println!(
        "{}",
        markdown_table(&["k", "records stored", "found @4h", "found @8h", "found @16h"], &rows)
    );
    println!(
        "(expected shape: small k loses records as holders churn offline; k=20 holds ~100 % \
well past the 12 h republish interval, at 10x the k=2 store cost — §3.1's compromise)"
    );
}
