//! Ablation: NAT hole punching (DCUtR) — the future-work feature of §3.1.
//!
//! "Peers behind NATs cannot host content themselves. Thus, third party
//! hosts, commonly called pinning services, are used ... Although a NAT
//! hole-punching solution is currently being developed, it is still
//! under-test." This ablation measures what that solution buys: the
//! fraction of content hosted by NAT'ed peers that becomes retrievable,
//! and the latency cost of the relay-assisted dial.

use bench::stats::{markdown_table, percentile};
use bench::{RunConfig, ScaleConfig};
use bytes::Bytes;
use ipfs_core::{IpfsNetwork, NetworkConfig};
use simnet::latency::VantagePoint;
use simnet::{Population, PopulationConfig, SimDuration, SimTime};

fn main() {
    let run =
        RunConfig::start("Ablation", "NAT'ed content hosting without / with DCUtR hole punching");
    let cfg = ScaleConfig::resolve(run.scale);
    let seed = run.seed;
    let objects = 25usize;

    let mut rows = Vec::new();
    for (label, dcutr, rate) in [
        ("no hole punching", false, 0.0),
        ("DCUtR @ 70 %", true, 0.7),
        ("DCUtR @ 100 %", true, 1.0),
    ] {
        let pop = Population::generate(
            PopulationConfig {
                size: cfg.population.min(1_500),
                nat_fraction: 0.455,
                horizon: SimDuration::from_hours(10),
                ..Default::default()
            },
            seed,
        );
        let net_cfg = NetworkConfig {
            enable_dcutr: dcutr,
            dcutr_success_rate: rate,
            provider_records_carry_addrs: true, // relay addrs ride the record
            ..Default::default()
        };
        let mut net =
            IpfsNetwork::from_population(&pop, &[VantagePoint::EuCentral1], net_cfg, seed);
        let requester = net.vantage_ids(1)[0];

        // Long-lived NAT'ed peers each publish one object.
        let nat_hosts: Vec<usize> = pop
            .peers
            .iter()
            .filter(|p| {
                p.nat
                    && p.schedule.online_at(SimTime::ZERO)
                    && p.schedule.online_at(SimTime::ZERO + SimDuration::from_hours(2))
            })
            .map(|p| p.index)
            .take(objects)
            .collect();
        let mut cids = Vec::new();
        for (i, &host) in nat_hosts.iter().enumerate() {
            let mut data = vec![0u8; 32 * 1024];
            data[..8].copy_from_slice(&(i as u64).to_be_bytes());
            let cid = net.import_content(host, &Bytes::from(data));
            net.publish(host, cid.clone());
            net.run_until_quiet();
            net.disconnect_all(host);
            cids.push(cid);
        }

        let mut ok = 0;
        let mut latencies = Vec::new();
        for cid in &cids {
            let before = net.retrieve_reports.len();
            net.retrieve(requester, cid.clone());
            net.run_until_quiet();
            let r = net.retrieve_reports[before..].last().unwrap();
            if r.success {
                ok += 1;
                latencies.push(r.total.as_secs_f64());
            }
            net.disconnect_all(requester);
        }
        rows.push(vec![
            label.to_string(),
            format!("{:.0} %", 100.0 * ok as f64 / cids.len() as f64),
            if latencies.is_empty() {
                "—".into()
            } else {
                format!("{:.2} s", percentile(&latencies, 50.0))
            },
        ]);
    }
    println!(
        "{}",
        markdown_table(&["mode", "NAT-hosted content retrievable", "retrieval p50"], &rows)
    );
    println!(
        "(the paper's workaround is pinning services; DCUtR instead makes the 45.5 % of \
NAT'ed peers first-class hosts, at the cost of relay-assisted dial latency)"
    );
}
