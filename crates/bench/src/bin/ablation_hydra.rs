//! Ablation: Hydra boosters (paper §8 future work).
//!
//! "We plan to expand our studies to components such as the Hydra
//! boosters" — many-headed, always-online DHT nodes operated from
//! datacenters to stabilize routing. This ablation adds 0/50/200 hydra
//! heads to a churny network and measures what they buy: fewer stale
//! dials during walks, faster publications and retrievals.

use bench::runner::run_cells_with_jobs;
use bench::stats::Summary;
use bench::{RunConfig, ScaleConfig};
use bytes::Bytes;
use ipfs_core::{IpfsNetwork, NetworkConfig};
use simnet::latency::VantagePoint;
use simnet::{Population, PopulationConfig, SimDuration, SimTime};

fn main() {
    let run =
        RunConfig::start("Ablation", "Hydra boosters: stabilizing the DHT with datacenter heads");
    let cfg = ScaleConfig::resolve(run.scale);
    let seed = run.seed;
    let iterations = 25usize;

    // Independent cells (one per head count), parallel under
    // IPFS_REPRO_JOBS; rows print in head order after all cells finish.
    let head_counts = [0usize, 50, 200];
    let rows: Vec<String> = run_cells_with_jobs(run.jobs, head_counts.len(), |cell| {
        let heads = head_counts[cell];
        let pop = Population::generate(
            PopulationConfig {
                size: cfg.population.min(1_500),
                nat_fraction: 0.455,
                horizon: SimDuration::from_hours(12),
                ..Default::default()
            },
            seed,
        );
        let net_cfg = NetworkConfig { hydra_heads: heads, ..Default::default() };
        let mut net = IpfsNetwork::from_population(
            &pop,
            &[VantagePoint::EuCentral1, VantagePoint::UsWest1],
            net_cfg,
            seed,
        );
        let [eu, us] = net.vantage_ids(2)[..] else { unreachable!() };

        // Age the network so churn has degraded the tables — the regime
        // hydras are meant to stabilize.
        net.run_until(SimTime::ZERO + SimDuration::from_hours(4));

        let mut pub_totals = Vec::new();
        let mut ret_totals = Vec::new();
        let mut ok = 0usize;
        for i in 0..iterations {
            let mut data = vec![0u8; 128 * 1024];
            data[..8].copy_from_slice(&(i as u64).to_be_bytes());
            let cid = net.import_content(us, &Bytes::from(data));
            let before_pub = net.publish_reports.len();
            net.publish(us, cid.clone());
            net.run_until_quiet();
            pub_totals
                .extend(net.publish_reports[before_pub..].iter().map(|r| r.total.as_secs_f64()));
            net.disconnect_all(us);

            let before_ret = net.retrieve_reports.len();
            net.retrieve(eu, cid);
            net.run_until_quiet();
            for r in &net.retrieve_reports[before_ret..] {
                ret_totals.push(r.total.as_secs_f64());
                if r.success {
                    ok += 1;
                }
            }
            net.disconnect_all(eu);
            let us_peer = net.peer_id(us).clone();
            net.forget_address(eu, &us_peer);
        }
        let p = Summary::of(&pub_totals);
        let r = Summary::of(&ret_totals);
        format!(
            "{heads:>5}   {:>6.1} s  {:>6.1} s  {:>6.2} s  {:>6.2} s   {:>5.1} %",
            p.p50,
            p.p95,
            r.p50,
            r.p95,
            100.0 * ok as f64 / iterations as f64
        )
    });
    println!("heads   pub p50   pub p95   ret p50   ret p95   ret success");
    for row in rows {
        println!("{row}");
    }
    println!(
        "\n(hydra heads never churn: walks hit fewer stale entries, so fewer 5 s dial \
timeouts — the stabilization §8 expects from the boosters)"
    );
}
