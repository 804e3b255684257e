//! Figure 4a: number of crawled peers over time, split into dialable and
//! undialable (the paper crawled every 30 min from Germany; the series
//! shows one-day periodicity driven by churn).

use bench::stats::markdown_table;
use bench::{RunConfig, ScaleConfig};
use crawler::{CrawlConfig, Crawler};
use ipfs_core::{IpfsNetwork, NetworkConfig};
use simnet::latency::VantagePoint;
use simnet::{Population, PopulationConfig, SimDuration};

fn main() {
    let run = RunConfig::start("Figure 4a", "crawled peers over time (dialable vs undialable)");
    let cfg = ScaleConfig::resolve(run.scale);
    let rounds = cfg.crawl_rounds;
    let horizon = SimDuration::from_mins(30) * (rounds as u64 + 2);
    let pop = Population::generate(
        PopulationConfig { size: cfg.crawl_population, horizon, ..Default::default() },
        run.seed,
    );
    let mut net = IpfsNetwork::from_population(
        &pop,
        &[VantagePoint::EuCentral1], // the paper's crawler ran from Germany
        NetworkConfig::default(),
        run.seed,
    );
    let crawler = Crawler::new(CrawlConfig::default());

    let mut rows = Vec::new();
    for round in 0..rounds {
        let snap = crawler.crawl(&net, &pop);
        rows.push(vec![
            format!("{:.1}", net.now().as_secs_f64() / 3600.0),
            snap.peers.len().to_string(),
            snap.dialable.to_string(),
            snap.undialable.to_string(),
            format!("{:.1}", 100.0 * snap.dialable_fraction()),
            format!("{:.1}", snap.duration.as_secs_f64()),
        ]);
        let _ = round;
        net.run_for(SimDuration::from_mins(30));
    }
    println!(
        "{}",
        markdown_table(
            &["t (h)", "peers in buckets", "dialable", "undialable", "dialable %", "crawl secs"],
            &rows
        )
    );
    println!(
        "(paper at full scale: ~40-60 k peers per crawl, 54.5 % of IPs ever dialable, 45.5 % never; \
our undialable entries are churned-offline servers, NAT'ed clients never enter k-buckets — §2.3)"
    );
}
