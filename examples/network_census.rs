//! Measuring a decentralized network you don't control (paper §4).
//!
//! No one has a complete view of IPFS, so the paper builds measurement
//! tooling: a DHT crawler that enumerates k-buckets from the bootstrap
//! peers, and an adaptive churn monitor. This example runs both against a
//! simulated network and prints the census a researcher would get.
//!
//! ```sh
//! cargo run --release -p ipfs-examples --bin network_census
//! ```

use crawler::{ChurnMonitor, Crawler, MonitorConfig};
use ipfs_core::{IpfsNetwork, NetworkConfig};
use simnet::latency::VantagePoint;
use simnet::{Population, PopulationConfig, SimDuration};
use std::collections::HashMap;

fn main() {
    println!("generating a 2000-peer population and network...");
    let pop = Population::generate(
        PopulationConfig { size: 2_000, nat_fraction: 0.455, horizon: SimDuration::from_hours(12) },
        31,
    );
    let mut net = IpfsNetwork::from_population(
        &pop,
        &[VantagePoint::EuCentral1], // the paper crawls from Germany
        NetworkConfig::default(),
        31,
    );

    // --- crawl every 30 minutes for three hours ---
    let crawler = Crawler::new();
    println!("\ncrawl series (every 30 min, like §4.1):");
    println!("  t(h)   peers  dialable  undialable  est.duration");
    for _ in 0..6 {
        let snap = crawler.crawl(&net, &pop);
        println!(
            "  {:>4.1}  {:>6}  {:>8}  {:>10}  {:>8.1}s",
            net.now().as_secs_f64() / 3600.0,
            snap.peers.len(),
            snap.dialable,
            snap.undialable,
            snap.duration.as_secs_f64()
        );
        net.run_for(SimDuration::from_mins(30));
    }

    // --- geography & infrastructure of the last crawl ---
    let snap = crawler.crawl(&net, &pop);
    let mut by_country: HashMap<&str, usize> = HashMap::new();
    for p in &snap.peers {
        *by_country.entry(p.country.code()).or_default() += 1;
    }
    let mut countries: Vec<_> = by_country.into_iter().collect();
    countries.sort_by_key(|(_, n)| std::cmp::Reverse(*n));
    println!("\ntop countries in the crawl (paper Fig. 5: US 28.5 %, CN 24.2 %, ...):");
    for (code, n) in countries.iter().take(6) {
        println!(
            "  {:<6} {:>5}  ({:>4.1} %)",
            code,
            n,
            100.0 * *n as f64 / snap.peers.len() as f64
        );
    }
    let cloud = snap.peers.iter().filter(|p| p.cloud.is_some()).count();
    println!(
        "cloud-hosted: {:.1} % of crawled peers (paper Table 3: 2.29 %)",
        100.0 * cloud as f64 / snap.peers.len() as f64
    );

    // --- churn monitoring (§5.3) ---
    println!("\nrunning the adaptive churn monitor over 48 h of schedules...");
    let pop48 = Population::generate(
        PopulationConfig { size: 2_000, nat_fraction: 0.455, horizon: SimDuration::from_hours(48) },
        31,
    );
    let (observations, summaries) = ChurnMonitor::new(MonitorConfig::default()).run(&pop48);
    let counted: Vec<f64> = observations
        .iter()
        .filter(|o| o.in_first_half)
        .map(|o| o.observed_uptime.as_secs_f64() / 3600.0)
        .collect();
    let under_8h = counted.iter().filter(|&&h| h < 8.0).count() as f64 / counted.len() as f64;
    let over_24h = counted.iter().filter(|&&h| h > 24.0).count() as f64 / counted.len() as f64;
    let reliable = summaries.iter().filter(|s| s.reachable_fraction > 0.9).count() as f64
        / summaries.len() as f64;
    println!(
        "  {} sessions observed; {:.1} % under 8 h (paper 87.6 %), {:.1} % over 24 h (paper 2.5 %)",
        counted.len(),
        100.0 * under_8h,
        100.0 * over_24h
    );
    println!("  reliable peers (>90 % uptime): {:.1} % (paper: 1.4 %)", 100.0 * reliable);
}
