//! Figure 7: (a) reliable peers (>90 % uptime) by country in ‰;
//! (b) always-unreachable peers by country; (c) CDF of PeerIDs per IP;
//! (d) distribution of IPs across ASes by AS rank.
//!
//! Paper: 1.4 % of peers reliable (largest country share 0.3 %); ~1/3
//! never accessible (CN 12.5 %); 92.3 % of IPs host one PeerID while the
//! top-10 IPs host ~66 k; top-10 ASes hold 64.9 % of IPs, top-100 90.6 %.

use bench::stats::markdown_table;
use bench::{RunConfig, ScaleConfig};
use crawler::{ChurnMonitor, MonitorConfig};
use simnet::geodb::Country;
use simnet::{Population, PopulationConfig, SimDuration};
use std::collections::HashMap;

fn main() {
    let run =
        RunConfig::start("Figure 7", "reliable/unreachable peers, PeerIDs per IP, IPs per AS");
    let cfg = ScaleConfig::resolve(run.scale);
    let pop = Population::generate(
        PopulationConfig {
            size: cfg.monitor_population,
            horizon: SimDuration::from_hours(48),
            ..Default::default()
        },
        run.seed,
    );
    let (_, summaries) = ChurnMonitor::new(MonitorConfig::default()).run(&pop);
    let total = summaries.len() as f64;

    // --- 7a: reliable peers (>90 % reachable) per country, in permille ---
    let mut reliable: HashMap<Country, u64> = HashMap::new();
    let mut unreachable: HashMap<Country, u64> = HashMap::new();
    let mut reliable_total = 0u64;
    let mut unreachable_total = 0u64;
    for s in &summaries {
        if s.reachable_fraction > 0.9 {
            *reliable.entry(s.country).or_default() += 1;
            reliable_total += 1;
        }
        if s.never_reachable {
            *unreachable.entry(s.country).or_default() += 1;
            unreachable_total += 1;
        }
    }
    println!("--- Figure 7a: reliable peers (>90% uptime) by country [permille of all peers] ---");
    let mut rows: Vec<(Country, u64)> = reliable.into_iter().collect();
    rows.sort_by_key(|(_, n)| std::cmp::Reverse(*n));
    let table: Vec<Vec<String>> = rows
        .iter()
        .take(8)
        .map(|(c, n)| vec![c.code().into(), format!("{:.2}", 1000.0 * *n as f64 / total)])
        .collect();
    println!("{}", markdown_table(&["Country", "Reliable ‰"], &table));
    println!(
        "total reliable: {:.2} % of peers (paper: 1.4 %)\n",
        100.0 * reliable_total as f64 / total
    );

    println!("--- Figure 7b: always-unreachable peers by country [% of all peers] ---");
    let mut rows: Vec<(Country, u64)> = unreachable.into_iter().collect();
    rows.sort_by_key(|(_, n)| std::cmp::Reverse(*n));
    let table: Vec<Vec<String>> = rows
        .iter()
        .take(8)
        .map(|(c, n)| vec![c.code().into(), format!("{:.1}", 100.0 * *n as f64 / total)])
        .collect();
    println!("{}", markdown_table(&["Country", "Unreachable %"], &table));
    println!(
        "total never-reachable: {:.1} % of peers (paper: ~1/3 of peers; 45.5 % of IPs)\n",
        100.0 * unreachable_total as f64 / total
    );

    // --- 7c: CDF of PeerIDs per IP ---
    println!("--- Figure 7c: PeerIDs per IP address ---");
    let counts = pop.peers_per_ip();
    let single = counts.iter().filter(|&&c| c == 1).count() as f64 / counts.len() as f64;
    let top10: usize = counts.iter().rev().take(10).sum();
    println!("IPs observed: {}", counts.len());
    println!("IPs hosting a single PeerID: {:.1} % (paper: 92.3 %)", 100.0 * single);
    println!("PeerIDs on the top-10 IPs: {top10} (paper: ~66 k at full scale)");
    for q in [0.5, 0.9, 0.99, 0.999, 1.0] {
        let idx = ((counts.len() as f64 * q).ceil() as usize).clamp(1, counts.len()) - 1;
        println!("  p{:>5.1}: {} PeerIDs/IP", q * 100.0, counts[idx]);
    }
    println!();

    // --- 7d: IPs per AS by AS rank ---
    println!("--- Figure 7d: IPs per AS vs AS rank ---");
    let mut per_as: HashMap<u32, (u32, u64)> = HashMap::new(); // asn -> (rank, ips)
    for p in &pop.peers {
        let e = per_as.entry(p.host.asn).or_insert((p.host.as_rank, 0));
        e.1 += 1;
    }
    let mut ases: Vec<(u32, u32, u64)> =
        per_as.into_iter().map(|(asn, (rank, n))| (asn, rank, n)).collect();
    let total_ips: u64 = ases.iter().map(|(_, _, n)| n).sum();
    ases.sort_by_key(|(_, _, n)| std::cmp::Reverse(*n));
    let top10_share: u64 = ases.iter().take(10).map(|(_, _, n)| n).sum();
    let top100_share: u64 = ases.iter().take(100).map(|(_, _, n)| n).sum();
    println!("distinct ASes: {} (paper: 2715)", ases.len());
    println!(
        "top-10 ASes hold {:.1} % of IPs (paper: 64.9 %); top-100 hold {:.1} % (paper: 90.6 %)",
        100.0 * top10_share as f64 / total_ips as f64,
        100.0 * top100_share as f64 / total_ips as f64
    );
    let table: Vec<Vec<String>> = ases
        .iter()
        .take(10)
        .map(|(asn, rank, n)| {
            vec![
                format!("AS{asn}"),
                rank.to_string(),
                n.to_string(),
                format!("{:.1}", 100.0 * *n as f64 / total_ips as f64),
            ]
        })
        .collect();
    println!("{}", markdown_table(&["ASN", "Rank", "IPs", "Share %"], &table));
}
