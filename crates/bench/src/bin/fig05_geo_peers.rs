//! Figure 5: geographical distribution of DHT peers.
//!
//! Paper: US 28.5 %, CN 24.2 %, FR 8.3 %, TW 7.2 %, KR 6.7 %; multihoming
//! peers (~8.8 %) counted repeatedly.

use bench::stats::markdown_table;
use bench::{RunConfig, ScaleConfig};
use simnet::geodb::Country;
use simnet::{Population, PopulationConfig, SimDuration};
use std::collections::HashMap;

fn main() {
    let run = RunConfig::start("Figure 5", "geographical distribution of peers");
    let cfg = ScaleConfig::resolve(run.scale);
    let pop = Population::generate(
        PopulationConfig {
            size: cfg.census_population,
            horizon: SimDuration::from_hours(1),
            ..Default::default()
        },
        run.seed,
    );

    // Count PeerIDs per country; multihomed peers counted in both
    // countries (as the paper does: "'Multihoming' peers were counted
    // repeatedly").
    let mut counts: HashMap<Country, u64> = HashMap::new();
    let mut total = 0u64;
    for p in &pop.peers {
        *counts.entry(p.host.country).or_default() += 1;
        total += 1;
        if let Some(sec) = &p.secondary_host {
            *counts.entry(sec.country).or_default() += 1;
            total += 1;
        }
    }
    let mut rows: Vec<(Country, u64)> = counts.into_iter().collect();
    rows.sort_by_key(|(_, c)| std::cmp::Reverse(*c));

    let paper: &[(&str, f64)] =
        &[("US", 28.5), ("CN", 24.2), ("FR", 8.3), ("TW", 7.2), ("KR", 6.7)];
    let table: Vec<Vec<String>> = rows
        .iter()
        .take(12)
        .map(|(c, n)| {
            let share = 100.0 * *n as f64 / total as f64;
            let paper_share = paper
                .iter()
                .find(|(code, _)| *code == c.code())
                .map(|(_, s)| format!("{s:.1}"))
                .unwrap_or_else(|| "—".into());
            vec![c.code().to_string(), n.to_string(), format!("{share:.1}"), paper_share]
        })
        .collect();
    println!("{}", markdown_table(&["Country", "PeerIDs", "Share %", "Paper %"], &table));

    let multihomed = pop.peers.iter().filter(|p| p.secondary_host.is_some()).count();
    println!(
        "multihoming: {:.1} % of peers advertise addresses in a second country (paper: 8.8 %)",
        100.0 * multihomed as f64 / pop.peers.len() as f64
    );
}
