//! Gateway referrals (§6.3, "Gateway Referrals").
//!
//! Paper: "the majority of this traffic (51.8 %) is referred by third
//! party websites ... 70.6 % of this referred traffic belongs to just 72
//! semi-popular websites (rank 10k–50k based on Tranco list). The majority
//! of these parent sites are hosted in the US (47.3 %), Iceland (20.0 %)
//! and Canada (12.7 %)." — the NFT/video-streaming integration story.

use bench::stats::markdown_table;
use bench::{RunConfig, ScaleConfig};
use gateway::workload::{GatewayWorkload, Referrer, WorkloadConfig};
use std::collections::HashMap;

/// Country mix of the semi-popular parent sites (paper: US 47.3 %,
/// IS 20.0 %, CA 12.7 %, rest long tail). Deterministic per site index.
fn site_country(site: u16) -> &'static str {
    match site % 20 {
        0..=8 => "US",   // 9/20 = 45 %
        9..=12 => "IS",  // 4/20 = 20 %
        13..=15 => "CA", // 3/20 = 15 %
        16 => "DE",
        17 => "GB",
        18 => "NL",
        _ => "other",
    }
}

fn main() {
    let run = RunConfig::start("Gateway referrals", "§6.3's referred-traffic breakdown");
    let cfg = ScaleConfig::resolve(run.scale);
    let workload = GatewayWorkload::generate(WorkloadConfig {
        catalog_size: cfg.gateway_catalog,
        users: cfg.gateway_users,
        requests: cfg.gateway_requests,
        seed: run.seed,
        ..Default::default()
    });

    let n = workload.requests.len() as f64;
    let direct = workload.requests.iter().filter(|r| r.referrer == Referrer::Direct).count() as f64;
    let semi: Vec<u16> = workload
        .requests
        .iter()
        .filter_map(|r| match r.referrer {
            Referrer::SemiPopularSite(s) => Some(s),
            _ => None,
        })
        .collect();
    let other =
        workload.requests.iter().filter(|r| r.referrer == Referrer::OtherSite).count() as f64;
    let referred = semi.len() as f64 + other;

    println!(
        "referred traffic: {:.1} % (paper: 51.8 %); direct: {:.1} %",
        100.0 * referred / n,
        100.0 * direct / n
    );
    println!(
        "semi-popular sites' share of referred traffic: {:.1} % across {} sites (paper: 70.6 % across 72)",
        100.0 * semi.len() as f64 / referred,
        semi.iter().collect::<std::collections::HashSet<_>>().len()
    );

    // Country mix of the parent sites, traffic-weighted.
    let mut by_country: HashMap<&str, u64> = HashMap::new();
    for s in &semi {
        *by_country.entry(site_country(*s)).or_default() += 1;
    }
    let total: u64 = by_country.values().sum();
    let mut rows: Vec<(&str, u64)> = by_country.into_iter().collect();
    rows.sort_by_key(|(_, c)| std::cmp::Reverse(*c));
    let paper: &[(&str, f64)] = &[("US", 47.3), ("IS", 20.0), ("CA", 12.7)];
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|(c, cnt)| {
            let p = paper
                .iter()
                .find(|(code, _)| code == c)
                .map(|(_, v)| format!("{v:.1} %"))
                .unwrap_or_else(|| "—".into());
            vec![c.to_string(), format!("{:.1} %", 100.0 * *cnt as f64 / total as f64), p]
        })
        .collect();
    println!(
        "\n{}",
        markdown_table(
            &["Parent-site country", "Share of semi-popular referrals", "Paper"],
            &table
        )
    );
    println!("(manual inspection in the paper found these to be video-streaming and NFT sites)");
}
