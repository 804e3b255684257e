//! Measurement-tooling integration: the crawler and churn monitor against
//! ground truth (paper §4.1, §5).

use crawler::{ChurnMonitor, Crawler, MonitorConfig};
use ipfs_core::{IpfsNetwork, NetworkConfig};
use simnet::latency::VantagePoint;
use simnet::{Population, PopulationConfig, SimDuration};

fn census_setup(seed: u64) -> (IpfsNetwork, Population) {
    let pop = Population::generate(
        PopulationConfig { size: 900, nat_fraction: 0.455, horizon: SimDuration::from_hours(24) },
        seed,
    );
    let net = IpfsNetwork::from_population(
        &pop,
        &[VantagePoint::EuCentral1],
        NetworkConfig::default(),
        seed,
    );
    (net, pop)
}

#[test]
fn crawler_coverage_against_ground_truth() {
    let (net, pop) = census_setup(401);
    let snap = Crawler::new().crawl(&net, &pop);
    // At t=0 routing tables hold the currently-online servers (a live
    // network's tables are traffic-fresh); the crawl must find nearly all
    // of them and nothing beyond the server set.
    let online = net.server_ids().into_iter().filter(|&id| net.is_dialable(id)).count();
    assert!(
        snap.peers.len() >= online * 9 / 10,
        "found {} of {online} online servers",
        snap.peers.len()
    );
    assert!(snap.peers.len() <= net.server_ids().len() + 1);
    // Dialability as reported matches the network's ground truth.
    for p in &snap.peers {
        assert_eq!(p.dialable, net.is_dialable(p.node));
    }
}

#[test]
fn crawl_dialable_fraction_drops_with_churn_then_recovers_shape() {
    let (mut net, pop) = census_setup(402);
    let crawler = Crawler::new();
    let mut fractions = Vec::new();
    for _ in 0..10 {
        fractions.push(crawler.crawl(&net, &pop).dialable_fraction());
        net.run_for(SimDuration::from_mins(30));
    }
    // The first crawl sees traffic-fresh tables (≈100 % dialable); as
    // churn replaces online peers, stale entries accumulate and the
    // fraction settles into Figure 4a's band around 50 %.
    assert!(fractions[0] > 0.9, "fresh tables start dialable: {}", fractions[0]);
    let settled = *fractions.last().unwrap();
    assert!(
        settled > 0.25 && settled < 0.95,
        "dialable fraction out of band after churn: {settled}"
    );
    assert!(fractions.last().unwrap() < &fractions[0], "staleness must accumulate: {fractions:?}");
}

#[test]
fn monitor_summary_consistent_with_crawl() {
    // Peers the monitor calls never-reachable must be NAT'ed or never
    // online — and can never show up as dialable in a crawl.
    let (net, pop) = census_setup(403);
    let (_, summaries) =
        ChurnMonitor::new(MonitorConfig { window: SimDuration::from_hours(24) }).run(&pop);
    let snap = Crawler::new().crawl(&net, &pop);
    for s in &summaries {
        if !s.never_reachable {
            continue;
        }
        if let Some(peer) = snap.peers.iter().find(|p| p.node == s.peer) {
            assert!(
                !peer.dialable || pop.peers[s.peer].schedule.online_at(net.now()),
                "monitor said never-reachable but crawl dialed peer {}",
                s.peer
            );
        }
    }
}

#[test]
fn monitor_observations_anchored_in_true_online_time() {
    // Probing cannot invent reachability: both endpoints of a measured
    // session are instants at which the peer truly was online. (The
    // measured *length* can exceed a single true session: an offline gap
    // shorter than the probe interval is invisible and merges adjacent
    // sessions — the same blind spot the paper's crawler has, which its
    // 30 s minimum interval mitigates but cannot eliminate.)
    let pop = Population::generate(
        PopulationConfig { size: 300, horizon: SimDuration::from_hours(24), ..Default::default() },
        404,
    );
    let cfg = MonitorConfig { window: SimDuration::from_hours(24) };
    let (observations, _) = ChurnMonitor::new(cfg).run(&pop);
    assert!(!observations.is_empty());
    for o in &observations {
        let truth = &pop.peers[o.peer].schedule;
        assert!(
            truth.online_at(o.observed_start),
            "observed session start must be a truly-online instant"
        );
        let last_seen_up = o.observed_start + o.observed_uptime;
        assert!(
            truth.online_at(last_seen_up) || truth.sessions.iter().any(|(_, e)| *e == last_seen_up),
            "observed session end must be a truly-online instant"
        );
        assert!(o.observed_uptime <= cfg.window);
    }
}

#[test]
fn crawl_census_matches_population_marginals() {
    let (net, pop) = census_setup(405);
    let snap = Crawler::new().crawl(&net, &pop);
    // Country shares in the crawl roughly track the population (the crawl
    // sees servers only, but country assignment is NAT-independent).
    let us_crawl = snap.peers.iter().filter(|p| p.country == simnet::geodb::Country::US).count()
        as f64
        / snap.peers.len() as f64;
    assert!((us_crawl - 0.285).abs() < 0.08, "US share in crawl: {us_crawl}");
}
