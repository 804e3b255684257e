//! The recursive DHT crawler (§4.1).

use ipfs_core::{IpfsNetwork, NodeId};
use multiformats::PeerId;
use simnet::geodb::Country;
use simnet::{Population, SimDuration, SimTime};
use std::collections::{HashSet, VecDeque};

/// Number of bootstrap peers to start from (IPFS ships six well-known
/// bootstrappers, §4.1).
const BOOTSTRAP_COUNT: usize = 6;
/// Concurrent crawl workers (the real crawler is massively parallel).
const CONCURRENCY: u64 = 1_000;
const _: () = assert!(CONCURRENCY >= 1);
/// Cost model: time to dial + drain one peer's buckets.
const PER_PEER_VISIT: SimDuration = SimDuration::from_millis(800);
/// Cost model: time burned on a failed dial.
const PER_PEER_TIMEOUT: SimDuration = SimDuration::from_secs(5);

/// A peer discovered during one crawl.
#[derive(Debug, Clone)]
pub struct CrawledPeer {
    /// Network node id.
    pub node: NodeId,
    /// The PeerID found in k-buckets.
    pub peer: PeerId,
    /// Whether the crawler could connect at crawl time.
    pub dialable: bool,
    /// Country of the peer's (primary) host.
    pub country: Country,
    /// Its AS number.
    pub asn: u32,
    /// CAIDA-style rank of that AS.
    pub as_rank: u32,
    /// Cloud-provider index (into `simnet::geodb::CLOUD_PROVIDERS`).
    pub cloud: Option<u8>,
    /// Primary IP of the peer.
    pub ip: std::net::Ipv4Addr,
    /// Secondary-host country for multihomed peers.
    pub secondary_country: Option<Country>,
}

/// Result of one crawl.
#[derive(Debug, Clone)]
pub struct CrawlSnapshot {
    /// Virtual time at which the crawl started.
    pub started_at: SimTime,
    /// Estimated crawl duration (cost model).
    pub duration: SimDuration,
    /// Every peer discovered in anyone's k-buckets.
    pub peers: Vec<CrawledPeer>,
    /// Count of peers that answered the crawler.
    pub dialable: usize,
    /// Count of peers found in buckets but unreachable.
    pub undialable: usize,
}

impl CrawlSnapshot {
    /// Fraction of discovered peers that were dialable.
    pub fn dialable_fraction(&self) -> f64 {
        if self.peers.is_empty() {
            return 0.0;
        }
        self.dialable as f64 / self.peers.len() as f64
    }
}

/// The crawler.
#[derive(Debug, Default)]
pub struct Crawler;

impl Crawler {
    /// Creates a crawler.
    pub fn new() -> Crawler {
        Crawler
    }

    /// Crawls the network: breadth-first k-bucket enumeration starting
    /// from the best-connected servers (standing in for the six canonical
    /// bootstrap peers). `pop` supplies the geolocation metadata that the
    /// real crawler derives from GeoLite2/CAIDA (§4.1).
    pub fn crawl(&self, net: &IpfsNetwork, pop: &Population) -> CrawlSnapshot {
        let started_at = net.now();
        // Bootstrap peers: the first N dialable servers.
        let bootstrap: Vec<NodeId> = net
            .server_ids()
            .into_iter()
            .filter(|&id| net.is_dialable(id))
            .take(BOOTSTRAP_COUNT)
            .collect();

        let mut seen: HashSet<NodeId> = HashSet::new();
        let mut queue: VecDeque<NodeId> = VecDeque::new();
        let mut peers: Vec<CrawledPeer> = Vec::new();
        let mut dialable = 0usize;
        let mut undialable = 0usize;
        let mut visits = 0u64;
        let mut timeouts = 0u64;

        for b in bootstrap {
            if seen.insert(b) {
                queue.push_back(b);
            }
        }
        while let Some(id) = queue.pop_front() {
            let ok = net.is_dialable(id);
            if ok {
                dialable += 1;
                visits += 1;
                // Drain this peer's k-buckets (§4.1: "recursively asks
                // peers ... for all entries in their k-buckets").
                for info in net.k_bucket_entries(id) {
                    if let Some(next) = net.resolve(&info.peer) {
                        if seen.insert(next) {
                            queue.push_back(next);
                        }
                    }
                }
            } else {
                undialable += 1;
                timeouts += 1;
            }
            peers.push(self.describe(net, pop, id, ok));
        }

        // Duration under the concurrency cost model.
        let total_work =
            PER_PEER_VISIT.as_nanos() * visits + PER_PEER_TIMEOUT.as_nanos() * timeouts;
        let duration = SimDuration::from_nanos(total_work / CONCURRENCY);

        CrawlSnapshot { started_at, duration, peers, dialable, undialable }
    }

    fn describe(
        &self,
        net: &IpfsNetwork,
        pop: &Population,
        id: NodeId,
        dialable: bool,
    ) -> CrawledPeer {
        let peer = net.peer_id(id).clone();
        if let Some(p) = pop.peers.get(id) {
            CrawledPeer {
                node: id,
                peer,
                dialable,
                country: p.host.country,
                asn: p.host.asn,
                as_rank: p.host.as_rank,
                cloud: p.host.cloud,
                ip: p.host.ip,
                secondary_country: p.secondary_host.map(|h| h.country),
            }
        } else {
            // Vantage node (outside the population): a US datacenter host.
            CrawledPeer {
                node: id,
                peer,
                dialable,
                country: Country::US,
                asn: 16509,
                as_rank: 25,
                cloud: Some(1),
                ip: std::net::Ipv4Addr::new(203, 0, 113, (id % 250) as u8 + 1),
                secondary_country: None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipfs_core::NetworkConfig;
    use simnet::latency::VantagePoint;
    use simnet::PopulationConfig;

    fn build(n: usize, seed: u64) -> (IpfsNetwork, Population) {
        let pop = Population::generate(
            PopulationConfig { size: n, nat_fraction: 0.4, horizon: SimDuration::from_hours(8) },
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
    fn crawl_discovers_the_online_network_and_accumulates() {
        let (mut net, pop) = build(800, 1);
        let crawler = Crawler::new();

        // A single crawl reaches nearly every *currently online* server
        // (they all sit in each other's buckets); servers that have never
        // been online are invisible, exactly like unseen peers in the
        // paper's crawls.
        let online_now = net.server_ids().into_iter().filter(|&id| net.is_dialable(id)).count();
        let snap = crawler.crawl(&net, &pop);
        assert!(
            snap.peers.len() as f64 > online_now as f64 * 0.9,
            "found {} of {} online servers",
            snap.peers.len(),
            online_now
        );
        assert_eq!(snap.dialable + snap.undialable, snap.peers.len());
        assert!(snap.duration > SimDuration::ZERO);

        // Repeated crawls accumulate peers as churn brings new servers
        // online (the paper's 199 k total across 9,500 crawls vs ~50 k per
        // crawl). Track the union of discovered PeerIDs.
        let mut seen: std::collections::HashSet<usize> =
            snap.peers.iter().map(|p| p.node).collect();
        let first_crawl = seen.len();
        for _ in 0..6 {
            net.run_for(SimDuration::from_mins(30));
            for p in crawler.crawl(&net, &pop).peers {
                seen.insert(p.node);
            }
        }
        assert!(
            seen.len() > first_crawl,
            "cumulative discovery must grow under churn: {first_crawl} -> {}",
            seen.len()
        );
    }

    #[test]
    fn nat_clients_never_appear() {
        // §2.3: clients never enter routing tables, so a crawl cannot see
        // them.
        let (net, pop) = build(500, 2);
        let snap = Crawler::new().crawl(&net, &pop);
        for p in &snap.peers {
            if let Some(simpeer) = pop.peers.get(p.node) {
                assert!(!simpeer.nat, "NAT'ed peer leaked into the crawl");
            }
        }
    }

    #[test]
    fn dialable_fraction_tracks_churn() {
        let (mut net, pop) = build(600, 3);
        let crawler = Crawler::new();
        let snap0 = crawler.crawl(&net, &pop);
        // Later in the horizon, some peers have churned offline; the crawl
        // still finds them in buckets but cannot dial them.
        net.run_for(SimDuration::from_hours(3));
        let snap1 = crawler.crawl(&net, &pop);
        assert!(snap1.undialable > 0, "churn must create undialable entries");
        assert!(snap0.dialable_fraction() > 0.2);
        assert!(snap1.dialable_fraction() > 0.1);
    }

    #[test]
    fn metadata_is_attached() {
        let (net, pop) = build(300, 4);
        let snap = Crawler::new().crawl(&net, &pop);
        let with_cloud = snap.peers.iter().filter(|p| p.cloud.is_some()).count();
        let multihomed = snap.peers.iter().filter(|p| p.secondary_country.is_some()).count();
        // Both features exist in a 300-peer population w.h.p.
        assert!(with_cloud + multihomed > 0);
        for p in &snap.peers {
            assert!(p.asn > 0);
        }
    }
}
