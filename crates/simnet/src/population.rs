//! Synthetic peer population generator.
//!
//! Produces the peer-level facts the paper measures in §5.1: country mix
//! (Figure 5), NAT'ed/undialable share ("45.5 % were always unreachable"),
//! multihoming ("around 8.8 % of all peers advertise Multiaddresses that
//! include multiple IP addresses mapped to multiple countries"), the
//! PeerIDs-per-IP heavy tail (Figure 7c: "92.3 % of IP addresses host a
//! single PeerID ... the top 10 IP addresses host almost 66 k distinct
//! PeerIDs"), and per-peer churn schedules (§5.3).

use crate::churn::{ChurnModel, SessionSchedule, StabilityClass};
use crate::geodb::{GeoDb, HostInfo};
use crate::latency::BandwidthClass;
use crate::time::SimDuration;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fraction of peers advertising addresses in multiple countries (paper
/// §5.1: 8.8 %).
const MULTIHOMING_FRACTION: f64 = 0.088;
/// Fraction of peers that pile onto a shared "super IP" (PeerID rotation /
/// large NAT pools; drives Figure 7c's tail).
const SHARED_IP_FRACTION: f64 = 0.05;
/// Fraction of peers that reuse another ordinary peer's IP (multiple nodes
/// in one household / on one server — Figure 7c's mid-range: the paper
/// finds 7.7 % of IPs host more than one PeerID).
const IP_REUSE_FRACTION: f64 = 0.09;
/// Number of distinct super IPs absorbing the shared fraction.
const SHARED_IP_POOL: usize = 10;
const _: () = assert!(SHARED_IP_POOL >= 1);

/// Configuration for population generation.
#[derive(Debug, Clone, Copy)]
pub struct PopulationConfig {
    /// Number of peers (PeerIDs) to generate.
    pub size: usize,
    /// Fraction of peers behind NATs — these join as DHT clients and are
    /// never dialable (paper §2.3 / §5.1: 45.5 % always unreachable).
    pub nat_fraction: f64,
    /// Simulated horizon the churn schedules must cover.
    pub horizon: SimDuration,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        PopulationConfig { size: 10_000, nat_fraction: 0.455, horizon: SimDuration::from_hours(24) }
    }
}

/// One generated peer.
#[derive(Debug, Clone)]
pub struct SimPeer {
    /// Dense index into [`Population::peers`].
    pub index: usize,
    /// Seed from which the peer's keypair/PeerID derives (the IPFS layer
    /// calls `Keypair::from_seed(key_seed)`).
    pub key_seed: u64,
    /// Primary host (IP / country / AS / cloud).
    pub host: HostInfo,
    /// Secondary host for multihomed peers (paper counts them per country).
    pub secondary_host: Option<HostInfo>,
    /// True if the peer is NAT'ed: joins the DHT as a *client*, is never
    /// dialable, and cannot host content (paper §2.3, §3.1).
    pub nat: bool,
    /// Access bandwidth class.
    pub bandwidth: BandwidthClass,
    /// Churn behaviour class.
    pub stability: StabilityClass,
    /// Online intervals over the horizon.
    pub schedule: SessionSchedule,
}

impl SimPeer {
    /// Whether the peer acts as a DHT server (public, dialable).
    pub fn is_dht_server(&self) -> bool {
        !self.nat
    }

    /// Whether the peer is online at `t`.
    pub fn online_at(&self, t: crate::time::SimTime) -> bool {
        self.schedule.online_at(t)
    }
}

/// The generated population.
#[derive(Debug, Clone)]
pub struct Population {
    /// All peers, indexed densely.
    pub peers: Vec<SimPeer>,
    /// The geolocation database used (for downstream sampling).
    pub geodb: GeoDb,
    /// The configuration that produced this population.
    pub config: PopulationConfig,
}

impl Population {
    /// Generates a population deterministically from `seed`.
    pub fn generate(config: PopulationConfig, seed: u64) -> Population {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x706f_7075_6c61_7469); // "populati"
        let geodb = GeoDb::new();
        let churn = ChurnModel;

        // Pre-draw the super-IP pool.
        let super_hosts: Vec<HostInfo> =
            (0..SHARED_IP_POOL).map(|i| geodb.sample_host(&mut rng, u32::MAX - i as u32)).collect();

        let mut peers = Vec::with_capacity(config.size);
        for index in 0..config.size {
            let host = if rng.random_range(0.0..1.0) < SHARED_IP_FRACTION {
                // Zipf-ish preference for the first super IPs.
                let h = rng.random_range(0.0..1.0f64);
                let idx = ((h * h) * super_hosts.len() as f64) as usize;
                super_hosts[idx.min(super_hosts.len() - 1)]
            } else if !peers.is_empty() && rng.random_range(0.0..1.0) < IP_REUSE_FRACTION {
                // Another node on an already-seen host (same IP).
                let donor: &SimPeer = &peers[rng.random_range(0..peers.len())];
                donor.host
            } else {
                geodb.sample_host(&mut rng, index as u32)
            };
            let nat = rng.random_range(0.0..1.0) < config.nat_fraction;
            let secondary_host = if rng.random_range(0.0..1.0) < MULTIHOMING_FRACTION {
                Some(geodb.sample_host(&mut rng, (index as u32) ^ 0x8000_0000))
            } else {
                None
            };
            let bandwidth = if host.cloud.is_some() {
                BandwidthClass::Datacenter
            } else if rng.random_range(0..100) < 15 {
                BandwidthClass::Constrained
            } else {
                BandwidthClass::Residential
            };
            let stability = if nat {
                // NAT'ed peers are the never-reachable population of Fig 7b.
                StabilityClass::NeverReachable
            } else {
                churn.sample_class(&mut rng)
            };
            // NeverReachable peers still run sessions (they make requests as
            // clients) — but for *dialability* purposes their schedule is
            // what matters, so give churners/reliables real schedules and
            // NAT'ed clients churn-like request activity windows.
            let schedule = match stability {
                StabilityClass::NeverReachable => churn.sample_schedule(
                    &mut rng,
                    host.country,
                    StabilityClass::Churning,
                    config.horizon,
                ),
                s => churn.sample_schedule(&mut rng, host.country, s, config.horizon),
            };
            peers.push(SimPeer {
                index,
                key_seed: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(index as u64),
                host,
                secondary_host,
                nat,
                bandwidth,
                stability,
                schedule,
            });
        }
        Population { peers, geodb, config }
    }

    /// Number of DHT servers (dialable peers).
    pub fn server_count(&self) -> usize {
        self.peers.iter().filter(|p| p.is_dht_server()).count()
    }

    /// Histogram of PeerIDs per IP, for Figure 7c.
    pub fn peers_per_ip(&self) -> Vec<usize> {
        let mut map: std::collections::HashMap<std::net::Ipv4Addr, usize> =
            std::collections::HashMap::new();
        for p in &self.peers {
            *map.entry(p.host.ip).or_default() += 1;
        }
        let mut counts: Vec<usize> = map.into_values().collect();
        counts.sort_unstable();
        counts
    }
}

/// Struct-of-arrays population for very large cells (100k+ peers).
///
/// [`Population`] carries ~1 kB of per-peer state (host info, churn
/// schedule vectors, multihoming) — fine at 20k peers, prohibitive at
/// 100k+. The lean variant keeps only what the region-sharded PDES cell
/// ([`crate::shard`]) consumes — the geographic zone, the DHT-server flag,
/// and the datacenter-bandwidth flag — as three parallel arrays (~3 bytes
/// per peer), sampled from the same [`GeoDb`] country/cloud mix and the
/// same NAT share as the full generator.
#[derive(Debug, Clone)]
pub struct LeanPopulation {
    /// Zone index per peer ([`crate::latency::Region::index`]).
    pub region: Vec<u8>,
    /// Whether the peer is a dialable DHT server (`!nat`).
    pub server: Vec<bool>,
    /// Whether the peer has datacenter bandwidth (cloud-hosted).
    pub datacenter: Vec<bool>,
}

impl LeanPopulation {
    /// Generates `size` peers deterministically from `seed`, with the given
    /// NAT (non-server) fraction.
    pub fn generate(size: usize, nat_fraction: f64, seed: u64) -> LeanPopulation {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6c65_616e_5f70_6f70); // "lean_pop"
        let geodb = GeoDb::new();
        let mut region = Vec::with_capacity(size);
        let mut server = Vec::with_capacity(size);
        let mut datacenter = Vec::with_capacity(size);
        for index in 0..size {
            let host = geodb.sample_host(&mut rng, index as u32);
            region.push(host.region.index() as u8);
            server.push(rng.random_range(0.0..1.0) >= nat_fraction);
            datacenter.push(host.cloud.is_some());
        }
        LeanPopulation { region, server, datacenter }
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.region.len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.region.is_empty()
    }

    /// Logical bytes held per peer (length-based, allocation-independent).
    pub fn bytes(&self) -> u64 {
        (self.region.len() + self.server.len() + self.datacenter.len()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geodb::Country;

    fn pop(n: usize) -> Population {
        Population::generate(PopulationConfig { size: n, ..Default::default() }, 42)
    }

    #[test]
    fn deterministic_generation() {
        let a = pop(500);
        let b = pop(500);
        for (x, y) in a.peers.iter().zip(&b.peers) {
            assert_eq!(x.key_seed, y.key_seed);
            assert_eq!(x.host.ip, y.host.ip);
            assert_eq!(x.nat, y.nat);
        }
    }

    #[test]
    fn nat_fraction_matches_paper() {
        let p = pop(20_000);
        let nat = p.peers.iter().filter(|x| x.nat).count() as f64 / p.peers.len() as f64;
        assert!((nat - 0.455).abs() < 0.02, "NAT share {nat}");
        assert_eq!(p.server_count(), p.peers.iter().filter(|x| !x.nat).count());
    }

    #[test]
    fn multihoming_share_matches_paper() {
        let p = pop(20_000);
        let mh = p.peers.iter().filter(|x| x.secondary_host.is_some()).count() as f64
            / p.peers.len() as f64;
        assert!((mh - 0.088).abs() < 0.01, "multihoming share {mh}");
    }

    #[test]
    fn peers_per_ip_heavy_tail() {
        let p = pop(20_000);
        let counts = p.peers_per_ip();
        let single = counts.iter().filter(|&&c| c == 1).count() as f64 / counts.len() as f64;
        assert!(single > 0.9, "≥90% of IPs host one PeerID (paper 92.3 %), got {single}");
        let max = *counts.last().unwrap();
        assert!(max > 100, "super-IPs host many PeerIDs, max was {max}");
    }

    #[test]
    fn cloud_peers_get_datacenter_bandwidth() {
        let p = pop(20_000);
        for peer in &p.peers {
            if peer.host.cloud.is_some() {
                assert_eq!(peer.bandwidth, BandwidthClass::Datacenter);
            }
        }
    }

    #[test]
    fn schedules_cover_horizon_for_reliable() {
        let p = pop(5_000);
        for peer in &p.peers {
            if peer.stability == StabilityClass::Reliable {
                assert!(peer.schedule.uptime_fraction(p.config.horizon) > 0.99);
            }
        }
    }

    #[test]
    fn country_mix_roughly_figure5() {
        let p = pop(30_000);
        let us = p.peers.iter().filter(|x| x.host.country == Country::US).count() as f64
            / p.peers.len() as f64;
        // Super-IPs perturb the mix slightly; allow a loose band.
        assert!((us - 0.285).abs() < 0.05, "US share {us}");
    }

    #[test]
    fn key_seeds_unique() {
        let p = pop(10_000);
        let set: std::collections::HashSet<u64> = p.peers.iter().map(|x| x.key_seed).collect();
        assert_eq!(set.len(), p.peers.len());
    }

    #[test]
    fn lean_population_matches_mix() {
        let p = LeanPopulation::generate(20_000, 0.455, 42);
        assert_eq!(p.len(), 20_000);
        let servers = p.server.iter().filter(|&&s| s).count() as f64 / p.len() as f64;
        assert!((servers - 0.545).abs() < 0.02, "server share {servers}");
        // Every zone index must be valid, and several zones populated.
        let mut seen = [false; crate::latency::Region::COUNT];
        for &r in &p.region {
            seen[r as usize] = true;
        }
        assert!(seen.iter().filter(|&&s| s).count() >= 5, "zones underpopulated");
        // Deterministic.
        let q = LeanPopulation::generate(20_000, 0.455, 42);
        assert_eq!(p.region, q.region);
        assert_eq!(p.server, q.server);
        assert!(p.bytes() >= 60_000);
    }
}
