//! A fleet of gateways behind a deterministic load balancer.
//!
//! The paper's production deployment (§6.3) is not one gateway but a
//! regional fleet: DNS/anycast spreads users across instances, each with
//! its own nginx cache and bridge node. This module models that layer:
//!
//! - **routing**: consistent hashing over CIDs (virtual-node ring, so one
//!   CID has one home gateway and its cache concentrates demand), or
//!   round-robin (spreads a CID across every instance — the baseline that
//!   shows why CID-affinity matters for hit rates);
//! - **failover**: an instance whose bridge node is offline or cut off by
//!   a regional partition ([`IpfsNetwork::bridge_healthy`]) is skipped,
//!   and traffic fails over to the next healthy instance in ring order;
//! - **replicated pinset**: the Web3/NFT pinned catalog is pinned into
//!   *every* gateway's node store (as the storage initiatives upload to
//!   the whole fleet), while unpinned content lives at population
//!   providers only.
//!
//! Everything is deterministic: the ring is seeded splitmix hashing, and
//! requests are processed in arrival order, so fleet cells stay
//! byte-identical under parallel bench runs. A lone gateway is a fleet of
//! one: [`GatewayFleet::serve`] is the only serve loop.

use crate::admission::{cid_key, mix};
use crate::gateway::{Gateway, GatewayConfig};
use crate::log::AccessLogEntry;
use crate::workload::{CatalogObject, GatewayRequest, GatewayWorkload};
use bytes::Bytes;
use ipfs_core::obs::names;
use ipfs_core::{IpfsNetwork, MetricsRegistry, NodeId};

/// Load-balancing policy for the fleet front-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LbPolicy {
    /// Consistent hashing of the requested CID over a virtual-node ring:
    /// each CID has a stable home gateway, concentrating its cache hits.
    ConsistentHash,
    /// Strict rotation over gateways regardless of the CID.
    RoundRobin,
}

/// Fleet configuration.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Load-balancing policy.
    pub lb: LbPolicy,
    /// Virtual nodes per gateway on the consistent-hash ring.
    pub vnodes: usize,
    /// Configuration applied to every gateway instance.
    pub gateway: GatewayConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig { lb: LbPolicy::ConsistentHash, vnodes: 40, gateway: GatewayConfig::default() }
    }
}

/// One served request, tagged with the gateway instance that handled it.
#[derive(Debug, Clone)]
pub struct FleetLogEntry {
    /// Index of the serving gateway within the fleet.
    pub gateway: usize,
    /// The gateway's own access-log record.
    pub entry: AccessLogEntry,
}

/// N gateways behind one deterministic load balancer.
pub struct GatewayFleet {
    /// The gateway instances, in fleet order.
    pub gateways: Vec<Gateway>,
    /// Fleet-level counters (`gateway_fleet_failovers`).
    pub metrics: MetricsRegistry,
    /// (ring position, gateway index), sorted by position.
    ring: Vec<(u64, usize)>,
    rr_next: usize,
    cfg: FleetConfig,
}

impl GatewayFleet {
    /// Creates a fleet with one gateway per bridge node in `nodes`.
    pub fn new(nodes: &[NodeId], cfg: FleetConfig) -> GatewayFleet {
        assert!(!nodes.is_empty(), "a fleet needs at least one gateway");
        assert!(cfg.vnodes > 0, "consistent hashing needs virtual nodes");
        let gateways: Vec<Gateway> = nodes.iter().map(|&n| Gateway::new(n, cfg.gateway)).collect();
        let mut ring = Vec::with_capacity(nodes.len() * cfg.vnodes);
        for (i, _) in nodes.iter().enumerate() {
            for v in 0..cfg.vnodes {
                ring.push((mix(((i as u64) << 32) ^ (v as u64) ^ 0x9e37_79b9_7f4a_7c15), i));
            }
        }
        ring.sort_unstable();
        GatewayFleet { gateways, metrics: MetricsRegistry::new(), ring, rr_next: 0, cfg }
    }

    /// Number of gateways in the fleet.
    pub fn len(&self) -> usize {
        self.gateways.len()
    }

    /// Whether the fleet is empty (never — `new` asserts ≥ 1).
    pub fn is_empty(&self) -> bool {
        self.gateways.is_empty()
    }

    /// Installs the workload catalog: pinned objects are pinned into
    /// EVERY gateway's node store (the storage initiatives upload to the
    /// whole fleet); unpinned objects are stored and announced at
    /// population providers only.
    pub fn install_catalog(
        &mut self,
        net: &mut IpfsNetwork,
        workload: &GatewayWorkload,
        providers: &[NodeId],
    ) {
        assert!(!providers.is_empty(), "need at least one provider node");
        for (i, obj) in workload.objects.iter().enumerate() {
            let payload = Bytes::from(CatalogObject::stub_payload(i));
            if obj.pinned {
                for gw in &mut self.gateways {
                    let root = gw.pin_object(net, &payload);
                    debug_assert_eq!(root, obj.cid);
                }
            } else {
                let provider = providers[i % providers.len()];
                let root = net.node_mut(provider).add_content(&payload).root;
                debug_assert_eq!(root, obj.cid);
                net.seed_provider_record(provider, &obj.cid);
            }
        }
    }

    /// The primary gateway for a CID whose [`cid_key`] is `key`, without
    /// allocating: the ring successor of the key under consistent hashing,
    /// or the next gateway in rotation under round-robin (which advances
    /// the rotation, once per call).
    fn primary(&mut self, key: u64) -> usize {
        match self.cfg.lb {
            LbPolicy::RoundRobin => {
                let first = self.rr_next;
                self.rr_next = (first + 1) % self.gateways.len();
                first
            }
            LbPolicy::ConsistentHash => self.ring[self.ring_start(key) % self.ring.len()].1,
        }
    }

    /// Index of the first ring point at or after `key`'s position.
    fn ring_start(&self, key: u64) -> usize {
        let h = mix(key);
        self.ring.partition_point(|&(p, _)| p < h)
    }

    /// Every gateway in preference order for `key`, starting at its
    /// `primary`; the rest are failover targets in order.
    fn order_from(&self, key: u64, primary: usize) -> Vec<usize> {
        let n = self.gateways.len();
        match self.cfg.lb {
            LbPolicy::RoundRobin => (0..n).map(|k| (primary + k) % n).collect(),
            LbPolicy::ConsistentHash => {
                let start = self.ring_start(key);
                let mut order = Vec::with_capacity(n);
                let mut seen = vec![false; n];
                for k in 0..self.ring.len() {
                    let (_, g) = self.ring[(start + k) % self.ring.len()];
                    if !seen[g] {
                        seen[g] = true;
                        order.push(g);
                        if order.len() == n {
                            break;
                        }
                    }
                }
                order
            }
        }
    }

    /// Preference order of gateways for `cid` under the configured policy
    /// (before health filtering). The first entry is the primary; the
    /// rest are failover targets in order. Round-robin advances its
    /// rotation, as one routed request does.
    #[cfg(test)]
    fn preference_order(&mut self, cid: &multiformats::Cid) -> Vec<usize> {
        let key = cid_key(cid);
        let primary = self.primary(key);
        self.order_from(key, primary)
    }

    /// Picks the serving gateway for a CID whose [`cid_key`] is `key`: the
    /// first healthy instance in preference order. Counts a failover when
    /// the primary is skipped. If every instance is unhealthy the primary
    /// serves (and its retrievals fail like the real outage would). The
    /// full order is built only when the primary is unhealthy.
    fn route(&mut self, net: &IpfsNetwork, key: u64) -> usize {
        let primary = self.primary(key);
        if net.bridge_healthy(self.gateways[primary].node) {
            return primary;
        }
        let order = self.order_from(key, primary);
        for &g in &order[1..] {
            if net.bridge_healthy(self.gateways[g].node) {
                self.metrics.incr(names::GATEWAY_FLEET_FAILOVERS);
                return g;
            }
        }
        primary
    }

    /// Serves one request through the fleet.
    pub fn serve(
        &mut self,
        net: &mut IpfsNetwork,
        workload: &GatewayWorkload,
        request: &GatewayRequest,
    ) -> FleetLogEntry {
        // Advance to the arrival BEFORE routing: health (fault windows)
        // must be evaluated at the request's arrival time.
        if net.now() < request.at {
            net.run_until(request.at);
        }
        // The one `cid_key` of this request: routing, the sketch and the
        // nginx tier all take it from here.
        let key = cid_key(&workload.objects[request.object].cid);
        let gateway = self.route(net, key);
        let entry = self.gateways[gateway].serve(net, workload, request, key);
        FleetLogEntry { gateway, entry }
    }

    /// Serves an entire workload, returning the fleet access log.
    pub fn serve_all(
        &mut self,
        net: &mut IpfsNetwork,
        workload: &GatewayWorkload,
    ) -> Vec<FleetLogEntry> {
        workload.requests.iter().map(|r| self.serve(net, workload, r)).collect()
    }

    /// Merged view of all per-gateway registries plus the fleet's own
    /// counters. Correct because every per-gateway counter (including
    /// evictions) is written as incremental deltas — merge sums them.
    pub fn merged_metrics(&self) -> MetricsRegistry {
        let mut merged = MetricsRegistry::new();
        merged.merge(&self.metrics);
        for gw in &self.gateways {
            merged.merge(&gw.metrics);
        }
        merged
    }

    /// Total nginx evictions across the fleet (straight from the caches,
    /// for cross-checking the merged metric).
    pub fn total_evictions(&self) -> u64 {
        self.gateways.iter().map(|g| g.nginx.evictions).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multiformats::Cid;

    fn cid(n: u32) -> Cid {
        Cid::from_raw_data(&n.to_be_bytes())
    }

    fn fleet(n: usize, lb: LbPolicy) -> GatewayFleet {
        let nodes: Vec<NodeId> = (0..n).collect();
        GatewayFleet::new(&nodes, FleetConfig { lb, ..FleetConfig::default() })
    }

    #[test]
    fn consistent_hash_is_stable_per_cid() {
        let mut f = fleet(4, LbPolicy::ConsistentHash);
        for i in 0..50u32 {
            let a = f.preference_order(&cid(i));
            let b = f.preference_order(&cid(i));
            assert_eq!(a, b, "routing must be a pure function of the CID");
            assert_eq!(a.len(), 4);
            let mut sorted = a.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3], "order covers every gateway once");
        }
    }

    #[test]
    fn consistent_hash_spreads_cids() {
        let mut f = fleet(4, LbPolicy::ConsistentHash);
        let mut counts = [0usize; 4];
        for i in 0..2_000u32 {
            counts[f.preference_order(&cid(i))[0]] += 1;
        }
        for (g, &c) in counts.iter().enumerate() {
            assert!(
                c > 200 && c < 1_000,
                "gateway {g} got {c}/2000 primaries — ring is unbalanced: {counts:?}"
            );
        }
    }

    #[test]
    fn primary_is_the_head_of_the_preference_order() {
        // The allocation-free primary `route` takes must be the gateway the
        // full order starts with. Round-robin advances once per call, so a
        // twin fleet stays in step with the one that builds the order.
        for lb in [LbPolicy::ConsistentHash, LbPolicy::RoundRobin] {
            let (mut f, mut twin) = (fleet(5, lb), fleet(5, lb));
            for i in 0..2_000u32 {
                let c = cid(i);
                assert_eq!(twin.primary(cid_key(&c)), f.preference_order(&c)[0], "{lb:?} cid {i}");
            }
            assert_eq!(f.rr_next, twin.rr_next, "{lb:?}: one rotation step per request");
        }
    }

    #[test]
    fn routing_takes_one_rotation_step_per_request() {
        use ipfs_core::NetworkConfig;
        use simnet::latency::VantagePoint;
        use simnet::{Population, PopulationConfig, SimDuration};
        let pop = Population::generate(
            PopulationConfig { size: 100, nat_fraction: 0.3, horizon: SimDuration::from_hours(1) },
            5,
        );
        let vantages = [VantagePoint::UsWest1, VantagePoint::EuCentral1, VantagePoint::SaEast1];
        let net = IpfsNetwork::from_population(&pop, &vantages, NetworkConfig::default(), 5);
        let lb = LbPolicy::RoundRobin;
        let mut f =
            GatewayFleet::new(&net.vantage_ids(3), FleetConfig { lb, ..Default::default() });
        let served: Vec<usize> = (0..7).map(|i| f.route(&net, cid_key(&cid(i)))).collect();
        assert_eq!(served, vec![0, 1, 2, 0, 1, 2, 0], "healthy fleet: strict rotation");
    }

    #[test]
    fn round_robin_cycles() {
        let mut f = fleet(3, LbPolicy::RoundRobin);
        let firsts: Vec<usize> = (0..6).map(|i| f.preference_order(&cid(i))[0]).collect();
        assert_eq!(firsts, vec![0, 1, 2, 0, 1, 2]);
        // Failover order continues the rotation from the primary.
        assert_eq!(f.preference_order(&cid(0)), vec![0, 1, 2]);
    }

    #[test]
    fn ring_respects_vnode_count() {
        let nodes: Vec<NodeId> = (0..5).collect();
        let f = GatewayFleet::new(&nodes, FleetConfig { vnodes: 17, ..FleetConfig::default() });
        assert_eq!(f.ring.len(), 5 * 17);
        for pair in f.ring.windows(2) {
            assert!(pair[0].0 <= pair[1].0, "ring must be sorted");
        }
    }
}
