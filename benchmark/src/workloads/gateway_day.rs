//! `gateway_day` — the read path through the cache tiers.
//!
//! One diurnal day of Zipf requests against a 4-gateway fleet
//! (consistent hash, TinyLFU nginx tier). `gateway` cache, admission and
//! fleet routing serve most ops without touching the DHT; the misses run
//! the same `netsim`/`kademlia` read path as `dht_perf` at another mix,
//! and `setup_s` carries `install_catalog`'s provider-record seeding.

use super::{digest, netsim_counts, ratio, Outcome, Workload, WORLD_SEED};
use crate::trace::Spans;
use gateway::workload::{CatalogObject, GatewayWorkload, WorkloadConfig};
use gateway::{AdmissionPolicy, FleetConfig, GatewayConfig, GatewayFleet, LbPolicy, ServedBy};
use ipfs_core::obs::names;
use ipfs_core::{IpfsNetwork, NetworkConfig};
use simnet::latency::VantagePoint;
use simnet::{Population, PopulationConfig, SimDuration};

/// Gateways in the fleet, one per region with heavy gateway traffic.
const GATEWAYS: [VantagePoint; 4] = [
    VantagePoint::UsWest1,
    VantagePoint::EuCentral1,
    VantagePoint::SaEast1,
    VantagePoint::AfSouth1,
];
/// Hosts of the unpinned catalog: always-online datacenter nodes, so a
/// request never fails because its only provider churned away.
const PROVIDERS: usize = 12;

struct Sizes {
    population: usize,
    catalog: usize,
    users: usize,
    requests: usize,
    nginx_capacity_bytes: u64,
}

fn sizes(quick: bool) -> Sizes {
    if quick {
        Sizes {
            population: 300,
            catalog: 200,
            users: 80,
            requests: 3_000,
            nginx_capacity_bytes: 20_000_000,
        }
    } else {
        Sizes {
            population: 2_000,
            catalog: 4_000,
            users: 1_500,
            requests: 800_000,
            nginx_capacity_bytes: 150_000_000,
        }
    }
}

/// Network, fleet and the generated day of requests.
pub struct GatewayDay {
    net: IpfsNetwork,
    fleet: GatewayFleet,
    workload: GatewayWorkload,
    /// (gateway, catalog index) of every request the network tier served:
    /// the bridge node's store must hold that object afterwards.
    fetched: Vec<(usize, usize)>,
}

impl Workload for GatewayDay {
    const NAME: &'static str = "gateway_day";
    const OP: &'static str = "one gateway request";

    fn sizes_json(quick: bool) -> String {
        let s = sizes(quick);
        format!(
            "{{\"population\": {}, \"gateways\": {}, \"providers\": {PROVIDERS}, \"catalog\": {}, \
             \"users\": {}, \"requests\": {}, \"nginx_capacity_bytes\": {}, \
             \"lb\": \"consistent_hash\", \"admission\": \"tinylfu\"}}",
            s.population,
            GATEWAYS.len(),
            s.catalog,
            s.users,
            s.requests,
            s.nginx_capacity_bytes
        )
    }

    fn setup(seed: u64, quick: bool, t: &mut Spans) -> GatewayDay {
        let s = sizes(quick);
        let pop = t.span("population_generate", 0, || {
            Population::generate(
                PopulationConfig {
                    size: s.population,
                    nat_fraction: 0.455,
                    horizon: SimDuration::from_hours(26),
                    ..Default::default()
                },
                WORLD_SEED,
            )
        });
        let mut vantages = GATEWAYS.to_vec();
        vantages.extend((0..PROVIDERS).map(|i| VantagePoint::ALL[i % VantagePoint::ALL.len()]));
        let mut net = t.span("from_population", 0, || {
            IpfsNetwork::from_population(&pop, &vantages, NetworkConfig::default(), WORLD_SEED)
        });
        let ids = net.vantage_ids(vantages.len());
        let (gateway_ids, provider_ids) = ids.split_at(GATEWAYS.len());
        // The catalog (object sizes, pinned set) belongs to the world; the
        // day of requests against it is drawn from `seed`. Requests name
        // objects by popularity rank, so the two generations compose.
        let workload = t.span("workload_generate", 0, || {
            let config = WorkloadConfig {
                catalog_size: s.catalog,
                users: s.users,
                requests: s.requests,
                seed,
                ..Default::default()
            };
            let catalog = GatewayWorkload::generate(WorkloadConfig {
                requests: 0,
                seed: WORLD_SEED,
                ..config
            });
            GatewayWorkload { objects: catalog.objects, ..GatewayWorkload::generate(config) }
        });
        let mut fleet = GatewayFleet::new(
            gateway_ids,
            FleetConfig {
                lb: LbPolicy::ConsistentHash,
                gateway: GatewayConfig {
                    nginx_capacity_bytes: s.nginx_capacity_bytes,
                    admission: AdmissionPolicy::TinyLfu,
                    ..GatewayConfig::default()
                },
                ..Default::default()
            },
        );
        t.span("install_catalog", 0, || fleet.install_catalog(&mut net, &workload, provider_ids));
        GatewayDay { net, fleet, workload, fetched: Vec::new() }
    }

    fn run(&mut self, t: &mut Spans) -> Outcome {
        let GatewayDay { net, fleet, workload, fetched } = self;
        let events_before = net.events_processed;
        let mut by_tier = [0u64; 4];
        let mut failed = 0u64;
        for (i, request) in workload.requests.iter().enumerate() {
            let span = t.enter("op.serve", i as u64);
            let served = fleet.serve(net, workload, request);
            let (tier, name) = match served.entry.served_by {
                ServedBy::NginxCache => (0, "op.serve.nginx"),
                ServedBy::NodeStore => (1, "op.serve.node_store"),
                ServedBy::Network => (2, "op.serve.network"),
                ServedBy::NegativeCache => (3, "op.serve.negative"),
            };
            t.exit_as(span, name);
            by_tier[tier] += 1;
            if !served.entry.success {
                failed += 1;
            } else if tier == 2 {
                fetched.push((served.gateway, request.object));
            }
        }
        let attempted = workload.requests.len() as u64;
        let merged = fleet.merged_metrics();
        let mut counts = netsim_counts(net.metrics());
        counts.extend([
            ("gateway.nginx_share", ratio(by_tier[0], attempted)),
            ("gateway.node_store_share", ratio(by_tier[1], attempted)),
            ("gateway.network_share", ratio(by_tier[2], attempted)),
            (
                "gateway.evictions_per_kreq",
                1000.0 * ratio(merged.get(names::GATEWAY_NGINX_EVICTIONS), attempted),
            ),
        ]);
        Outcome {
            attempted,
            failed,
            events: net.events_processed - events_before,
            digest: digest(net.events_processed, &[net.metrics(), &merged]),
            counts,
        }
    }

    fn verify(&mut self, _t: &mut Spans) -> Result<(), String> {
        // What the network tier fetched must now sit, intact, in the
        // serving gateway's node store.
        for &(gateway, object) in &self.fetched {
            let node = self.fleet.gateways[gateway].node;
            let cid = &self.workload.objects[object].cid;
            let got = self.net.node_mut(node).read_content(cid);
            if got.as_deref().ok() != Some(&CatalogObject::stub_payload(object)[..]) {
                return Err(format!(
                    "gateway_day: object {object} fetched by gateway {gateway} reads back wrong"
                ));
            }
        }
        // Eviction counters are incremental deltas: the merged registry
        // must equal the caches' own totals.
        let merged = self.fleet.merged_metrics().get(names::GATEWAY_NGINX_EVICTIONS);
        if merged != self.fleet.total_evictions() {
            return Err(format!(
                "gateway_day: merged evictions {merged} != cache totals {}",
                self.fleet.total_evictions()
            ));
        }
        Ok(())
    }
}
