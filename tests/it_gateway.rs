//! Gateway integration: the HTTP bridge over a live simulated network
//! (paper §3.4, §6.3).

use std::collections::HashMap;

use faultsim::FaultPlan;
use gateway::workload::{GatewayWorkload, WorkloadConfig};
use gateway::{AccessLogEntry, FleetConfig, GatewayFleet, LbPolicy, ServedBy};
use integration_tests::test_network;
use ipfs_core::obs::names;
use simnet::latency::VantagePoint;
use simnet::{SimDuration, SimTime};

/// A network with a one-gateway fleet on its `UsWest1` vantage, the
/// catalog installed.
fn setup(seed: u64, requests: usize) -> (ipfs_core::IpfsNetwork, GatewayFleet, GatewayWorkload) {
    let (mut net, ids) = test_network(400, &[VantagePoint::UsWest1], seed);
    let workload = GatewayWorkload::generate(WorkloadConfig {
        catalog_size: 150,
        users: 80,
        requests,
        seed,
        ..Default::default()
    });
    let mut gw = GatewayFleet::new(&ids, FleetConfig::default());
    let providers: Vec<_> =
        net.server_ids().into_iter().filter(|&i| net.is_dialable(i)).take(20).collect();
    gw.install_catalog(&mut net, &workload, &providers);
    (net, gw, workload)
}

/// Serves the whole workload, returning the gateway's access log.
fn serve_all(
    net: &mut ipfs_core::IpfsNetwork,
    gw: &mut GatewayFleet,
    workload: &GatewayWorkload,
) -> Vec<AccessLogEntry> {
    gw.serve_all(net, workload).into_iter().map(|e| e.entry).collect()
}

#[test]
fn full_day_of_traffic_serves_cleanly() {
    let (mut net, mut gw, workload) = setup(301, 600);
    let log = serve_all(&mut net, &mut gw, &workload);
    assert_eq!(log.len(), 600);
    // Log entries are time-ordered like an nginx access log.
    for pair in log.windows(2) {
        assert!(pair[0].at <= pair[1].at);
    }
    // All three tiers appear and the split is Table-5-shaped.
    let count =
        |t: ServedBy| log.iter().filter(|e| e.served_by == t).count() as f64 / log.len() as f64;
    assert!(count(ServedBy::NginxCache) > 0.2, "nginx {}", count(ServedBy::NginxCache));
    assert!(count(ServedBy::NodeStore) > 0.1, "store {}", count(ServedBy::NodeStore));
    assert!(count(ServedBy::Network) > 0.02, "network {}", count(ServedBy::Network));
}

#[test]
fn latency_ordering_between_tiers() {
    let (mut net, mut gw, workload) = setup(302, 500);
    let log = serve_all(&mut net, &mut gw, &workload);
    let median = |t: ServedBy| {
        let mut v: Vec<f64> = log
            .iter()
            .filter(|e| e.served_by == t && e.success)
            .map(|e| e.latency.as_secs_f64())
            .collect();
        v.sort_by(f64::total_cmp);
        if v.is_empty() {
            f64::NAN
        } else {
            v[v.len() / 2]
        }
    };
    let nginx = median(ServedBy::NginxCache);
    let store = median(ServedBy::NodeStore);
    let network = median(ServedBy::Network);
    // Table 5's ordering: 0 s << 8 ms << seconds.
    assert_eq!(nginx, 0.0);
    assert!(store > 0.0 && store < 0.1, "node store {store}");
    assert!(network > 1.0, "non-cached pays the P2P pipeline: {network}");
}

#[test]
fn gateway_offloads_network_over_time() {
    // As the cache warms, the network share of traffic must fall (the
    // demand-aggregation argument of §6.3).
    let (mut net, mut gw, workload) = setup(303, 800);
    let log = serve_all(&mut net, &mut gw, &workload);
    let half = log.len() / 2;
    let share = |slice: &[AccessLogEntry]| {
        slice.iter().filter(|e| e.served_by == ServedBy::Network).count() as f64
            / slice.len() as f64
    };
    let early = share(&log[..half]);
    let late = share(&log[half..]);
    assert!(
        late <= early,
        "network share should not grow as the cache warms: early {early:.3} late {late:.3}"
    );
}

#[test]
fn gateway_is_optional_direct_p2p_still_works() {
    // §3.4: "gateways are entirely optional for the operation of the
    // overall storage and retrieval network". Fetch an object directly
    // from a provider, bypassing the gateway entirely.
    let (mut net, ids) = test_network(300, &[VantagePoint::UsWest1, VantagePoint::EuCentral1], 304);
    let [_gw, direct_user] = ids[..] else { unreachable!() };
    let providers: Vec<_> =
        net.server_ids().into_iter().filter(|&i| net.is_dialable(i)).take(1).collect();
    let data = integration_tests::payload(80_000, 1);
    let cid = net.import_content(providers[0], &data);
    net.publish(providers[0], cid.clone());
    net.run_until_quiet();
    net.retrieve(direct_user, cid.clone());
    net.run_until_quiet();
    assert!(net.retrieve_reports.last().unwrap().success);
    assert_eq!(net.node_mut(direct_user).read_content(&cid).unwrap(), data);
}

#[test]
fn pinned_content_survives_gateway_gc() {
    let (mut net, gw, workload) = setup(305, 1);
    // Run GC on the gateway node: pinned objects must survive.
    let pinned_cids: Vec<_> =
        workload.objects.iter().filter(|o| o.pinned).map(|o| o.cid.clone()).collect();
    assert!(!pinned_cids.is_empty());
    let node = net.node_mut(gw.gateways[0].node);
    node.store.gc();
    for cid in &pinned_cids {
        assert!(merkledag::BlockStore::has(&node.store, cid), "pinned object lost in GC");
    }
}

#[test]
fn diurnal_request_times_preserved_in_log() {
    let (mut net, mut gw, workload) = setup(306, 400);
    let log = serve_all(&mut net, &mut gw, &workload);
    for (entry, req) in log.iter().zip(&workload.requests) {
        assert_eq!(entry.user, req.user);
        // `at` is the request's arrival instant, exactly as the workload
        // generated it — the serve path must not fold serve-time delays
        // into the arrival column. Completion carries the delay instead.
        assert_eq!(entry.at, req.at);
        assert!(entry.completed_at >= entry.at);
        assert_eq!(entry.completed_at, entry.at + entry.latency);
    }
}

// --- Gateway fleet -------------------------------------------------------

const FLEET_VANTAGES: [VantagePoint; 4] = [
    VantagePoint::UsWest1,
    VantagePoint::EuCentral1,
    VantagePoint::SaEast1,
    VantagePoint::AfSouth1,
];

fn fleet_setup(
    seed: u64,
    requests: usize,
    lb: LbPolicy,
) -> (ipfs_core::IpfsNetwork, GatewayFleet, GatewayWorkload) {
    let (mut net, ids) = test_network(400, &FLEET_VANTAGES, seed);
    let workload = GatewayWorkload::generate(WorkloadConfig {
        catalog_size: 120,
        users: 80,
        requests,
        seed,
        ..Default::default()
    });
    let mut fleet = GatewayFleet::new(&ids, FleetConfig { lb, ..Default::default() });
    let providers: Vec<_> =
        net.server_ids().into_iter().filter(|&i| net.is_dialable(i)).take(20).collect();
    fleet.install_catalog(&mut net, &workload, &providers);
    (net, fleet, workload)
}

#[test]
fn fleet_serves_with_cid_affinity_and_merged_metrics_agree() {
    let (mut net, mut fleet, workload) = fleet_setup(401, 500, LbPolicy::ConsistentHash);
    let log = fleet.serve_all(&mut net, &workload);
    assert_eq!(log.len(), 500);

    // Consistent hashing with no faults: every CID sticks to one gateway.
    let mut home: HashMap<String, usize> = HashMap::new();
    for e in &log {
        let prev = home.entry(e.entry.cid.to_string()).or_insert(e.gateway);
        assert_eq!(*prev, e.gateway, "cid moved between gateways without a fault");
    }
    // Traffic spreads across the whole fleet.
    for g in 0..fleet.len() {
        assert!(log.iter().any(|e| e.gateway == g), "gateway {g} saw no traffic");
    }

    let merged = fleet.merged_metrics();
    assert_eq!(merged.get(names::GATEWAY_FLEET_FAILOVERS), 0);
    // Satellite 3 at fleet scope: per-gateway eviction counters are
    // incremental deltas, so the merged registry equals the caches' truth.
    assert_eq!(merged.get(names::GATEWAY_NGINX_EVICTIONS), fleet.total_evictions());
    // Registry and access log agree on the nginx tier.
    let nginx_hits = log.iter().filter(|e| e.entry.served_by == ServedBy::NginxCache).count();
    assert_eq!(merged.get(names::GATEWAY_NGINX_HITS), nginx_hits as u64);
}

#[test]
fn fleet_fails_over_during_regional_outage() {
    let (mut net, mut fleet, workload) = fleet_setup(402, 600, LbPolicy::ConsistentHash);
    // EuCentral1 is FLEET_VANTAGES[1]; take its whole region down for the
    // middle of the day.
    let eu = 1usize;
    let start = SimTime::ZERO + SimDuration::from_hours(6);
    let window = SimDuration::from_hours(8);
    let mut plan = FaultPlan::new();
    plan.region_outage(start, window, FLEET_VANTAGES[eu].region());
    net.install_fault_plan(plan);

    let log = fleet.serve_all(&mut net, &workload);
    assert_eq!(log.len(), 600, "every request is served despite the outage");

    let in_window = |t: SimTime| t >= start && t < start + window;
    assert!(
        log.iter().filter(|e| in_window(e.entry.at)).all(|e| e.gateway != eu),
        "requests arriving during the outage must not route to the dead region"
    );
    // The EU gateway carries traffic outside the window on both sides.
    assert!(log.iter().any(|e| e.gateway == eu && e.entry.at < start), "eu idle before outage");
    assert!(
        log.iter().any(|e| e.gateway == eu && e.entry.at >= start + window),
        "eu gateway did not resume after the region healed"
    );
    let merged = fleet.merged_metrics();
    assert!(merged.get(names::GATEWAY_FLEET_FAILOVERS) > 0, "failovers must be counted");
    assert_eq!(merged.get(names::GATEWAY_NGINX_EVICTIONS), fleet.total_evictions());
}

#[test]
fn fleet_round_robin_spreads_repeats_of_one_cid() {
    let (mut net, mut fleet, workload) = fleet_setup(403, 300, LbPolicy::RoundRobin);
    let log = fleet.serve_all(&mut net, &workload);
    assert_eq!(log.len(), 300);
    // Round-robin ignores the CID: some object lands on several gateways.
    let mut per_cid: HashMap<String, Vec<usize>> = HashMap::new();
    for e in &log {
        per_cid.entry(e.entry.cid.to_string()).or_default().push(e.gateway);
    }
    assert!(
        per_cid.values().any(|gws| {
            let mut uniq = gws.clone();
            uniq.sort_unstable();
            uniq.dedup();
            uniq.len() > 1
        }),
        "round-robin should split at least one CID across gateways"
    );
}
