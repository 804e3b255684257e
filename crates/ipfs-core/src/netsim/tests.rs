//! Tests of the simulation driver, grouped by the layer file each one
//! exercises. They share this one module so every test keeps the name the
//! suite reports (`netsim::tests::<name>`). Newer tests sit in a `tests`
//! module inside their layer's file.

use super::*;
use crate::obs::{names, TraceConfig};
use bytes::Bytes;
use faultsim::FaultPlan;
use simnet::PopulationConfig;

// ------------------------------------------------------------------
// Shared fixtures.
// ------------------------------------------------------------------

pub(super) fn small_net(n: usize, seed: u64) -> IpfsNetwork {
    let pop = Population::generate(
        PopulationConfig {
            size: n,
            nat_fraction: 0.3,
            horizon: SimDuration::from_hours(6),
            ..Default::default()
        },
        seed,
    );
    IpfsNetwork::from_population(
        &pop,
        &[VantagePoint::EuCentral1, VantagePoint::UsWest1],
        NetworkConfig::default(),
        seed,
    )
}

pub(super) fn lifecycle_net(sweep: bool) -> IpfsNetwork {
    let pop = Population::generate(
        PopulationConfig {
            size: 150,
            nat_fraction: 0.3,
            horizon: SimDuration::from_hours(12),
            ..Default::default()
        },
        23,
    );
    let cfg = NetworkConfig {
        auto_republish: true,
        reprovide_sweep: sweep,
        node: NodeConfig {
            republish_interval: SimDuration::from_hours(1),
            ..NodeConfig::default()
        },
        ..NetworkConfig::default()
    };
    IpfsNetwork::from_population(&pop, &[VantagePoint::EuCentral1], cfg, 23)
}

// ------------------------------------------------------------------
// Transport: dials, the connection manager, DCUtR and AutoNAT.
// ------------------------------------------------------------------

#[test]
fn connection_manager_prunes_lru() {
    let pop = Population::generate(
        PopulationConfig {
            size: 60,
            nat_fraction: 0.0,
            horizon: SimDuration::from_hours(2),
            ..Default::default()
        },
        42,
    );
    let cfg = NetworkConfig { max_connections: 5, ..Default::default() };
    let mut net = IpfsNetwork::from_population(&pop, &[VantagePoint::EuCentral1], cfg, 42);
    let hub = net.vantage_ids(1)[0];
    for other in 0..20 {
        net.connect(hub, other);
    }
    assert!(net.connection_count(hub) <= 5, "cap enforced");
    // The most recent connections survive.
    assert!(net.is_connected(hub, 19));
    assert!(!net.is_connected(hub, 0));
}

#[test]
fn dcutr_lets_nat_peers_host_content() {
    // §3.1: "peers behind NATs cannot host content themselves ...
    // a NAT hole-punching solution is currently being developed".
    // With DCUtR enabled (and fresh provider-record addresses, which
    // carry the relay addrs), a NAT'ed peer can serve.
    let build = |dcutr: bool| {
        let pop = Population::generate(
            PopulationConfig {
                size: 300,
                nat_fraction: 0.5,
                horizon: SimDuration::from_hours(8),
                ..Default::default()
            },
            41,
        );
        let cfg = NetworkConfig {
            enable_dcutr: dcutr,
            dcutr_success_rate: 1.0, // deterministic for the test
            provider_records_carry_addrs: true,
            ..Default::default()
        };
        let net = IpfsNetwork::from_population(&pop, &[VantagePoint::EuCentral1], cfg, 41);
        (net, pop)
    };
    for dcutr in [false, true] {
        let (mut net, pop) = build(dcutr);
        // A NAT'ed peer with a long session starting at t=0.
        let nat_provider = pop
            .peers
            .iter()
            .position(|p| {
                p.nat
                    && p.schedule.online_at(SimTime::ZERO)
                    && p.schedule.online_at(SimTime::ZERO + SimDuration::from_hours(2))
            })
            .expect("a long-lived NAT'ed peer exists");
        let requester = net.vantage_ids(1)[0];
        let data = Bytes::from(vec![0x11u8; 64 * 1024]);
        let cid = net.import_content(nat_provider, &data);
        net.publish(nat_provider, cid.clone());
        net.run_until_quiet();
        assert!(
            net.publish_reports.last().unwrap().success,
            "NAT'ed peers can still *publish* records (they dial out)"
        );
        // Drop the outbound connections the publish walk opened — a
        // NAT'ed peer can serve over those (it dialed out), but here we
        // test reachability for a *fresh* requester.
        net.disconnect_all(nat_provider);

        net.retrieve(requester, cid.clone());
        net.run_until_quiet();
        let rr = net.retrieve_reports.last().unwrap();
        if dcutr {
            assert!(rr.success, "hole punching makes the NAT'ed host reachable: {rr:?}");
            assert_eq!(net.node_mut(requester).read_content(&cid).unwrap(), data);
        } else {
            assert!(!rr.success, "without DCUtR the NAT'ed host is unreachable");
        }
    }
}

#[test]
fn autonat_probe_matches_ground_truth() {
    use crate::AutonatVerdict;
    let mut net = small_net(300, 44);
    // Vantage node: public -> upgrades to Server.
    let v = net.vantage_ids(1)[0];
    assert_eq!(net.autonat_probe(v, 10), AutonatVerdict::Public);
    // A NAT'ed population node: stays Private.
    let nat = (0..net.len())
        .find(|&i| !net.is_dialable(i) && net.is_online(i))
        .expect("a NAT'ed online node exists");
    assert_eq!(net.autonat_probe(nat, 10), AutonatVerdict::Private);
}

// ------------------------------------------------------------------
// DHT driver: table refresh and its timers.
// ------------------------------------------------------------------

#[test]
fn offline_nodes_leave_no_pending_timers() {
    // A node whose session ends must not keep a refresh chain ticking
    // in the scheduler. With no always-online vantage or hydra nodes,
    // only the currently-online population may hold pending timers
    // once every scheduled session has played out.
    let pop = Population::generate(
        PopulationConfig {
            size: 60,
            nat_fraction: 0.3,
            horizon: SimDuration::from_hours(2),
            ..Default::default()
        },
        21,
    );
    let cfg = NetworkConfig {
        table_refresh_interval: Some(SimDuration::from_mins(10)),
        ..NetworkConfig::default()
    };
    let mut net = IpfsNetwork::from_population(&pop, &[], cfg, 21);
    let deadline = SimTime::ZERO + SimDuration::from_hours(3);
    net.run_until(deadline);
    let online = net.online.iter().filter(|&&on| on).count();
    assert!(online < net.nodes.len(), "test needs at least one offline node");
    for (id, node) in net.nodes.iter().enumerate() {
        if !net.online[id] {
            assert!(node.refresh_timer.is_none(), "offline node {id} holds a refresh timer");
        }
    }
    // Everything still pending must be either one refresh timer per
    // online node or a churn transition scheduled past the deadline —
    // permanently-offline nodes contribute nothing.
    let future_churn: usize = pop
        .peers
        .iter()
        .flat_map(|p| p.schedule.sessions.iter())
        .map(|&(start, end)| usize::from(start > deadline) + usize::from(end > deadline))
        .sum();
    assert!(
        net.queue.len() <= online + future_churn,
        "{} pending events for {online} online nodes + {future_churn} future churns: \
         offline refresh chains leak",
        net.queue.len()
    );
}

#[test]
fn table_refresh_keeps_tables_fresher() {
    // With periodic refresh, routing tables shed stale entries faster:
    // after hours of churn, the dialable fraction of an average
    // server's table is higher than without refresh.
    let build = |refresh: bool, seed: u64| {
        let pop = Population::generate(
            PopulationConfig {
                size: 500,
                nat_fraction: 0.4,
                horizon: SimDuration::from_hours(8),
                ..Default::default()
            },
            seed,
        );
        let cfg = NetworkConfig {
            table_refresh_interval: refresh.then(|| SimDuration::from_mins(10)),
            ..Default::default()
        };
        let mut net = IpfsNetwork::from_population(&pop, &[VantagePoint::EuCentral1], cfg, seed);
        net.run_for(SimDuration::from_hours(5));
        // Average dialable fraction across online servers' tables.
        let mut total = 0usize;
        let mut live = 0usize;
        for id in net.server_ids() {
            if !net.is_dialable(id) {
                continue;
            }
            for info in net.k_bucket_entries(id) {
                if let Some(t) = net.resolve(&info.peer) {
                    total += 1;
                    if net.is_dialable(t) {
                        live += 1;
                    }
                }
            }
        }
        live as f64 / total.max(1) as f64
    };
    let with = build(true, 71);
    let without = build(false, 71);
    assert!(
        with > without,
        "refresh must keep tables fresher: with {with:.3} vs without {without:.3}"
    );
}

// ------------------------------------------------------------------
// Bitswap driver: the probe and swarm fetch sessions.
// ------------------------------------------------------------------

#[test]
fn bitswap_satisfies_connected_neighbours() {
    let mut net = small_net(300, 8);
    let [provider, requester] = net.vantage_ids(2)[..] else { panic!() };
    let data = Bytes::from(vec![0xCD; 100_000]);
    let cid = net.import_content(provider, &data);
    // Warm connection: the opportunistic Bitswap probe should hit.
    net.connect(provider, requester);
    net.retrieve(requester, cid.clone());
    net.run_until_quiet();
    let rr = net.retrieve_reports[0].clone();
    assert!(rr.success);
    assert!(rr.via_bitswap, "neighbour had the content: {rr:?}");
    assert!(rr.total < SimDuration::from_secs(1), "no DHT, no 1 s timeout: {}", rr.total);
    assert_eq!(rr.provider_walk, SimDuration::ZERO);
}

#[test]
fn single_provider_fetch_identical_across_session_knobs() {
    // Regression guard (fig10 shape): with exactly one provider the
    // session must degrade to the legacy single-provider message
    // sequence, so cranking the swarm knobs cannot move any phase
    // timing — or the event count — at all.
    let run = |cfg: NetworkConfig| {
        let pop = Population::generate(
            PopulationConfig {
                size: 300,
                nat_fraction: 0.3,
                horizon: SimDuration::from_hours(6),
                ..Default::default()
            },
            31,
        );
        let mut net = IpfsNetwork::from_population(
            &pop,
            &[VantagePoint::EuCentral1, VantagePoint::UsWest1],
            cfg,
            31,
        );
        let [provider, requester] = net.vantage_ids(2)[..] else { panic!() };
        let data = Bytes::from(vec![0x42; 700_000]);
        let cid = net.import_content(provider, &data);
        net.publish(provider, cid.clone());
        net.run_until_quiet();
        net.retrieve(requester, cid);
        net.run_until_quiet();
        let rr = net.retrieve_reports[0].clone();
        assert!(rr.success, "retrieve must succeed: {rr:?}");
        (rr.total, rr.bitswap_probe, rr.provider_walk, rr.peer_walk, rr.fetch, net.events_processed)
    };
    let base = run(NetworkConfig::default());
    let tuned = run(NetworkConfig {
        duplicate_factor: 4,
        max_fetch_providers: 1,
        ..NetworkConfig::default()
    });
    assert_eq!(base, tuned, "session knobs must be inert with a single provider");
}

#[test]
fn swarm_fetch_draws_blocks_from_multiple_providers() {
    // Five providers announce the same 2 MiB DAG; the requester's
    // session must fan the fetch out instead of draining one uplink.
    let pop = Population::generate(
        PopulationConfig {
            size: 300,
            nat_fraction: 0.3,
            horizon: SimDuration::from_hours(6),
            ..Default::default()
        },
        33,
    );
    // Records carry multiaddrs so every discovered provider is dialed
    // up front — the swarm assembles before the transfer finishes.
    let cfg = NetworkConfig { provider_records_carry_addrs: true, ..Default::default() };
    let mut net = IpfsNetwork::from_population(&pop, &VantagePoint::ALL, cfg, 33);
    let vs = net.vantage_ids(6);
    let (requester, providers) = (vs[0], &vs[1..]);
    // Non-repeating bytes (xorshift64): uniform fill would dedup every
    // 256 KiB leaf into a single CID and collapse the DAG to 2 blocks.
    let mut x = 0x1234_5678_9ABC_DEF0u64;
    let data = Bytes::from(
        (0..2 * 1024 * 1024)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect::<Vec<u8>>(),
    );
    let mut cid = None;
    for &p in providers {
        let c = net.import_content(p, &data);
        net.publish(p, c.clone());
        cid = Some(c);
    }
    let cid = cid.unwrap();
    net.run_until_quiet();
    assert!(net.publish_reports.iter().all(|r| r.success));

    net.retrieve(requester, cid.clone());
    net.run_until_quiet();
    let rr = net.retrieve_reports[0].clone();
    assert!(rr.success, "swarm retrieve must succeed: {rr:?}");
    assert_eq!(net.node_mut(requester).read_content(&cid).unwrap(), data);
    // 8 × 256 KiB leaves + root, all through the session layer.
    assert!(
        net.metrics.get(names::BITSWAP_SESSION_BLOCKS_RECEIVED) >= 9,
        "session counters must see the whole DAG: blocks={} wants={} via_bitswap={} fetch={:?}",
        net.metrics.get(names::BITSWAP_SESSION_BLOCKS_RECEIVED),
        net.metrics.get(names::BITSWAP_SESSION_WANTS_SENT),
        rr.via_bitswap,
        rr.fetch,
    );
    let serving =
        providers.iter().filter(|&&p| net.nodes[p].node.bitswap.counts_sent.block > 0).count();
    assert!(serving >= 2, "blocks must come from a swarm, not one uplink ({serving} served)");
    // Duplicate factor 1: nothing should be fetched twice.
    assert_eq!(net.metrics.get(names::BITSWAP_SESSION_DUP_BLOCKS), 0);
}

// ------------------------------------------------------------------
// Reprovide: per-CID chains and the keyspace sweep.
// ------------------------------------------------------------------

#[test]
fn republish_chain_survives_provider_downtime() {
    // go-ipfs reprovides on startup: a provider that is offline when
    // its republish tick would fire must reannounce after it
    // restarts, not drop the chain forever. Per-CID chain mode.
    let mut net = lifecycle_net(false);
    let [provider] = net.vantage_ids(1)[..] else { panic!() };
    let data = Bytes::from(vec![0x5A; 100_000]);
    let cid = net.import_content(provider, &data);
    net.publish(provider, cid.clone());
    net.run_until_quiet();
    assert!(net.publish_reports[0].success);
    let entry = net.nodes[provider].provided.get(&Key::from_cid(&cid)).unwrap();
    assert!(entry.timer.is_some(), "republish chain armed");

    // Take the provider down before the boundary and run across it:
    // the parked chain must stay silent while the node is dead.
    net.on_churn(provider, false);
    let entry = net.nodes[provider].provided.get(&Key::from_cid(&cid)).unwrap();
    assert!(entry.timer.is_none() && entry.deferred, "chain parked");
    net.run_until(SimTime::ZERO + SimDuration::from_hours(2));
    assert_eq!(net.metrics.get(names::PROVIDER_REPUBLISHES), 0);

    // Restart: the chain reannounces immediately and re-arms.
    net.on_churn(provider, true);
    let resume_by = net.now() + SimDuration::from_mins(30);
    net.run_until(resume_by);
    assert_eq!(net.metrics.get(names::PROVIDER_REPUBLISH_RESUMED), 1);
    assert!(
        net.metrics.get(names::PROVIDER_REPUBLISHES) >= 1,
        "provider must reannounce after restart"
    );
    let entry = net.nodes[provider].provided.get(&Key::from_cid(&cid)).unwrap();
    assert!(entry.timer.is_some(), "chain re-armed after resume");
}

#[test]
fn reprovide_sweep_survives_provider_downtime() {
    // Same offline-defer/resume contract, sweep mode: the single
    // sweep timer parks at churn-off and the rejoin runs the sweep
    // immediately (reprovide-on-startup), then re-arms it.
    let mut net = lifecycle_net(true);
    let [provider] = net.vantage_ids(1)[..] else { panic!() };
    let data = Bytes::from(vec![0x5A; 100_000]);
    let cid = net.import_content(provider, &data);
    net.publish(provider, cid.clone());
    net.run_until_quiet();
    assert!(net.publish_reports[0].success);
    assert!(net.nodes[provider].provided.contains_key(&Key::from_cid(&cid)));
    assert!(net.nodes[provider].sweep_timer.is_some(), "sweep timer armed");

    net.on_churn(provider, false);
    assert!(net.nodes[provider].sweep_timer.is_none(), "sweep timer cancelled");
    assert!(net.nodes[provider].sweep_deferred, "sweep parked");
    net.run_until(SimTime::ZERO + SimDuration::from_hours(2));
    assert_eq!(net.metrics.get(names::PROVIDER_REPUBLISHES), 0);
    assert_eq!(net.metrics.get(names::PROVIDER_SWEEP_RUNS), 0);

    net.on_churn(provider, true);
    let resume_by = net.now() + SimDuration::from_mins(30);
    net.run_until(resume_by);
    assert_eq!(net.metrics.get(names::PROVIDER_REPUBLISH_RESUMED), 1);
    assert!(net.metrics.get(names::PROVIDER_SWEEP_RUNS) >= 1, "sweep ran after restart");
    assert!(
        net.metrics.get(names::PROVIDER_REPUBLISHES) >= 1,
        "provider must reannounce after restart"
    );
    assert!(net.nodes[provider].sweep_timer.is_some(), "sweep re-armed after resume");
    // The reannounced record actually landed somewhere: batched
    // stores delivered.
    assert!(net.metrics.get(names::DHT_RPC_RECV_ADD_PROVIDER_BATCH) >= 1);
}

#[test]
fn provided_set_scales_to_ten_thousand_cids() {
    // Regression guard for the O(n) `republish.iter().position(...)`
    // scans the Vec-based provided set paid on every re-arm and every
    // Republish dispatch: arming (and re-arming) 10k CIDs per node
    // must be keyed, not scanned. With the old quadratic path this
    // loop was ~10^8 tuple compares; keyed it is ~10^5 map ops.
    let mut per_cid = lifecycle_net(false);
    let mut sweep = lifecycle_net(true);
    let [p1] = per_cid.vantage_ids(1)[..] else { panic!() };
    let [p2] = sweep.vantage_ids(1)[..] else { panic!() };
    let cids: Vec<Cid> = (0u32..10_000).map(|i| Cid::from_raw_data(&i.to_le_bytes())).collect();
    let t0 = std::time::Instant::now();
    for cid in &cids {
        per_cid.arm_reprovide(p1, cid.clone());
        sweep.arm_reprovide(p2, cid.clone());
    }
    // Re-arm every CID once more: replaces the pending chain entry
    // instead of stacking a second one.
    for cid in &cids {
        per_cid.arm_reprovide(p1, cid.clone());
        sweep.arm_reprovide(p2, cid.clone());
    }
    assert_eq!(per_cid.nodes[p1].provided.len(), 10_000);
    assert_eq!(sweep.nodes[p2].provided.len(), 10_000);
    assert!(per_cid.nodes[p1].provided.values().all(|e| e.timer.is_some()));
    // Sweep mode: one timer maintains all 10k CIDs.
    assert!(sweep.nodes[p2].provided.values().all(|e| e.timer.is_none()));
    assert!(sweep.nodes[p2].sweep_timer.is_some());
    // Generous even for debug builds + CI noise; the quadratic path
    // took minutes here.
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(10),
        "provided-set maintenance is no longer keyed: {:?}",
        t0.elapsed()
    );
}

/// Is a provider record for `key` held (unexpired) by any online node?
fn record_available(net: &IpfsNetwork, key: &Key) -> bool {
    let now = net.now();
    (0..net.len()).any(|i| net.online[i] && net.nodes[i].node.dht.store().has_provider(key, now))
}

mod availability_timeline {
    use super::*;
    use proptest::prelude::*;

    /// One lifecycle run: publish `n_cids` from an always-online
    /// vantage provider, maintain them for 26 h (past the 24 h record
    /// expiry, so survival requires republication to actually work),
    /// with a provider outage spanning at least one republish
    /// boundary. Returns the availability observed at each checkpoint.
    fn run_timeline(
        sweep: bool,
        seed: u64,
        interval: SimDuration,
        off_at: SimTime,
        downtime: SimDuration,
        n_cids: usize,
    ) -> Vec<bool> {
        let pop = Population::generate(
            PopulationConfig {
                size: 60,
                nat_fraction: 0.3,
                horizon: SimDuration::from_hours(30),
                ..Default::default()
            },
            seed,
        );
        let cfg = NetworkConfig {
            auto_republish: true,
            reprovide_sweep: sweep,
            node: NodeConfig { republish_interval: interval, ..NodeConfig::default() },
            ..NetworkConfig::default()
        };
        let mut net = IpfsNetwork::from_population(&pop, &[VantagePoint::EuCentral1], cfg, seed);
        let [provider] = net.vantage_ids(1)[..] else { panic!() };
        let mut keys = Vec::new();
        for i in 0..n_cids {
            let data = Bytes::from(vec![seed as u8 ^ i as u8; 4096 + i]);
            let cid = net.import_content(provider, &data);
            keys.push(Key::from_cid(&cid));
            net.publish(provider, cid);
        }
        net.run_until_quiet();
        let on_at = off_at + downtime;
        let mut went_off = false;
        let mut came_back = false;
        let mut timeline = Vec::new();
        // 47 min stride: coprime with the republish interval, so
        // checkpoints land on both sides of every boundary.
        let stride = SimDuration::from_mins(47);
        let end = SimTime::ZERO + SimDuration::from_hours(26);
        let mut t = net.now() + stride;
        while t <= end {
            if !went_off && t >= off_at {
                net.run_until(off_at);
                net.on_churn(provider, false);
                went_off = true;
            }
            if went_off && !came_back && t >= on_at {
                net.run_until(on_at);
                net.on_churn(provider, true);
                came_back = true;
            }
            net.run_until(t);
            // Settling guard: skip the checkpoint immediately after
            // rejoin — the resumed reannounce needs its walk + stores
            // to land before records refresh.
            let settling = came_back && t < on_at + SimDuration::from_mins(45);
            if !settling {
                timeline.push(keys.iter().all(|k| record_available(&net, k)));
            }
            t += stride;
        }
        timeline
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5))]
        /// The batched sweep maintains the same record-availability
        /// timeline as per-CID chains: no record expires while its
        /// provider is online, the records survive a provider outage
        /// shorter than the 24 h expiry even when it spans a
        /// republish boundary, and the deferred sweep resumes on
        /// rejoin. Availability must hold at every checkpoint of a
        /// 26 h run (past record expiry, so survival proves the
        /// maintenance loop refreshed them) — in both modes, giving
        /// identical timelines.
        #[test]
        fn sweep_matches_per_cid_availability(
            seed in 1u64..1000,
            interval_mins in 60u64..=120,
            downtime_extra_mins in 5u64..=40,
        ) {
            let interval = SimDuration::from_mins(interval_mins);
            // Outage begins mid-cycle and lasts one interval plus a
            // bit: it always crosses at least one republish boundary.
            let off_at = SimTime::ZERO + SimDuration::from_hours(18);
            let downtime =
                interval + SimDuration::from_mins(downtime_extra_mins);
            let per_cid =
                run_timeline(false, seed, interval, off_at, downtime, 3);
            let swept =
                run_timeline(true, seed, interval, off_at, downtime, 3);
            prop_assert!(
                per_cid.iter().all(|&a| a),
                "per-CID chains dropped availability: {per_cid:?}"
            );
            prop_assert!(
                swept.iter().all(|&a| a),
                "sweep dropped availability: {swept:?}"
            );
            prop_assert_eq!(per_cid, swept);
        }
    }
}

// ------------------------------------------------------------------
// Faults: partitions, crash waves and degraded links.
// ------------------------------------------------------------------

#[test]
fn partition_blocks_cross_partition_retrieval_until_heal() {
    let mut net = small_net(400, 7);
    let [provider, requester] = net.vantage_ids(2)[..] else { panic!() };
    assert_eq!(net.region(requester), Region::NorthAmericaWest);
    let data = Bytes::from(vec![0x5A; 256 * 1024]);
    let cid = net.import_content(provider, &data);
    net.publish(provider, cid.clone());
    net.run_until_quiet();
    assert!(net.publish_reports[0].success);

    // Cut North America West off from t+10s to t+300s.
    let t0 = net.now();
    let mut plan = FaultPlan::new();
    plan.region_outage(
        t0 + SimDuration::from_secs(10),
        SimDuration::from_secs(290),
        Region::NorthAmericaWest,
    );
    net.install_fault_plan(plan);
    net.run_for(SimDuration::from_secs(20)); // partition is now up

    net.retrieve(requester, cid.clone());
    net.run_until_quiet();
    let rr = net.retrieve_reports[0].clone();
    assert!(!rr.success, "cross-partition retrieval must fail: {rr:?}");
    assert!(net.metrics().get(names::FAULT_DIALS_BLOCKED) > 0);

    // Heal, then the same retrieval succeeds.
    net.run_until(t0 + SimDuration::from_secs(301));
    assert!(!net.fault_oracle().has_active_faults(), "partition healed");
    net.retrieve(requester, cid.clone());
    net.run_until_quiet();
    let rr = net.retrieve_reports[1].clone();
    assert!(rr.success, "post-heal retrieval must succeed: {rr:?}");
    assert_eq!(net.metrics().get(names::FAULT_PARTITION_HEALS), 1);
}

#[test]
fn partition_severs_warm_connections_before_the_probe() {
    // Regression: a warm connection crossing a fresh partition must not
    // feed the 1 s Bitswap probe (the transport would have reset it).
    let mut net = small_net(300, 8);
    let [provider, requester] = net.vantage_ids(2)[..] else { panic!() };
    let data = Bytes::from(vec![0xCD; 100_000]);
    let cid = net.import_content(provider, &data);
    net.connect(provider, requester);
    assert!(net.is_connected(requester, provider));

    let t0 = net.now();
    let mut plan = FaultPlan::new();
    plan.region_outage(
        t0 + SimDuration::from_secs(5),
        SimDuration::from_secs(600),
        net.region(requester),
    );
    net.install_fault_plan(plan);
    net.run_for(SimDuration::from_secs(10));
    assert!(!net.is_connected(requester, provider), "boundary severs the warm conn");
    assert!(net.metrics().get(names::FAULT_CONNS_SEVERED) > 0);

    net.retrieve(requester, cid);
    net.run_until_quiet();
    let rr = net.retrieve_reports[0].clone();
    assert!(!rr.via_bitswap, "probe must not cross the partition: {rr:?}");
    assert!(!rr.success, "provider unreachable during partition: {rr:?}");
}

#[test]
fn crash_wave_takes_peers_down_and_restarts_them() {
    let mut net = small_net(300, 21);
    let t0 = net.now();
    let mut plan = FaultPlan::new();
    plan.crash_wave(t0 + SimDuration::from_secs(30), 0.5, SimDuration::from_secs(120));
    net.install_fault_plan(plan);

    let online_before: usize = (0..net.crashable).filter(|&i| net.is_online(i)).count();
    net.run_until(t0 + SimDuration::from_secs(31));
    let crashed = net.metrics().get(names::FAULT_NODES_CRASHED);
    assert!(crashed > 0, "half the online peers crash");
    let online_during: usize = (0..net.crashable).filter(|&i| net.is_online(i)).count();
    assert!(online_during < online_before);
    // After the restart delay the victims churn back online.
    net.run_until(t0 + SimDuration::from_secs(200));
    let online_after: usize = (0..net.crashable).filter(|&i| net.is_online(i)).count();
    assert!(online_after > online_during, "victims restart after the wave");
    assert_eq!(net.metrics().get(names::FAULT_CRASH_WAVES), 1);
}

#[test]
fn fault_runs_are_deterministic_and_faultless_plans_change_nothing() {
    let run = |plan: Option<FaultPlan>| {
        let mut net = small_net(250, 42);
        let [provider, requester] = net.vantage_ids(2)[..] else { panic!() };
        if let Some(p) = plan {
            net.install_fault_plan(p);
        }
        let data = Bytes::from(vec![1u8; 200_000]);
        let cid = net.import_content(provider, &data);
        net.publish(provider, cid.clone());
        net.run_until_quiet();
        net.retrieve(requester, cid);
        net.run_until_quiet();
        net.run_for(SimDuration::from_secs(400));
        (
            net.publish_reports[0].total,
            net.retrieve_reports[0].total,
            net.events_processed,
            net.metrics().to_json(),
        )
    };
    let scripted = || {
        let mut p = FaultPlan::new();
        p.region_outage(
            SimTime::ZERO + SimDuration::from_secs(120),
            SimDuration::from_secs(60),
            Region::EastAsia,
        );
        p.crash_wave(SimTime::ZERO + SimDuration::from_secs(200), 0.2, SimDuration::from_secs(90));
        p
    };
    // Same seed + same plan ⇒ byte-identical metrics and reports.
    assert_eq!(run(Some(scripted())), run(Some(scripted())));
    // An installed-but-empty plan leaves the run byte-identical to a
    // plan-free run: the oracle adds no RNG draws while idle.
    assert_eq!(run(None), run(Some(FaultPlan::new())));
}

#[test]
fn degraded_links_slow_but_do_not_stop_retrieval() {
    let mut net = small_net(300, 17);
    let [provider, requester] = net.vantage_ids(2)[..] else { panic!() };
    let data = Bytes::from(vec![9u8; 256 * 1024]);
    let cid = net.import_content(provider, &data);
    net.publish(provider, cid.clone());
    net.run_until_quiet();

    let mut plan = FaultPlan::new();
    plan.degrade(net.now(), SimDuration::from_hours(2), faultsim::LinkScope::All, 4.0, 0.05);
    net.install_fault_plan(plan);
    net.run_for(SimDuration::from_secs(1));
    net.retrieve(requester, cid);
    net.run_until_quiet();
    let rr = net.retrieve_reports[0].clone();
    assert!(rr.success, "degradation slows but does not cut: {rr:?}");
    assert_eq!(net.metrics().get(names::FAULT_DEGRADE_STARTS), 1);
}

// ------------------------------------------------------------------
// Op lifecycle: publish, retrieve and IPNS end to end.
// ------------------------------------------------------------------

#[test]
fn publish_then_retrieve_roundtrip() {
    let mut net = small_net(400, 7);
    let [provider, requester] = net.vantage_ids(2)[..] else { panic!() };
    let data = Bytes::from(vec![0xAB; 512 * 1024]);
    let cid = net.import_content(provider, &data);
    net.publish(provider, cid.clone());
    net.run_until_quiet();
    assert_eq!(net.publish_reports.len(), 1);
    let pr = &net.publish_reports[0];
    assert!(pr.success, "publish must succeed: {pr:?}");
    assert!(pr.records_stored > 0);
    assert!(pr.dht_walk > SimDuration::ZERO);

    net.retrieve(requester, cid.clone());
    net.run_until_quiet();
    assert_eq!(net.retrieve_reports.len(), 1);
    let rr = net.retrieve_reports[0].clone();
    assert!(rr.success, "retrieve must succeed: {rr:?}");
    assert!(!rr.via_bitswap, "no warm connections -> DHT path");
    // The 1 s Bitswap timeout is always paid in this setup (§4.3 note 4).
    assert_eq!(rr.bitswap_probe, SimDuration::from_secs(1));
    assert!(rr.provider_walk > SimDuration::ZERO);
    assert!(rr.total >= SimDuration::from_secs(1));
    // Content verifies end-to-end.
    assert_eq!(net.node_mut(requester).read_content(&cid).unwrap(), data);
}

#[test]
fn retrieval_fails_for_unpublished_content() {
    let mut net = small_net(200, 9);
    let [_, requester] = net.vantage_ids(2)[..] else { panic!() };
    let cid = Cid::from_raw_data(b"never published");
    net.retrieve(requester, cid);
    net.run_until_quiet();
    let rr = net.retrieve_reports[0].clone();
    assert!(!rr.success);
    assert!(rr.bitswap_probe >= SimDuration::from_secs(1));
}

#[test]
fn determinism_same_seed_same_reports() {
    let run = |seed: u64| {
        let mut net = small_net(200, seed);
        let [provider, requester] = net.vantage_ids(2)[..] else { panic!() };
        let data = Bytes::from(vec![1u8; 200_000]);
        let cid = net.import_content(provider, &data);
        net.publish(provider, cid.clone());
        net.run_until_quiet();
        net.retrieve(requester, cid);
        net.run_until_quiet();
        (net.publish_reports[0].total, net.retrieve_reports[0].total, net.events_processed)
    };
    assert_eq!(run(42), run(42));
}

#[test]
fn eu_retrieval_faster_than_africa_on_average() {
    // Table 4's regional ordering must emerge from the latency model.
    let pop = Population::generate(
        PopulationConfig {
            size: 600,
            nat_fraction: 0.3,
            horizon: SimDuration::from_hours(12),
            ..Default::default()
        },
        11,
    );
    let mut net = IpfsNetwork::from_population(
        &pop,
        &[VantagePoint::EuCentral1, VantagePoint::AfSouth1, VantagePoint::UsWest1],
        NetworkConfig::default(),
        11,
    );
    let [eu, af, us] = net.vantage_ids(3)[..] else { panic!() };
    let mut eu_total = 0.0;
    let mut af_total = 0.0;
    for i in 0..8 {
        let data = Bytes::from(vec![i as u8 + 1; 512 * 1024]);
        let cid = net.import_content(us, &data);
        net.publish(us, cid.clone());
        net.run_until_quiet();
        for requester in [eu, af] {
            net.retrieve(requester, cid.clone());
            net.run_until_quiet();
            let rr = net.retrieve_reports.last().unwrap().clone();
            assert!(rr.success, "iteration {i} from {requester}: {rr:?}");
            if requester == eu {
                eu_total += rr.total.as_secs_f64();
            } else {
                af_total += rr.total.as_secs_f64();
            }
            net.disconnect_all(requester);
            let us_peer = net.peer_id(us).clone();
            net.forget_address(requester, &us_peer);
        }
    }
    assert!(
        eu_total < af_total,
        "EU ({eu_total:.2}s) should beat Africa ({af_total:.2}s) in aggregate"
    );
}

#[test]
fn churn_does_not_break_retrieval() {
    // Run several hours into the horizon so churn events have fired,
    // then publish/retrieve must still succeed.
    let mut net = small_net(500, 13);
    let [provider, requester] = net.vantage_ids(2)[..] else { panic!() };
    net.run_for(SimDuration::from_hours(3));
    let data = Bytes::from(vec![3u8; 512 * 1024]);
    let cid = net.import_content(provider, &data);
    net.publish(provider, cid.clone());
    net.run_until_quiet();
    assert!(net.publish_reports[0].success);
    net.retrieve(requester, cid);
    net.run_until_quiet();
    assert!(net.retrieve_reports[0].success, "{:?}", net.retrieve_reports[0]);
}

#[test]
fn ipns_publish_and_resolve_over_the_dht() {
    use crate::ipns::{IpnsRecord, IPNS_VALIDITY};
    let mut net = small_net(400, 31);
    let [publisher, resolver] = net.vantage_ids(2)[..] else { panic!() };
    let keypair = net.node(publisher).keypair().clone();
    let cid = Cid::from_raw_data(b"site v1");
    let record = IpnsRecord::sign(&keypair, cid.clone(), 1, net.now(), IPNS_VALIDITY);
    net.publish_ipns(publisher, &record);
    net.run_until_quiet();
    let pr = net.ipns_publish_reports.last().unwrap();
    assert!(pr.success, "{pr:?}");
    assert!(pr.records_stored >= 10);

    net.resolve_ipns(resolver, &keypair.peer_id());
    net.run_until_quiet();
    let rr = net.ipns_resolve_reports.last().unwrap();
    assert!(rr.success, "{rr:?}");
    assert_eq!(rr.record.as_ref().unwrap().value, cid);
    // The resolver's local IPNS cache now has it.
    let name = keypair.peer_id();
    let now = net.now();
    assert!(net.node_mut(resolver).ipns.resolve(&name, now).is_some());
}

#[test]
fn ipns_update_supersedes_older_record() {
    use crate::ipns::{IpnsRecord, IPNS_VALIDITY};
    let mut net = small_net(400, 32);
    let [publisher, resolver] = net.vantage_ids(2)[..] else { panic!() };
    let keypair = net.node(publisher).keypair().clone();
    let v1 = IpnsRecord::sign(&keypair, Cid::from_raw_data(b"v1"), 1, net.now(), IPNS_VALIDITY);
    net.publish_ipns(publisher, &v1);
    net.run_until_quiet();
    let v2 = IpnsRecord::sign(&keypair, Cid::from_raw_data(b"v2"), 2, net.now(), IPNS_VALIDITY);
    net.publish_ipns(publisher, &v2);
    net.run_until_quiet();

    net.resolve_ipns(resolver, &keypair.peer_id());
    net.run_until_quiet();
    let rr = net.ipns_resolve_reports.last().unwrap();
    assert!(rr.success);
    // Storing nodes arbitrated by sequence: v2 wins. (The walk stops at
    // the first record-holder, which must hold v2 because v1-holders
    // were replaced and the k-closest sets overlap.)
    assert_eq!(rr.record.as_ref().unwrap().value, Cid::from_raw_data(b"v2"));
    assert_eq!(rr.record.as_ref().unwrap().sequence, 2);
}

#[test]
fn resolving_unknown_name_fails_cleanly() {
    let mut net = small_net(200, 33);
    let [_, resolver] = net.vantage_ids(2)[..] else { panic!() };
    let ghost = Keypair::from_seed(0xDEAD).peer_id();
    net.resolve_ipns(resolver, &ghost);
    net.run_until_quiet();
    let rr = net.ipns_resolve_reports.last().unwrap();
    assert!(!rr.success);
    assert!(rr.record.is_none());
}

#[test]
fn retriever_becomes_provider_republished() {
    let pop = Population::generate(
        PopulationConfig {
            size: 200,
            nat_fraction: 0.3,
            horizon: SimDuration::from_hours(6),
            ..Default::default()
        },
        21,
    );
    let cfg = NetworkConfig { retriever_becomes_provider: true, ..Default::default() };
    let mut net = IpfsNetwork::from_population(
        &pop,
        &[VantagePoint::EuCentral1, VantagePoint::UsWest1],
        cfg,
        21,
    );
    let [provider, requester] = net.vantage_ids(2)[..] else { panic!() };
    let data = Bytes::from(vec![5u8; 100_000]);
    let cid = net.import_content(provider, &data);
    net.publish(provider, cid.clone());
    net.run_until_quiet();
    net.retrieve(requester, cid.clone());
    net.run_until_quiet();
    assert!(net.retrieve_reports[0].success);
    // The requester now holds the content and has (silently) published.
    assert!(net.node_mut(requester).has_content(&cid));
}

// ------------------------------------------------------------------
// Obs hooks: stitched traces and flight-recorder post-mortems.
// ------------------------------------------------------------------

#[test]
fn stitched_retrieval_trace_reconciles_with_its_report() {
    let mut net = small_net(400, 7);
    net.set_trace_config(TraceConfig::collecting());
    let [provider, requester] = net.vantage_ids(2)[..] else { panic!() };
    let data = Bytes::from(vec![0xAB; 512 * 1024]);
    let cid = net.import_content(provider, &data);
    net.publish(provider, cid.clone());
    net.run_until_quiet();
    let op = net.retrieve(requester, cid);
    net.run_until_quiet();
    let rr = net.retrieve_reports[0].clone();
    assert!(rr.success, "retrieve must succeed: {rr:?}");

    let trace = net.take_trace(op).expect("tracing was on");
    let tree = net.stitched_trace(&trace).expect("trace is not empty");
    // The distributed tree reconciles with the op report: same
    // envelope, and a critical path that never exceeds it (integer
    // nanoseconds, no tolerance).
    assert_eq!(tree.duration(), rr.total);
    assert!(tree.critical_path_duration() <= tree.duration());
    assert!(tree.critical_path_duration() > SimDuration::ZERO);

    fn collect(s: &crate::obs::span::Span, out: &mut Vec<String>) {
        out.push(s.label.clone());
        for c in &s.children {
            collect(c, out);
        }
    }
    let mut labels = Vec::new();
    collect(&tree.root, &mut labels);
    // Remote nodes contributed their own spans: DHT handler time for
    // the provider walk's RPCs and the provider's BLOCK serves.
    assert!(
        labels.iter().any(|l| l.starts_with("srv:GET_PROVIDERS@n")),
        "provider-walk handler spans missing: {labels:?}"
    );
    assert!(
        labels.iter().any(|l| l.starts_with("bs:block_serve@n")),
        "remote BLOCK serve spans missing: {labels:?}"
    );
    // Remote spans sit under requester-side causes, not at the root.
    let top_level: Vec<&String> = tree.root.children.iter().map(|c| &c.label).collect();
    assert!(
        top_level.iter().all(|l| !l.starts_with("srv:")),
        "handler spans must nest inside rpc spans: {top_level:?}"
    );
}

#[test]
fn crashed_session_peer_triggers_a_reroute_postmortem() {
    let mut net = small_net(300, 8);
    net.set_trace_config(TraceConfig::full(None));
    let [a, b, requester] = net.vantage_ids(3)[..] else { panic!() };
    // Non-repeating payload: a uniform fill would dedup every leaf
    // into one CID and leave too few wants to observe a re-route.
    let mut x = 0x0FEE_DFAC_EDEA_D123u64;
    let data = Bytes::from(
        (0..2 * 1024 * 1024)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect::<Vec<u8>>(),
    );
    let cid = net.import_content(a, &data);
    let cid_b = net.import_content(b, &data);
    assert_eq!(cid, cid_b, "chunking is deterministic");
    net.connect(requester, a);
    net.connect(requester, b);
    let op = net.retrieve(requester, cid);
    // Crash peer `a` once the transfer is demonstrably under way but
    // unfinished: its outstanding wants must re-route to `b`.
    let mut crashed = false;
    let mut t = SimTime::ZERO;
    while net.retrieve_reports.is_empty() {
        t += SimDuration::from_millis(5);
        assert!(t < SimTime::ZERO + SimDuration::from_mins(5), "retrieval livelocked");
        net.run_until(t);
        // Crash once leaf transfers are under way (root plus at least
        // one leaf landed): leaf wants are past their WANT-HAVE probe
        // and in flight, which is what a mid-fetch loss re-routes.
        if !crashed
            && net.retrieve_reports.is_empty()
            && net.metrics.get(names::BITSWAP_BLOCKS_STORED) >= 2
        {
            net.on_churn(a, false);
            crashed = true;
        }
    }
    assert!(crashed, "op completed before the first leaf landed");
    let rr = net.retrieve_reports[0].clone();
    assert!(rr.success, "surviving peer must complete the swarm: {rr:?}");
    let pms = net.drain_postmortems();
    assert_eq!(pms.len(), 1, "one flagged op, one post-mortem");
    let (pm_op, text) = &pms[0];
    assert_eq!(*pm_op, op);
    assert!(text.contains("outcome=rerouted"), "{text}");
    assert!(text.contains(&format!("peers lost mid-op: n{a}")), "{text}");
    assert!(text.contains("bs:reroute"), "{text}");
    assert!(text.contains(&format!("-> n{b}")), "{text}");
    assert!(net.drain_postmortems().is_empty(), "drain removes what it returns");
}

#[test]
fn postmortem_level_alone_records_remote_server_spans() {
    // Post-mortems are the top trace level, so arming them alone also
    // numbers RPCs: the failed provider walk's server spans land in
    // the flight rings and in the dump.
    let mut net = small_net(300, 9);
    net.set_trace_config(TraceConfig::full(None));
    let [holder, requester] = net.vantage_ids(2)[..] else { panic!() };
    // Imported but never published: the provider walk finds nobody.
    let cid = net.import_content(holder, &Bytes::from(vec![0x5C; 4096]));
    let op = net.retrieve(requester, cid);
    net.run_until_quiet();
    assert!(!net.retrieve_reports[0].success);
    let pms = net.drain_postmortems();
    assert_eq!(pms.len(), 1);
    let (pm_op, text) = &pms[0];
    assert_eq!(*pm_op, op);
    assert!(text.contains("outcome=failed"), "{text}");
    assert!(text.contains(" srv:GET_PROVIDERS from="), "server spans missing: {text}");
}

#[test]
fn deadline_breach_triggers_exactly_one_postmortem() {
    let mut net = small_net(300, 10);
    net.set_trace_config(TraceConfig::full(Some(SimDuration::from_millis(1))));
    let [provider, requester] = net.vantage_ids(2)[..] else { panic!() };
    let cid = net.import_content(provider, &Bytes::from(vec![0x3D; 64 * 1024]));
    net.publish(provider, cid.clone());
    net.run_until_quiet();
    let op = net.retrieve(requester, cid);
    net.run_until_quiet();
    let rr = net.retrieve_reports[0].clone();
    assert!(rr.success && rr.total > SimDuration::from_millis(1), "{rr:?}");
    let pms = net.drain_postmortems();
    assert_eq!(pms.len(), 1, "only the retrieval is watched: {pms:?}");
    assert_eq!(pms[0].0, op);
    assert!(pms[0].1.contains("outcome=deadline_breached"), "{}", pms[0].1);
}

#[test]
fn taken_traces_release_every_per_op_entry() {
    let mut net = small_net(300, 11);
    net.set_trace_config(TraceConfig::collecting());
    let [provider, requester] = net.vantage_ids(2)[..] else { panic!() };
    let mut last = None;
    for i in 0..4u8 {
        let cid = net.import_content(provider, &Bytes::from(vec![i; 8 * 1024]));
        let pub_op = net.publish(provider, cid.clone());
        net.run_until_quiet();
        let ret_op = net.retrieve(requester, cid);
        net.run_until_quiet();
        assert!(net.take_trace(pub_op).is_some());
        last = net.take_trace(ret_op);
        assert!(last.is_some());
    }
    assert_eq!(net.tracer.open_ops(), 0, "taken traces leave no per-op state behind");
    // The taken trace carries its own origin, so it still stitches
    // against the fragments its RPCs produced.
    let tree = net.stitched_trace(&last.unwrap()).expect("trace is not empty");
    assert_eq!(tree.duration(), net.retrieve_reports[3].total);
    let mut labels = Vec::new();
    let mut stack = vec![&tree.root];
    while let Some(span) = stack.pop() {
        labels.push(span.label.as_str());
        stack.extend(&span.children);
    }
    assert!(labels.iter().any(|l| l.contains("@n")), "remote spans missing: {labels:?}");
}
