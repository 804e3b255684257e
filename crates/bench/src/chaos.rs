//! Recovery-measurement harness over scripted fault plans.
//!
//! The paper evaluates IPFS in steady state; this harness measures the
//! dimension it left open — how fast the stack *recovers*. Each scenario
//! installs a [`faultsim::FaultPlan`] on a fresh network, drives a
//! publish/retrieve (or gateway) workload across the fault window, and
//! reports:
//!
//! * **time-to-first-successful-retrieval after heal** — retries on a
//!   fixed cadence from the heal instant; the `fault_recovery_secs`
//!   histogram feeds the standard metrics report,
//! * **routing-table staleness** — the reachable fraction of the
//!   requester's k-bucket entries sampled before/during/after,
//! * **provider-record reachability** — the share of a published CID set
//!   retrievable while a crash wave holds providers down,
//! * **gateway hit-rate dip/recovery** — request success per hourly bin
//!   across a partition of the gateway's region.
//!
//! Every scenario is an independent cell (own population, network and
//! RNG derived from the master seed), so [`run_all`] parallelises over
//! `IPFS_REPRO_JOBS` workers with byte-identical output at any job count.

use crate::export::BenchDoc;
use crate::runner::{run_cells_with_jobs, RunConfig, Scale};
use bytes::Bytes;
use faultsim::{FaultPlan, LinkScope};
use ipfs_core::obs::names;
use ipfs_core::{IpfsNetwork, NetworkConfig, NodeId, TimeSeries};
use multiformats::{Cid, PeerId};
use simnet::latency::{Region, VantagePoint};
use simnet::{Population, PopulationConfig, SimDuration, SimTime};

/// How many retrieval retries the recovery loop attempts after heal.
const RECOVERY_MAX_TRIES: usize = 60;
/// Cadence of post-heal retrieval retries.
const RECOVERY_RETRY_STEP: SimDuration = SimDuration::from_secs(5);

/// Scenario sizes, derived from `IPFS_REPRO_SCALE` (or tiny, for the tests).
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Peer population per scenario cell.
    pub population: usize,
    /// Gateway requests across the simulated day.
    pub gateway_requests: usize,
    /// CIDs in the provider-reachability set.
    pub catalog: usize,
}

impl ChaosConfig {
    /// Tiny fixed sizes for the determinism tests.
    pub fn smoke() -> ChaosConfig {
        ChaosConfig { population: 250, gateway_requests: 250, catalog: 6 }
    }

    /// Sizes for a real run at the given scale.
    pub fn at_scale(scale: Scale) -> ChaosConfig {
        match scale {
            Scale::Small => ChaosConfig { population: 800, gateway_requests: 800, catalog: 12 },
            Scale::Paper => ChaosConfig { population: 3_000, gateway_requests: 4_000, catalog: 24 },
        }
    }
}

/// One scenario's rendered result.
pub struct CellOutput {
    /// Scenario name (stable, used in JSON and CSV).
    pub label: &'static str,
    /// Human-readable section for stdout.
    pub report: String,
    /// JSON object fragment for the exported `BENCH_chaos.json`.
    pub json: String,
    /// A windowed series for the bin to export when `IPFS_REPRO_CSV_DIR`
    /// is set (`gateway_dip`'s `chaos_gateway_timeseries.csv`).
    pub timeseries: Option<TimeSeries>,
}

fn network(cfg: &ChaosConfig, seed: u64, vantages: &[VantagePoint]) -> IpfsNetwork {
    let pop = Population::generate(
        PopulationConfig {
            size: cfg.population,
            nat_fraction: 0.455,
            horizon: SimDuration::from_hours(12),
        },
        seed,
    );
    // Table refresh on: post-heal recovery depends on routing tables
    // re-learning peers the partition made the failure-eviction path drop.
    let net_cfg = NetworkConfig {
        table_refresh_interval: Some(SimDuration::from_secs(120)),
        ..NetworkConfig::default()
    };
    IpfsNetwork::from_population(&pop, vantages, net_cfg, seed)
}

/// Clears a requester back to a cold state so every retrieval walks the
/// DHT honestly (§4.3-style reset).
fn reset_requester(net: &mut IpfsNetwork, requester: NodeId, provider_peer: &PeerId) {
    net.disconnect_all(requester);
    net.forget_address(requester, provider_peer);
    let node = net.node_mut(requester);
    let cids: Vec<Cid> = node.store.cids().cloned().collect();
    for c in cids {
        merkledag::BlockStore::delete(&mut node.store, &c);
    }
}

/// One cold retrieval; returns success.
fn try_retrieve(
    net: &mut IpfsNetwork,
    requester: NodeId,
    cid: &Cid,
    provider_peer: &PeerId,
) -> bool {
    net.retrieve(requester, cid.clone());
    net.run_until_quiet();
    let ok = net.retrieve_reports.last().map(|r| r.success).unwrap_or(false);
    reset_requester(net, requester, provider_peer);
    ok
}

/// Fraction of a node's k-bucket entries that are currently reachable
/// from it (online, dialable, not behind an active partition).
fn table_reachable_fraction(net: &IpfsNetwork, id: NodeId) -> f64 {
    let entries = net.k_bucket_entries(id);
    if entries.is_empty() {
        return 1.0;
    }
    let my_region = net.region(id);
    let ok = entries
        .iter()
        .filter(|e| {
            net.resolve(&e.peer)
                .map(|nid| {
                    net.is_dialable(nid) && !net.fault_oracle().blocked(my_region, net.region(nid))
                })
                .unwrap_or(false)
        })
        .count();
    ok as f64 / entries.len() as f64
}

/// Post-heal recovery loop: retries a cold retrieval every
/// [`RECOVERY_RETRY_STEP`] from `heal` until one succeeds. Returns the
/// virtual seconds from heal to first success (`None` if it never
/// recovers), and feeds the `fault_recovery_secs` histogram.
fn measure_recovery(
    net: &mut IpfsNetwork,
    requester: NodeId,
    cid: &Cid,
    provider_peer: &PeerId,
    heal: SimTime,
) -> Option<f64> {
    for attempt in 0..RECOVERY_MAX_TRIES {
        net.run_until(heal + RECOVERY_RETRY_STEP * attempt as u64);
        if try_retrieve(net, requester, cid, provider_peer) {
            let secs = net.now().since(heal).as_secs_f64();
            net.metrics_mut().observe(names::FAULT_RECOVERY_SECS, secs);
            return Some(secs);
        }
    }
    None
}

fn fmt_recovery(r: Option<f64>) -> String {
    match r {
        Some(secs) => format!("{secs:.3}s"),
        None => "never".to_string(),
    }
}

// ---------------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------------

/// Regional partition: cut the requester's region, measure retrieval
/// failure during the window and time-to-recovery plus routing-table
/// staleness decay after heal.
fn scenario_partition(cfg: &ChaosConfig, seed: u64) -> CellOutput {
    let mut net = network(cfg, seed, &[VantagePoint::UsWest1, VantagePoint::EuCentral1]);
    let [provider, requester] = net.vantage_ids(2)[..] else { unreachable!() };
    let provider_peer = net.peer_id(provider).clone();
    let cid = net.import_content(provider, &Bytes::from(vec![0x51; 256 * 1024]));
    net.publish(provider, cid.clone());
    net.run_until_quiet();

    let before_ok = try_retrieve(&mut net, requester, &cid, &provider_peer);
    let staleness_before = 1.0 - table_reachable_fraction(&net, requester);

    let t0 = net.now();
    let start = t0 + SimDuration::from_secs(60);
    let window = SimDuration::from_secs(600);
    let heal = start + window;
    let mut plan = FaultPlan::new();
    plan.region_outage(start, window, Region::EuropeCentral);
    net.install_fault_plan(plan);

    net.run_until(start + SimDuration::from_secs(30));
    let during_ok = try_retrieve(&mut net, requester, &cid, &provider_peer);
    let staleness_during = 1.0 - table_reachable_fraction(&net, requester);

    let recovery = measure_recovery(&mut net, requester, &cid, &provider_peer, heal);
    // Staleness decay: sample the table as refresh ticks repair it. Targets
    // are offsets from heal; `run_until` never rewinds, so each sample
    // records the actual elapsed time since heal.
    let mut decay = Vec::new();
    for offset in [0u64, 120, 240, 360, 600] {
        net.run_until(heal + SimDuration::from_secs(offset));
        let elapsed = net.now().since(heal).as_secs_f64();
        decay.push((elapsed, 1.0 - table_reachable_fraction(&net, requester)));
    }

    let dials_blocked = net.metrics().get(names::FAULT_DIALS_BLOCKED);
    let conns_severed = net.metrics().get(names::FAULT_CONNS_SEVERED);
    let decay_str =
        decay.iter().map(|(t, s)| format!("t+{t:.0}s={s:.3}")).collect::<Vec<_>>().join(" ");
    let report = format!(
        "retrieval before partition: {}\n\
         retrieval during partition: {} (must fail)\n\
         dials blocked by oracle: {dials_blocked}, warm conns severed: {conns_severed}\n\
         time to first successful retrieval after heal: {}\n\
         routing-table staleness before={staleness_before:.3} during={staleness_during:.3}\n\
         staleness decay after heal: {decay_str}\n{}",
        if before_ok { "ok" } else { "FAILED" },
        if during_ok { "SUCCEEDED (oracle bypass!)" } else { "failed as expected" },
        fmt_recovery(recovery),
        crate::export::fault_report(net.metrics()),
    );
    let json = format!(
        "{{\"before_ok\": {before_ok}, \"during_ok\": {during_ok}, \
          \"recovery_secs\": {}, \"dials_blocked\": {dials_blocked}, \
          \"staleness_during\": {staleness_during:.4}}}",
        recovery.map(|r| format!("{r:.3}")).unwrap_or_else(|| "null".into()),
    );
    CellOutput { label: "regional_partition", report, json, timeseries: None }
}

/// Crash-restart wave: take half the online peers down, measure
/// provider-record reachability during the outage and after restarts.
fn scenario_crash_wave(cfg: &ChaosConfig, seed: u64) -> CellOutput {
    let mut net = network(cfg, seed, &[VantagePoint::UsWest1]);
    let [requester] = net.vantage_ids(1)[..] else { unreachable!() };
    // Publish a CID set from dialable population servers.
    let providers: Vec<NodeId> =
        net.server_ids().into_iter().filter(|&i| net.is_dialable(i)).take(cfg.catalog).collect();
    let mut cids = Vec::new();
    for (i, &p) in providers.iter().enumerate() {
        let mut payload = vec![0x77u8; 64 * 1024];
        payload[..8].copy_from_slice(&(i as u64).to_be_bytes());
        let cid = net.import_content(p, &Bytes::from(payload));
        net.publish(p, cid.clone());
        net.run_until_quiet();
        cids.push((p, cid));
    }

    let t0 = net.now();
    let wave_at = t0 + SimDuration::from_secs(30);
    // Generous restart delay: the during-outage reachability sweep below
    // advances virtual time (failed walks ride their timeouts), and it must
    // finish before any victim comes back.
    let restart_after = SimDuration::from_secs(1800);
    let mut plan = FaultPlan::new();
    plan.crash_wave(wave_at, 0.5, restart_after);
    net.install_fault_plan(plan);
    net.run_until(wave_at + SimDuration::from_secs(1));
    let crashed = net.metrics().get(names::FAULT_NODES_CRASHED);

    let reach = |net: &mut IpfsNetwork| {
        let mut ok = 0usize;
        for (p, cid) in &cids {
            let peer = net.peer_id(*p).clone();
            if try_retrieve(net, requester, cid, &peer) {
                ok += 1;
            }
        }
        ok as f64 / cids.len().max(1) as f64
    };
    let reach_during = reach(&mut net);
    // Give every victim time to restart and re-announce, then re-measure.
    net.run_until(wave_at + restart_after + SimDuration::from_secs(120));
    let reach_after = reach(&mut net);

    let report = format!(
        "crash wave: {crashed} peers down (50% of online), restart after {restart_after}\n\
         provider-record reachability during outage: {reach_during:.3}\n\
         provider-record reachability after restarts: {reach_after:.3}\n{}",
        crate::export::fault_report(net.metrics()),
    );
    let json = format!(
        "{{\"crashed\": {crashed}, \"reach_during\": {reach_during:.4}, \
          \"reach_after\": {reach_after:.4}}}"
    );
    CellOutput { label: "crash_wave", report, json, timeseries: None }
}

/// Network-wide dial-failure spike: publish success and walk failures
/// during the spike window vs after it.
fn scenario_dial_spike(cfg: &ChaosConfig, seed: u64) -> CellOutput {
    let mut net = network(cfg, seed, &[VantagePoint::UsWest1]);
    let [publisher] = net.vantage_ids(1)[..] else { unreachable!() };
    let t0 = net.now();
    let start = t0 + SimDuration::from_secs(10);
    let window = SimDuration::from_secs(3600);
    let mut plan = FaultPlan::new();
    plan.dial_fail_spike(start, window, 0.6);
    net.install_fault_plan(plan);

    let publish_round = |net: &mut IpfsNetwork, tag: u8| {
        let mut ok = 0usize;
        let mut failures = 0u64;
        for i in 0..6u64 {
            let mut payload = vec![tag; 4 * 1024];
            payload[..8].copy_from_slice(&i.to_be_bytes());
            let cid = net.import_content(publisher, &Bytes::from(payload));
            net.publish(publisher, cid);
            net.run_until_quiet();
            let pr = net.publish_reports.last().unwrap();
            ok += pr.success as usize;
            failures += pr.walk_failures;
        }
        (ok, failures as f64 / 6.0)
    };

    net.run_until(start + SimDuration::from_secs(1));
    let (ok_during, fail_during) = publish_round(&mut net, 0xA1);
    net.run_until(start + window + SimDuration::from_secs(1));
    let (ok_after, fail_after) = publish_round(&mut net, 0xA2);
    let spiked = net.metrics().get(names::FAULT_DIALS_SPIKED);

    let report = format!(
        "dial-fail spike (+60% failure for {window}): {spiked} dials spiked\n\
         publishes during spike: {ok_during}/6 ok, {fail_during:.1} walk failures/op\n\
         publishes after spike:  {ok_after}/6 ok, {fail_after:.1} walk failures/op\n{}",
        crate::export::fault_report(net.metrics()),
    );
    let json = format!(
        "{{\"dials_spiked\": {spiked}, \"ok_during\": {ok_during}, \"ok_after\": {ok_after}, \
          \"walk_failures_during\": {fail_during:.2}, \"walk_failures_after\": {fail_after:.2}}}"
    );
    CellOutput { label: "dial_fail_spike", report, json, timeseries: None }
}

/// Degraded links: 4x latency and 5% loss on every path; retrieval slows
/// but still completes, and returns to baseline after the window.
fn scenario_degraded_links(cfg: &ChaosConfig, seed: u64) -> CellOutput {
    let mut net = network(cfg, seed, &[VantagePoint::UsWest1, VantagePoint::EuCentral1]);
    let [provider, requester] = net.vantage_ids(2)[..] else { unreachable!() };
    let provider_peer = net.peer_id(provider).clone();
    let cid = net.import_content(provider, &Bytes::from(vec![0x2F; 256 * 1024]));
    net.publish(provider, cid.clone());
    net.run_until_quiet();

    let timed_retrieve = |net: &mut IpfsNetwork| {
        net.retrieve(requester, cid.clone());
        net.run_until_quiet();
        let rr = net.retrieve_reports.last().unwrap().clone();
        reset_requester(net, requester, &provider_peer);
        (rr.success, rr.total.as_secs_f64())
    };
    let (base_ok, base_secs) = timed_retrieve(&mut net);

    let start = net.now() + SimDuration::from_secs(10);
    let window = SimDuration::from_secs(900);
    let mut plan = FaultPlan::new();
    plan.degrade(start, window, LinkScope::All, 4.0, 0.05);
    net.install_fault_plan(plan);
    net.run_until(start + SimDuration::from_secs(1));
    let (deg_ok, deg_secs) = timed_retrieve(&mut net);
    net.run_until(start + window + SimDuration::from_secs(1));
    let (post_ok, post_secs) = timed_retrieve(&mut net);
    let lost = net.metrics().get(names::FAULT_MESSAGES_LOST);

    let report = format!(
        "degraded links (4x latency, 5% loss, {window}): {lost} messages lost\n\
         retrieval baseline: ok={base_ok} {base_secs:.3}s\n\
         retrieval degraded: ok={deg_ok} {deg_secs:.3}s\n\
         retrieval after:    ok={post_ok} {post_secs:.3}s\n{}",
        crate::export::fault_report(net.metrics()),
    );
    let json = format!(
        "{{\"base_secs\": {base_secs:.3}, \"degraded_secs\": {deg_secs:.3}, \
          \"post_secs\": {post_secs:.3}, \"messages_lost\": {lost}}}"
    );
    CellOutput { label: "degraded_links", report, json, timeseries: None }
}

/// Provider crash mid-swarm-transfer: three providers serve a chunked
/// 2 MiB Merkle-DAG; the one carrying the most blocks dies halfway
/// through the fetch window, with WANT-BLOCKs outstanding at it. The requester's Bitswap session must
/// notice the disconnect, re-queue the victim's in-flight wants onto the
/// survivors and still complete the transfer (§3.2 swarm resilience).
///
/// Two passes over the *same seed*: a fault-free run locates the fetch
/// window and the busiest provider (the worst-case victim); the measured
/// run replays the identical workload with a targeted
/// [`FaultPlan::crash_nodes`] installed inside that window.
fn scenario_provider_crash(cfg: &ChaosConfig, seed: u64) -> CellOutput {
    const DAG_BYTES: u64 = 2 * 1024 * 1024;
    const SWARM: usize = 3;
    let setup = |seed: u64| {
        let pop = Population::generate(
            PopulationConfig {
                size: cfg.population,
                nat_fraction: 0.3,
                horizon: SimDuration::from_hours(6),
            },
            seed,
        );
        // Records carry multiaddrs so every provider is dialed up front —
        // the swarm must assemble before the transfer ends for the crash
        // to have survivors worth re-routing to.
        let net_cfg =
            NetworkConfig { provider_records_carry_addrs: true, ..NetworkConfig::default() };
        let mut net =
            IpfsNetwork::from_population(&pop, &[VantagePoint::EuCentral1], net_cfg, seed);
        let requester = net.vantage_ids(1)[0];
        let providers: Vec<NodeId> = net
            .server_ids()
            .into_iter()
            .filter(|&i| net.is_dialable(i) && i != requester)
            .take(SWARM)
            .collect();
        assert_eq!(providers.len(), SWARM, "population too small for the crash swarm");
        let data = crate::swarm::gen_bytes(DAG_BYTES, seed ^ 0xC4A5);
        let mut cid = None;
        for &p in &providers {
            let c = net.import_content(p, &data);
            net.publish(p, c.clone());
            cid = Some(c);
        }
        net.run_until_quiet();
        // Cold-start the requester so the transfer runs as a swarm fetch
        // (a warm provider connection would satisfy the 1 s probe and
        // collapse the fetch window the crash must land inside).
        net.disconnect_all(requester);
        (net, requester, providers, cid.expect("at least one provider"))
    };

    // Pass 1 (fault-free): locate the fetch window and the victim.
    let (mut probe, requester, providers, cid) = setup(seed);
    probe.retrieve(requester, cid);
    probe.run_until_quiet();
    let baseline = probe.retrieve_reports.last().expect("retrieve ran").clone();
    let victim = *providers
        .iter()
        .max_by_key(|&&p| probe.node_mut(p).bitswap.counts_sent.block)
        .expect("swarm is non-empty");
    let fetch_start = baseline.started_at + baseline.discover();
    let crash_at = fetch_start + SimDuration::from_secs_f64(baseline.fetch.as_secs_f64() * 0.5);

    // Pass 2: identical workload, but the victim dies mid-fetch. The plan
    // draws no randomness, so both passes share a timeline up to the crash.
    // The flight recorder runs in post-mortem mode: the crash flags the op
    // and the finish dumps the causal trail of every re-routed want.
    let (mut net, requester, providers, cid) = setup(seed);
    let mut plan = FaultPlan::new();
    plan.crash_nodes(crash_at, vec![victim], SimDuration::from_secs(600));
    net.install_fault_plan(plan);
    net.set_trace_config(ipfs_core::TraceConfig::full(None));
    net.retrieve(requester, cid);
    net.run_until_quiet();
    let postmortems = net.drain_postmortems();
    let rr = net.retrieve_reports.last().expect("retrieve ran").clone();
    let reroutes = net.metrics().get(names::BITSWAP_SESSION_REROUTES);
    let crashed = net.metrics().get(names::FAULT_NODES_CRASHED);
    let victim_blocks = net.node_mut(victim).bitswap.counts_sent.block;
    let survivor_blocks: u64 = providers
        .iter()
        .filter(|&&p| p != victim)
        .map(|&p| net.node_mut(p).bitswap.counts_sent.block)
        .sum();

    let pm_text = if postmortems.is_empty() {
        "flight recorder: no post-mortem emitted (crash missed the fetch window)".to_string()
    } else {
        postmortems.iter().map(|(_, t)| t.trim_end()).collect::<Vec<_>>().join("\n")
    };
    let report = format!(
        "{SWARM}-provider swarm fetch of a 2.0 MiB DAG; busiest provider crashes mid-fetch\n\
         fault-free fetch: ok={} {:.3}s sim; crash scheduled 50% into that window\n\
         with crash: ok={} {:.3}s sim (must complete), {crashed} node crashed\n\
         session reroutes: {reroutes} (must be nonzero)\n\
         blocks served: victim {victim_blocks} (pre-crash), survivors {survivor_blocks}\n\
         {pm_text}\n{}",
        baseline.success,
        baseline.fetch.as_secs_f64(),
        rr.success,
        rr.fetch.as_secs_f64(),
        crate::export::fault_report(net.metrics()),
    );
    let json = format!(
        "{{\"baseline_ok\": {}, \"baseline_fetch_secs\": {:.6}, \"crash_ok\": {}, \
          \"crash_fetch_secs\": {:.6}, \"reroutes\": {reroutes}, \
          \"victim_blocks\": {victim_blocks}, \"survivor_blocks\": {survivor_blocks}}}",
        baseline.success,
        baseline.fetch.as_secs_f64(),
        rr.success,
        rr.fetch.as_secs_f64(),
    );
    CellOutput { label: "provider_crash_midfetch", report, json, timeseries: None }
}

/// Gateway across a partition: a windowed [`TimeSeries`] of request
/// success dips while the gateway's region is cut and recovers after
/// heal. The series rides along in [`CellOutput::timeseries`].
fn scenario_gateway_dip(cfg: &ChaosConfig, seed: u64) -> CellOutput {
    use gateway::workload::{GatewayWorkload, WorkloadConfig};
    use gateway::{FleetConfig, GatewayFleet};
    use ipfs_core::obs::names;
    let mut net = network(cfg, seed, &[VantagePoint::UsWest1]);
    let workload = GatewayWorkload::generate(WorkloadConfig {
        catalog_size: (cfg.catalog * 20).max(60),
        users: (cfg.gateway_requests / 8).max(40),
        requests: cfg.gateway_requests,
        seed,
        ..Default::default()
    });
    let mut fleet = GatewayFleet::new(&net.vantage_ids(1), FleetConfig::default());
    let providers: Vec<NodeId> =
        net.server_ids().into_iter().filter(|&i| net.is_dialable(i)).take(20).collect();
    fleet.install_catalog(&mut net, &workload, &providers);

    // Cut the gateway's region (NA-West) for hours 8–10 of the day; the
    // gateway keeps serving cache hits but network fetches die.
    let start = SimTime::ZERO + SimDuration::from_hours(8);
    let outage = SimDuration::from_hours(2);
    let mut plan = FaultPlan::new();
    plan.region_outage(start, outage, Region::NorthAmericaWest);
    net.install_fault_plan(plan);

    // Bucket every request into 2-hour windows of a TimeSeries: the dip
    // and the recovery fall out of the per-window hit-rate ratio.
    let mut ts = TimeSeries::new(SimDuration::from_hours(2));
    for e in fleet.serve_all(&mut net, &workload).into_iter().map(|e| e.entry) {
        ts.incr(e.at, names::GATEWAY_REQUESTS);
        if e.success {
            ts.incr(e.at, names::GATEWAY_OK);
        }
        ts.observe(e.at, names::GATEWAY_LATENCY_MS, e.latency.as_secs_f64() * 1e3);
    }
    let series = ts.ratio_series(names::GATEWAY_OK, names::GATEWAY_REQUESTS);
    let rate_at = |idx: u64| {
        let start_secs = ts.window_start_secs(idx);
        series.iter().find(|(s, _)| *s == start_secs).map(|(_, r)| *r).unwrap_or(1.0)
    };
    let bins_str = series
        .iter()
        .map(|(s, r)| {
            let h = (s / 3600.0) as u64;
            format!("h{:02}-{:02}={:.3}", h, h + 2, r)
        })
        .collect::<Vec<_>>()
        .join(" ");
    let outage_idx = ts.index_of(start);
    let before = rate_at(outage_idx - 1);
    let during = rate_at(outage_idx);
    let after = rate_at(outage_idx + 1);

    let series_json =
        series.iter().map(|(s, r)| format!("[{s}, {r:.4}]")).collect::<Vec<_>>().join(", ");
    let report = format!(
        "gateway hit rate across a 2 h regional outage (hours 8-10):\n\
         success per 2h window: {bins_str}\n\
         dip: before={before:.3} during={during:.3} after={after:.3}\n{}",
        crate::export::fault_report(net.metrics()),
    );
    let json = format!(
        "{{\"before\": {before:.4}, \"during\": {during:.4}, \"after\": {after:.4}, \
          \"hit_rate_series\": [{series_json}]}}"
    );
    CellOutput { label: "gateway_dip", report, json, timeseries: Some(ts) }
}

/// Reprovider under churn: a pinning node maintains a catalog through the
/// keyspace-ordered reprovide sweep (short cadence, short record expiry);
/// a targeted crash takes the pinner down one second into a sweep — batch
/// walks and stores cut in flight — and a simultaneous wave removes a
/// quarter of the DHT servers holding its records. The downtime spans a
/// republish boundary and outlives the record expiry, so by heal time the
/// catalog has vanished from the DHT: only the deferred sweep resuming at
/// rejoin brings it back. Per-CID time-to-first-retrieval from the heal
/// instant feeds the `fault_recovery_secs` histogram.
fn scenario_reprovider_churn(cfg: &ChaosConfig, seed: u64) -> CellOutput {
    use ipfs_core::NodeConfig;
    let interval = SimDuration::from_secs(600);
    let pop = Population::generate(
        PopulationConfig {
            size: cfg.population,
            nat_fraction: 0.455,
            horizon: SimDuration::from_hours(12),
        },
        seed,
    );
    let net_cfg = NetworkConfig {
        auto_republish: true,
        reprovide_sweep: true,
        table_refresh_interval: Some(SimDuration::from_secs(120)),
        node: NodeConfig {
            republish_interval: interval,
            // 2.5 sweep periods: records the parked sweep cannot refresh
            // die during the outage below.
            expiry_interval: SimDuration::from_secs(1500),
            ..NodeConfig::default()
        },
        ..NetworkConfig::default()
    };
    let mut net = IpfsNetwork::from_population(
        &pop,
        &[VantagePoint::EuCentral1, VantagePoint::UsWest1],
        net_cfg,
        seed,
    );
    let [pinner, requester] = net.vantage_ids(2)[..] else { unreachable!() };
    let pinner_peer = net.peer_id(pinner).clone();

    // All publishes are scheduled at the same instant, so the single sweep
    // timer arms now and sweep #1 fires exactly one interval later.
    let armed_at = net.now();
    let mut cids = Vec::new();
    for i in 0..cfg.catalog {
        let mut payload = vec![0x5Cu8; 16 * 1024];
        payload[..8].copy_from_slice(&(i as u64).to_be_bytes());
        let cid = net.import_content(pinner, &Bytes::from(payload));
        net.publish(pinner, cid.clone());
        cids.push(cid);
    }
    net.run_until_quiet();

    // Crash one second into sweep #1. The generous downtime both spans a
    // republish boundary and leaves room for the during-outage
    // reachability probes below (failed walks ride their timeouts).
    let crash_at = armed_at + interval + SimDuration::from_secs(1);
    let downtime = interval + SimDuration::from_secs(1800);
    let heal = crash_at + downtime;
    let mut plan = FaultPlan::new();
    plan.crash_nodes(crash_at, vec![pinner], downtime);
    plan.crash_wave(crash_at, 0.25, downtime);
    net.install_fault_plan(plan);
    net.run_until(crash_at + SimDuration::from_secs(5));

    let sweeps_before = net.metrics().get(names::PROVIDER_SWEEP_RUNS);
    let deferred = net.metrics().get(names::PROVIDER_REPUBLISH_DEFERRED);
    let crashed = net.metrics().get(names::FAULT_NODES_CRASHED);
    // Availability while the wave holds: records may linger on surviving
    // servers but the only data holder is down.
    let mut ok_during = 0usize;
    for cid in &cids {
        ok_during += try_retrieve(&mut net, requester, cid, &pinner_peer) as usize;
    }

    // Per-CID recovery from the heal instant: the pinner rejoins, the
    // deferred sweep resumes immediately and re-stores the whole catalog
    // in keyspace-ordered batches.
    let recoveries: Vec<Option<f64>> = cids
        .iter()
        .map(|cid| measure_recovery(&mut net, requester, cid, &pinner_peer, heal))
        .collect();
    let recovered = recoveries.iter().filter(|r| r.is_some()).count();
    let resumed = net.metrics().get(names::PROVIDER_REPUBLISH_RESUMED);
    let sweep_runs = net.metrics().get(names::PROVIDER_SWEEP_RUNS);
    let sweep_batches = net.metrics().get(names::PROVIDER_SWEEP_BATCHES);
    let expired = net.metrics().get(names::PROVIDER_RECORDS_EXPIRED);
    let recovery_str = recoveries.iter().map(|r| fmt_recovery(*r)).collect::<Vec<_>>().join(" ");

    let report = format!(
        "pinning node maintains {} CIDs via the reprovide sweep (cadence {interval}, \
         expiry 1500s)\n\
         crash 1s into sweep #1 plus a 25% server wave ({crashed} peers down, \
         back after {downtime})\n\
         sweeps before crash: {sweeps_before}, republishes parked at crash: {deferred}\n\
         catalog reachable during outage: {ok_during}/{} (pinner is the only data holder)\n\
         records expired during outage: {expired}\n\
         sweep resumed at rejoin: {resumed} resumption(s), {sweep_runs} sweep runs, \
         {sweep_batches} batches total\n\
         recovered after heal: {recovered}/{} — per-CID recovery: {recovery_str}\n{}",
        cids.len(),
        cids.len(),
        cids.len(),
        crate::export::fault_report(net.metrics()),
    );
    let recovery_json = recoveries
        .iter()
        .map(|r| r.map(|s| format!("{s:.3}")).unwrap_or_else(|| "null".into()))
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        "{{\"catalog\": {}, \"crashed\": {crashed}, \"deferred\": {deferred}, \
          \"ok_during\": {ok_during}, \"records_expired\": {expired}, \
          \"resumed\": {resumed}, \"sweep_runs\": {sweep_runs}, \
          \"sweep_batches\": {sweep_batches}, \"recovered\": {recovered}, \
          \"recovery_secs\": [{recovery_json}]}}",
        cids.len(),
    );
    CellOutput { label: "reprovider_churn", report, json, timeseries: None }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Runs every scenario as an independent cell on `jobs` workers and
/// returns the rendered outputs in scenario order (byte-identical at any
/// job count — see [`run_cells_with_jobs`]).
pub fn run_all(cfg: &ChaosConfig, master_seed: u64, jobs: usize) -> Vec<CellOutput> {
    type Scenario = fn(&ChaosConfig, u64) -> CellOutput;
    let scenarios: Vec<Scenario> = vec![
        scenario_partition,
        scenario_crash_wave,
        scenario_dial_spike,
        scenario_degraded_links,
        scenario_provider_crash,
        scenario_gateway_dip,
        scenario_reprovider_churn,
    ];
    run_cells_with_jobs(jobs, scenarios.len(), |i| {
        // Distinct per-cell seed, stable across job counts.
        scenarios[i](cfg, master_seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    })
}

/// Renders the full stdout report for a set of cell outputs.
pub fn render_report(outputs: &[CellOutput]) -> String {
    let mut out = String::new();
    for cell in outputs {
        out.push_str(&format!("-- {} --\n{}\n", cell.label, cell.report.trim_end()));
        out.push('\n');
    }
    out
}

/// Assembles the exported `BENCH_chaos.json` document (no cell is timed:
/// every value is a pure function of the seed).
pub fn bench_doc(outputs: &[CellOutput], run: &RunConfig) -> BenchDoc {
    let mut doc = BenchDoc::new("chaos", run);
    for c in outputs {
        doc.cell(c.label, &c.json);
    }
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_cells_are_deterministic_across_job_counts() {
        let cfg = ChaosConfig::smoke();
        let render = |jobs: usize| {
            let outputs = run_all(&cfg, 99, jobs);
            let run = RunConfig { seed: 99, ..RunConfig::default() };
            (render_report(&outputs), bench_doc(&outputs, &run).render())
        };
        assert_eq!(render(1), render(4), "jobs=1 vs jobs=4 must be byte-identical");
    }

    /// A provider crash mid-fetch must not kill the transfer: the session
    /// re-routes the victim's wants onto the surviving swarm members.
    #[test]
    fn provider_crash_completes_with_reroutes() {
        let cell = scenario_provider_crash(&ChaosConfig::smoke(), 2022);
        assert!(cell.json.contains("\"baseline_ok\": true"), "{}", cell.report);
        assert!(cell.json.contains("\"crash_ok\": true"), "{}", cell.report);
        let reroutes: u64 = cell
            .json
            .split("\"reroutes\": ")
            .nth(1)
            .and_then(|s| s.split([',', '}']).next())
            .and_then(|s| s.trim().parse().ok())
            .expect("reroutes field present");
        assert!(reroutes > 0, "crash must force at least one re-routed want:\n{}", cell.report);
        let survivors: u64 = cell
            .json
            .split("\"survivor_blocks\": ")
            .nth(1)
            .and_then(|s| s.split([',', '}']).next())
            .and_then(|s| s.trim().parse().ok())
            .expect("survivor_blocks field present");
        assert!(survivors > 0, "survivors must serve the re-routed blocks:\n{}", cell.report);
        // The flight recorder must dump the causal trail: a post-mortem
        // naming the crashed peer and the re-routed wants.
        assert!(cell.report.contains("post-mortem op="), "no post-mortem:\n{}", cell.report);
        assert!(cell.report.contains("peers lost mid-op: n"), "{}", cell.report);
        assert!(cell.report.contains("bs:reroute"), "no re-routed wants listed:\n{}", cell.report);
    }

    /// The parked sweep must resume at rejoin and re-store the whole
    /// catalog: every CID recovers after heal even though its records
    /// expired from the DHT during the outage.
    #[test]
    fn reprovider_churn_recovers_full_catalog() {
        let cfg = ChaosConfig::smoke();
        let cell = scenario_reprovider_churn(&cfg, 2022);
        let field = |name: &str| -> u64 {
            cell.json
                .split(&format!("\"{name}\": "))
                .nth(1)
                .and_then(|s| s.split([',', '}']).next())
                .and_then(|s| s.trim().parse().ok())
                .unwrap_or_else(|| panic!("field {name} in {}", cell.json))
        };
        assert!(field("deferred") > 0, "crash must park the sweep:\n{}", cell.report);
        assert!(field("resumed") > 0, "rejoin must resume the sweep:\n{}", cell.report);
        assert!(field("sweep_runs") >= 2, "pre-crash + post-heal sweeps:\n{}", cell.report);
        assert_eq!(field("ok_during"), 0, "pinner down => nothing reachable:\n{}", cell.report);
        assert_eq!(
            field("recovered"),
            cfg.catalog as u64,
            "every CID must come back after heal:\n{}",
            cell.report
        );
    }
}
