//! Gateway-fleet harness: production traffic against N gateways behind a
//! load balancer.
//!
//! The paper's gateway numbers (Table 5, Fig. 11) come from *one* gateway
//! of a fleet serving 7.1 M requests/day. This harness scales the
//! reproduction to the fleet: each cell builds a fresh network with 1 or 4
//! vantage gateways, routes a diurnal Zipf workload through a
//! deterministic load balancer (consistent hashing or round-robin), and
//! reports the per-tier serving split, the nginx hit-rate band the paper
//! observed (32.3 %–65.6 % per bin, §6.3), and the fleet-only effects the
//! single-gateway artifacts cannot show:
//!
//! * **admission ablation** — LRU vs TinyLFU nginx caches on the same
//!   trace (`fleet4_hash_lru` vs `fleet4_hash_tinylfu`),
//! * **flash crowd** — a viral object boosts the request rate mid-day and
//!   concentrates traffic; demand aggregation must absorb it,
//! * **regional outage** — one gateway's region is partitioned for four
//!   hours; the balancer fails over and the region resumes after heal.
//!
//! Every cell is an independent pure function of the master seed, so
//! [`run_all`] parallelises over `IPFS_REPRO_JOBS` workers with
//! a byte-identical report at any job count. Wall-clock sustained
//! requests/sec is kept out of the deterministic report; it lands in the
//! exported JSON only.

use std::time::Instant;

use crate::export::BenchDoc;
use crate::runner::{run_cells_with_jobs, RunConfig, Scale, ScaleConfig};
use faultsim::FaultPlan;
use gateway::workload::{GatewayWorkload, ShockConfig, WorkloadConfig};
use gateway::{
    AdmissionPolicy, FleetConfig, FleetLogEntry, GatewayConfig, GatewayFleet, LbPolicy, ServedBy,
};
use ipfs_core::obs::names;
use ipfs_core::{IpfsNetwork, NetworkConfig, NodeId};
use simnet::latency::VantagePoint;
use simnet::{Population, PopulationConfig, SimDuration, SimTime};

/// Vantage points hosting the 4-gateway fleet (one per paper region with
/// heavy gateway traffic).
const FLEET_VANTAGES: [VantagePoint; 4] = [
    VantagePoint::UsWest1,
    VantagePoint::EuCentral1,
    VantagePoint::SaEast1,
    VantagePoint::AfSouth1,
];

/// Index (within [`FLEET_VANTAGES`]) of the gateway taken down by the
/// regional-outage cells.
const OUTAGE_GATEWAY: usize = 1;
/// Regional outage window: hours 9–13 of the simulated day.
const OUTAGE_START_HOURS: u64 = 9;
const OUTAGE_HOURS: u64 = 4;

/// Cell sizes, derived from `IPFS_REPRO_SCALE` (or tiny, for the tests).
#[derive(Debug, Clone, Copy)]
pub struct FleetBenchConfig {
    /// Peer population per cell.
    pub population: usize,
    /// Catalog objects.
    pub catalog: usize,
    /// Distinct gateway users.
    pub users: usize,
    /// Requests across the simulated day.
    pub requests: usize,
    /// Per-gateway nginx capacity. Scaled with the catalog so the fleet
    /// stays inside the paper's per-bin nginx band instead of caching the
    /// whole catalog.
    pub nginx_capacity_bytes: u64,
}

impl FleetBenchConfig {
    /// Tiny fixed sizes for the determinism tests.
    #[cfg(test)]
    pub fn smoke() -> FleetBenchConfig {
        FleetBenchConfig {
            population: 250,
            catalog: 90,
            users: 40,
            requests: 400,
            nginx_capacity_bytes: 10_000_000,
        }
    }

    /// Sizes for a real run at the given scale.
    pub fn at_scale(scale: Scale) -> FleetBenchConfig {
        let cfg = ScaleConfig::resolve(scale);
        match scale {
            Scale::Small => FleetBenchConfig {
                population: 1_200,
                catalog: 1_200,
                users: 500,
                requests: 6_000,
                nginx_capacity_bytes: 90_000_000,
            },
            Scale::Paper => FleetBenchConfig {
                population: cfg.population,
                catalog: cfg.gateway_catalog,
                users: cfg.gateway_users,
                requests: cfg.gateway_requests,
                nginx_capacity_bytes: 600_000_000,
            },
        }
    }
}

/// One cell's rendered result.
pub struct CellOutput {
    /// Cell name (stable; used in JSON).
    pub label: &'static str,
    /// Deterministic human-readable section for stdout.
    pub report: String,
    /// Deterministic JSON object fragment.
    pub json: String,
    /// Fleet-wide nginx request hit rate (for the ablation summary).
    pub nginx_hit_rate: f64,
    /// Wall-clock seconds the serve loop took (NOT part of the
    /// deterministic report).
    pub wall_sec: f64,
    /// Requests served in those seconds.
    pub requests: u64,
}

/// What a cell varies.
#[derive(Clone, Copy)]
struct CellSpec {
    label: &'static str,
    gateways: usize,
    lb: LbPolicy,
    admission: AdmissionPolicy,
    shock: Option<ShockConfig>,
    outage: bool,
}

fn lb_name(lb: LbPolicy) -> &'static str {
    match lb {
        LbPolicy::ConsistentHash => "consistent-hash",
        LbPolicy::RoundRobin => "round-robin",
    }
}

fn admission_name(a: AdmissionPolicy) -> &'static str {
    match a {
        AdmissionPolicy::Lru => "lru",
        AdmissionPolicy::TinyLfu => "tinylfu",
    }
}

fn default_shock() -> ShockConfig {
    ShockConfig {
        start: SimDuration::from_hours(12),
        duration: SimDuration::from_hours(2),
        rate_boost: 4.0,
        viral_fraction: 0.5,
        viral_object: 7,
    }
}

fn run_cell(spec: &CellSpec, cfg: &FleetBenchConfig, seed: u64) -> CellOutput {
    let vantages = &FLEET_VANTAGES[..spec.gateways];
    let pop = Population::generate(
        PopulationConfig {
            size: cfg.population,
            nat_fraction: 0.455,
            horizon: SimDuration::from_hours(26),
        },
        seed,
    );
    let mut net = IpfsNetwork::from_population(&pop, vantages, NetworkConfig::default(), seed);
    let ids = net.vantage_ids(vantages.len());
    let workload = GatewayWorkload::generate(WorkloadConfig {
        catalog_size: cfg.catalog,
        users: cfg.users,
        requests: cfg.requests,
        seed,
        shock: spec.shock,
        ..Default::default()
    });
    let fleet_cfg = FleetConfig {
        lb: spec.lb,
        gateway: GatewayConfig {
            nginx_capacity_bytes: cfg.nginx_capacity_bytes,
            admission: spec.admission,
            ..GatewayConfig::default()
        },
        ..Default::default()
    };
    let mut fleet = GatewayFleet::new(&ids, fleet_cfg);
    let providers: Vec<NodeId> =
        net.server_ids().into_iter().filter(|&i| net.is_dialable(i)).take(50).collect();
    fleet.install_catalog(&mut net, &workload, &providers);

    let outage_start = SimTime::ZERO + SimDuration::from_hours(OUTAGE_START_HOURS);
    let outage_window = SimDuration::from_hours(OUTAGE_HOURS);
    if spec.outage {
        let mut plan = FaultPlan::new();
        plan.region_outage(outage_start, outage_window, FLEET_VANTAGES[OUTAGE_GATEWAY].region());
        net.install_fault_plan(plan);
    }

    let wall = Instant::now();
    let log = fleet.serve_all(&mut net, &workload);
    let wall_sec = wall.elapsed().as_secs_f64().max(1e-9);

    let total = log.len() as f64;
    let share = |tier: ServedBy| {
        log.iter().filter(|e| e.entry.served_by == tier).count() as f64 / total.max(1.0)
    };
    let nginx = share(ServedBy::NginxCache);
    let node_store = share(ServedBy::NodeStore);
    let network = share(ServedBy::Network);
    let negative = share(ServedBy::NegativeCache);
    let ok = log.iter().filter(|e| e.entry.success).count() as f64 / total.max(1.0);

    let merged = fleet.merged_metrics();
    let hits = merged.get(names::GATEWAY_NGINX_HITS);
    let misses = merged.get(names::GATEWAY_NGINX_MISSES);
    let nginx_hit_rate = hits as f64 / (hits + misses).max(1) as f64;
    let failovers = merged.get(names::GATEWAY_FLEET_FAILOVERS);
    let waiters = merged.get(names::GATEWAY_SINGLEFLIGHT_WAITERS);
    let rejects = merged.get(names::GATEWAY_ADMISSION_REJECTS);
    let neg_hits = merged.get(names::GATEWAY_NEGATIVE_HITS);
    let evictions = merged.get(names::GATEWAY_NGINX_EVICTIONS);
    // Satellite guard: eviction counters are incremental deltas, so the
    // merged registry must equal the caches' own totals exactly.
    assert_eq!(
        evictions,
        fleet.total_evictions(),
        "[{}] merged eviction metric diverged from cache truth",
        spec.label
    );

    let mut per_gateway = vec![0usize; fleet.len()];
    for e in &log {
        per_gateway[e.gateway] += 1;
    }
    let per_gateway_str = per_gateway.iter().map(|c| c.to_string()).collect::<Vec<_>>().join(" ");

    let mut report = format!(
        "{} gateway(s), {} balancing, {} admission, {} requests\n\
         tier shares: nginx={:.3} node-store={:.3} network={:.3} negative={:.3}\n\
         nginx request hit rate: {:.1} % (paper per-bin band: 32.3 %-65.6 %)\n\
         success rate: {:.3}; singleflight waiters: {}; admission rejects: {}\n\
         negative-cache hits: {}; evictions: {}; failovers: {}\n\
         requests per gateway: {}",
        spec.gateways,
        lb_name(spec.lb),
        admission_name(spec.admission),
        log.len(),
        nginx,
        node_store,
        network,
        negative,
        100.0 * nginx_hit_rate,
        ok,
        waiters,
        rejects,
        neg_hits,
        evictions,
        failovers,
        per_gateway_str,
    );

    if let Some(shock) = spec.shock {
        report.push('\n');
        report.push_str(&render_shock_lines(&workload, &log, shock));
    }
    if spec.outage {
        report.push('\n');
        report.push_str(&render_outage_lines(&log, outage_start, outage_window));
    }

    let json = format!(
        "{{\"gateways\": {}, \"lb\": \"{}\", \"admission\": \"{}\", \"requests\": {}, \
          \"nginx_share\": {:.4}, \"node_store_share\": {:.4}, \"network_share\": {:.4}, \
          \"negative_share\": {:.4}, \"nginx_hit_rate\": {:.4}, \"success_rate\": {:.4}, \
          \"singleflight_waiters\": {waiters}, \"admission_rejects\": {rejects}, \
          \"negative_hits\": {neg_hits}, \"evictions\": {evictions}, \"failovers\": {failovers}}}",
        spec.gateways,
        lb_name(spec.lb),
        admission_name(spec.admission),
        log.len(),
        nginx,
        node_store,
        network,
        negative,
        nginx_hit_rate,
        ok,
    );
    CellOutput {
        label: spec.label,
        report,
        json,
        nginx_hit_rate,
        wall_sec,
        requests: log.len() as u64,
    }
}

/// Flash-crowd lines: how much of the trace falls in the shock window and
/// how the viral object dominates it.
fn render_shock_lines(
    workload: &GatewayWorkload,
    log: &[FleetLogEntry],
    shock: ShockConfig,
) -> String {
    let start = SimTime::ZERO + shock.start;
    let end = start + shock.duration;
    let viral_cid = &workload.objects[shock.viral_object].cid;
    let in_window: Vec<&FleetLogEntry> =
        log.iter().filter(|e| e.entry.at >= start && e.entry.at < end).collect();
    let viral = in_window.iter().filter(|e| &e.entry.cid == viral_cid).count() as f64;
    let window_share = in_window.len() as f64 / log.len().max(1) as f64;
    let viral_share = viral / in_window.len().max(1) as f64;
    let window_nginx =
        in_window.iter().filter(|e| e.entry.served_by == ServedBy::NginxCache).count() as f64
            / in_window.len().max(1) as f64;
    format!(
        "flash crowd ({}x for {}): window holds {:.1} % of requests, \
         viral object {:.1} % of window, window nginx share {:.3}",
        shock.rate_boost,
        shock.duration,
        100.0 * window_share,
        100.0 * viral_share,
        window_nginx,
    )
}

/// Outage lines: traffic the dead gateway carried before / during / after
/// the fault window.
fn render_outage_lines(log: &[FleetLogEntry], start: SimTime, window: SimDuration) -> String {
    let end = start + window;
    let phase_count = |lo: Option<SimTime>, hi: Option<SimTime>| {
        log.iter()
            .filter(|e| {
                e.gateway == OUTAGE_GATEWAY
                    && lo.is_none_or(|t| e.entry.at >= t)
                    && hi.is_none_or(|t| e.entry.at < t)
            })
            .count()
    };
    let before = phase_count(None, Some(start));
    let during = phase_count(Some(start), Some(end));
    let after = phase_count(Some(end), None);
    format!(
        "regional outage (h{OUTAGE_START_HOURS}-{}): gateway {OUTAGE_GATEWAY} served \
         before={before} during={during} after={after} (during must be 0)",
        OUTAGE_START_HOURS + OUTAGE_HOURS,
    )
}

fn cell_specs() -> Vec<CellSpec> {
    vec![
        CellSpec {
            label: "single_lru",
            gateways: 1,
            lb: LbPolicy::ConsistentHash,
            admission: AdmissionPolicy::Lru,
            shock: None,
            outage: false,
        },
        CellSpec {
            label: "fleet4_hash_lru",
            gateways: 4,
            lb: LbPolicy::ConsistentHash,
            admission: AdmissionPolicy::Lru,
            shock: None,
            outage: false,
        },
        CellSpec {
            label: "fleet4_hash_tinylfu",
            gateways: 4,
            lb: LbPolicy::ConsistentHash,
            admission: AdmissionPolicy::TinyLfu,
            shock: None,
            outage: false,
        },
        CellSpec {
            label: "fleet4_rr_tinylfu",
            gateways: 4,
            lb: LbPolicy::RoundRobin,
            admission: AdmissionPolicy::TinyLfu,
            shock: None,
            outage: false,
        },
        CellSpec {
            label: "flash_crowd",
            gateways: 4,
            lb: LbPolicy::ConsistentHash,
            admission: AdmissionPolicy::TinyLfu,
            shock: Some(default_shock()),
            outage: false,
        },
        CellSpec {
            label: "regional_outage",
            gateways: 4,
            lb: LbPolicy::ConsistentHash,
            admission: AdmissionPolicy::TinyLfu,
            shock: None,
            outage: true,
        },
    ]
}

/// The two tiny cells the determinism tests run.
#[cfg(test)]
fn smoke_cell_specs() -> Vec<CellSpec> {
    vec![
        CellSpec {
            label: "smoke_fleet",
            gateways: 4,
            lb: LbPolicy::ConsistentHash,
            admission: AdmissionPolicy::TinyLfu,
            shock: None,
            outage: false,
        },
        CellSpec {
            label: "smoke_outage",
            gateways: 4,
            lb: LbPolicy::ConsistentHash,
            admission: AdmissionPolicy::TinyLfu,
            shock: None,
            outage: true,
        },
    ]
}

/// Runs every cell as an independent unit of work on `jobs` workers and
/// returns the rendered outputs in cell order (stdout byte-identical at
/// any job count — see [`run_cells_with_jobs`]).
pub fn run_all(cfg: &FleetBenchConfig, master_seed: u64, jobs: usize) -> Vec<CellOutput> {
    run_cells(&cell_specs(), cfg, master_seed, jobs)
}

/// Runs `specs` as [`run_all`] runs the shipped cells.
fn run_cells(
    specs: &[CellSpec],
    cfg: &FleetBenchConfig,
    master_seed: u64,
    jobs: usize,
) -> Vec<CellOutput> {
    run_cells_with_jobs(jobs, specs.len(), |i| {
        // Distinct per-cell seed, stable across job counts.
        run_cell(&specs[i], cfg, master_seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    })
}

/// Renders the deterministic stdout report (no wall-clock content).
pub fn render_report(outputs: &[CellOutput]) -> String {
    let mut out = String::new();
    for cell in outputs {
        out.push_str(&format!("-- {} --\n{}\n\n", cell.label, cell.report.trim_end()));
    }
    if let Some(ablation) = render_ablation(outputs) {
        out.push_str(&ablation);
        out.push('\n');
    }
    out
}

/// LRU-vs-TinyLFU ablation summary, when the full run carried both cells.
pub fn render_ablation(outputs: &[CellOutput]) -> Option<String> {
    let rate = |label: &str| outputs.iter().find(|c| c.label == label).map(|c| c.nginx_hit_rate);
    let lru = rate("fleet4_hash_lru")?;
    let tinylfu = rate("fleet4_hash_tinylfu")?;
    Some(format!(
        "-- ablation: nginx admission policy (same trace, 4-gateway fleet) --\n\
         lru:     nginx request hit rate {:.1} %\n\
         tinylfu: nginx request hit rate {:.1} % ({}{:.1} pp)\n",
        100.0 * lru,
        100.0 * tinylfu,
        if tinylfu >= lru { "+" } else { "" },
        100.0 * (tinylfu - lru),
    ))
}

/// Assembles the exported `BENCH_gateway_fleet.json` document. A cell's
/// events are its requests, so `events_per_sec` is sustained requests/sec;
/// the timing keys are the only wall-clock content.
pub fn bench_doc(outputs: &[CellOutput], run: &RunConfig) -> BenchDoc {
    let mut doc = BenchDoc::new("gateway_fleet", run);
    for c in outputs {
        doc.timed_cell(c.label, c.wall_sec, c.requests, &c.json);
    }
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_cells_are_deterministic_across_job_counts() {
        let cfg = FleetBenchConfig::smoke();
        let render = |jobs: usize| {
            let outputs = run_cells(&smoke_cell_specs(), &cfg, 99, jobs);
            // Deterministic surfaces only: the stdout report and the JSON
            // fragments (the timing fields are wall clock and excluded).
            let fragments: Vec<String> =
                outputs.iter().map(|c| format!("{}: {}", c.label, c.json)).collect();
            (render_report(&outputs), fragments)
        };
        assert_eq!(render(1), render(4), "jobs=1 vs jobs=4 must be byte-identical");
    }

    #[test]
    fn smoke_outage_cell_fails_over() {
        let cfg = FleetBenchConfig::smoke();
        let outputs = run_cells(&smoke_cell_specs(), &cfg, 7, 2);
        let outage = outputs.iter().find(|c| c.label == "smoke_outage").unwrap();
        assert!(outage.report.contains("during=0"), "outage report:\n{}", outage.report);
        assert!(!outage.json.contains("\"failovers\": 0"), "no failovers counted");
    }
}
