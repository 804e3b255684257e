//! Content-lifecycle harness: maintenance cost of large provided sets.
//!
//! The paper's publication cells (§6.1) measure one walk; this harness
//! measures what the deployed client actually spends its life on —
//! *keeping* records alive. A pinning node carries a catalog of
//! 10k/100k/1M CIDs through §3.1's republish cycle twice, in both
//! maintenance modes:
//!
//! * **per-CID chains** — one republish timer and one full DHT walk per
//!   CID per cycle (kubo's classic provider loop),
//! * **keyspace-ordered sweep** — provided CIDs sorted by DHT key,
//!   grouped into keyspace neighborhoods, one walk plus batched
//!   ADD_PROVIDER stores per neighborhood (go-ipfs's accelerated DHT
//!   client).
//!
//! Each `maintain` cell reports DHT messages per maintained record
//! (sent FIND_NODE + received ADD_PROVIDER(+_BATCH) over two cycles),
//! resident provider records, and per-node state bytes. The catalogs are
//! *seeded* — blocks enter the store and the reprovide machinery arms
//! without initial publication walks — so the measured traffic is purely
//! the maintenance loop. `churn` cells crash the pinning node (plus a
//! quarter of the servers) mid-sweep with a record expiry short enough
//! that the catalog dies out of the DHT during the outage, and track the
//! availability fraction dip-and-recover around the heal. A `shard` cell
//! runs the same lifecycle (expiry queues + reprovide walks) through the
//! region-sharded PDES at `IPFS_REPRO_SHARDS` workers; its digests prove
//! the shard count never leaks into results.
//!
//! Every cell is a pure function of the master seed: stdout is
//! byte-identical at any `IPFS_REPRO_JOBS` and `IPFS_REPRO_SHARDS`
//! value. Wall-clock events/sec goes to the exported JSON (and stderr)
//! only.

use std::time::Instant;

use crate::export::BenchDoc;
use crate::runner::{run_cells_with_jobs, RunConfig, Scale};
use faultsim::FaultPlan;
use ipfs_core::obs::names;
use ipfs_core::{IpfsNetwork, NetworkConfig, NodeConfig, NodeId, ShardSim, ShardSimConfig};
use simnet::latency::VantagePoint;
use simnet::{Population, PopulationConfig, SimDuration, SimTime};

/// Republish cadence of the netsim cells (scaled §3.1 12 h cycle).
const INTERVAL: SimDuration = SimDuration::from_hours(1);
/// Republish cycles a `maintain` cell measures.
const CYCLES: u64 = 2;

/// One cell's rendered result.
pub struct CellOutput {
    /// Cell name (stable; used in JSON).
    pub label: &'static str,
    /// Deterministic human-readable section for stdout.
    pub report: String,
    /// Deterministic JSON object fragment.
    pub json: String,
    /// DHT messages per maintained record (deterministic; 0 for cells
    /// that do not measure maintenance traffic).
    pub msgs_per_record: f64,
    /// Wall-clock seconds the cell's simulation took (NOT part of the
    /// deterministic report).
    pub wall_sec: f64,
    /// Simulator events processed in those seconds.
    pub events: u64,
}

/// What a cell varies.
#[derive(Clone, Copy)]
enum Spec {
    /// Steady-state maintenance of `catalog` CIDs for [`CYCLES`] cycles.
    Maintain { label: &'static str, catalog: usize, sweep: bool },
    /// Crash the pinner mid-sweep; track the availability fraction.
    Churn { label: &'static str, catalog: usize, sweep: bool },
    /// The same lifecycle through the region-sharded PDES.
    Shard { label: &'static str, nodes: usize },
}

fn lifecycle_network(
    population: usize,
    sweep: bool,
    expiry: SimDuration,
    seed: u64,
) -> IpfsNetwork {
    let pop = Population::generate(
        PopulationConfig {
            size: population,
            nat_fraction: 0.455,
            horizon: SimDuration::from_hours(12),
        },
        seed,
    );
    let cfg = NetworkConfig {
        auto_republish: true,
        reprovide_sweep: sweep,
        node: NodeConfig {
            republish_interval: INTERVAL,
            expiry_interval: expiry,
            ..NodeConfig::default()
        },
        ..NetworkConfig::default()
    };
    IpfsNetwork::from_population(&pop, &[VantagePoint::EuCentral1], cfg, seed)
}

/// Steady-state cell: seed the catalog, run two republish cycles, and
/// attribute every DHT message to the records it maintained.
fn run_maintain(label: &'static str, catalog: usize, sweep: bool, seed: u64) -> CellOutput {
    let mut net = lifecycle_network(220, sweep, SimDuration::from_hours(24), seed);
    let pinner: NodeId = net.vantage_ids(1)[0];
    let wall = Instant::now();
    let events_before = net.events_processed;
    net.seed_provided(pinner, seed, catalog);
    let t0 = net.now();

    let m0 = |n: &IpfsNetwork, name: &str| n.metrics().get(name);
    let find0 = m0(&net, names::DHT_RPC_SENT_FIND_NODE);
    let prov0 = m0(&net, names::DHT_RPC_RECV_ADD_PROVIDER);
    let batch0 = m0(&net, names::DHT_RPC_RECV_ADD_PROVIDER_BATCH);
    let rep0 = m0(&net, names::PROVIDER_REPUBLISHES);

    // Two full cycles plus slack for the last cycle's walk/store tails.
    net.run_until(t0 + INTERVAL * CYCLES + SimDuration::from_mins(30));

    let find_node = m0(&net, names::DHT_RPC_SENT_FIND_NODE) - find0;
    let add_provider = m0(&net, names::DHT_RPC_RECV_ADD_PROVIDER) - prov0;
    let add_batch = m0(&net, names::DHT_RPC_RECV_ADD_PROVIDER_BATCH) - batch0;
    let maintained = m0(&net, names::PROVIDER_REPUBLISHES) - rep0;
    let messages = find_node + add_provider + add_batch;
    let msgs_per_record = messages as f64 / maintained.max(1) as f64;
    let sweep_runs = m0(&net, names::PROVIDER_SWEEP_RUNS);
    let sweep_batches = m0(&net, names::PROVIDER_SWEEP_BATCHES);
    let records = net.provider_records_total();
    let records_per_node = records as f64 / 220.0;
    let bytes_per_node = net.bytes_per_node_estimate();
    let wall_sec = wall.elapsed().as_secs_f64().max(1e-9);
    let events = net.events_processed - events_before;

    let mode = if sweep { "keyspace sweep" } else { "per-CID chains" };
    let report = format!(
        "{catalog} CIDs maintained for {CYCLES} cycles ({mode}, cadence {INTERVAL})\n\
         records maintained: {maintained}; DHT messages: {messages} \
         (FIND_NODE {find_node}, ADD_PROVIDER {add_provider}, ADD_PROVIDER_BATCH {add_batch})\n\
         messages per maintained record: {msgs_per_record:.3}\n\
         sweep runs: {sweep_runs}, sweep batches: {sweep_batches}\n\
         resident provider records: {records} ({records_per_node:.0}/node); \
         node state: {} KiB/node",
        bytes_per_node / 1024,
    );
    let json = format!(
        "{{\"catalog\": {catalog}, \"sweep\": {sweep}, \"maintained\": {maintained}, \
          \"messages\": {messages}, \"find_node\": {find_node}, \
          \"add_provider\": {add_provider}, \"add_provider_batch\": {add_batch}, \
          \"msgs_per_record\": {msgs_per_record:.4}, \"sweep_batches\": {sweep_batches}, \
          \"records_total\": {records}, \"bytes_per_node\": {bytes_per_node}}}"
    );
    CellOutput { label, report, json, msgs_per_record, wall_sec, events }
}

/// Churn cell: record availability around a crash that spans a republish
/// boundary AND the record expiry — the catalog dies out of the DHT
/// while the pinner is down, and only the parked maintenance resuming at
/// rejoin brings it back.
fn run_churn(label: &'static str, catalog: usize, sweep: bool, seed: u64) -> CellOutput {
    // Expiry at 1.25 cycles: a record the parked sweep cannot refresh
    // outlives one boundary but not the outage below.
    let mut net = lifecycle_network(250, sweep, SimDuration::from_mins(75), seed);
    let pinner: NodeId = net.vantage_ids(1)[0];
    let wall = Instant::now();
    let events_before = net.events_processed;
    let cids = net.seed_provided(pinner, seed, catalog);
    let t0 = net.now();

    let avail = |net: &IpfsNetwork| {
        let ok = cids.iter().filter(|c| net.provider_record_available(c)).count();
        ok as f64 / cids.len().max(1) as f64
    };
    // Crash 30 s into cycle 2's sweep (batch stores in flight), down for
    // 1.5 cycles: heal lands past the 75 min expiry of the cycle-2
    // records. A quarter of the servers crash alongside.
    let crash_at = t0 + INTERVAL * 2 + SimDuration::from_secs(30);
    let downtime = INTERVAL + SimDuration::from_mins(30);
    let heal = crash_at + downtime;
    let mut plan = FaultPlan::new();
    plan.crash_nodes(crash_at, vec![pinner], downtime);
    plan.crash_wave(crash_at, 0.25, downtime);
    net.install_fault_plan(plan);

    let mut samples: Vec<(&'static str, SimTime, f64)> = Vec::new();
    let mut sample = |net: &mut IpfsNetwork, tag: &'static str, at: SimTime| {
        net.run_until(at);
        samples.push((tag, at, avail(net)));
    };
    sample(&mut net, "after_first_cycle", t0 + INTERVAL + SimDuration::from_mins(15));
    sample(&mut net, "outage_start", crash_at + SimDuration::from_mins(10));
    sample(&mut net, "outage_past_expiry", crash_at + SimDuration::from_mins(80));
    sample(&mut net, "post_heal", heal + SimDuration::from_mins(10));
    sample(&mut net, "next_cycle", heal + INTERVAL + SimDuration::from_mins(10));

    let deferred = net.metrics().get(names::PROVIDER_REPUBLISH_DEFERRED);
    let resumed = net.metrics().get(names::PROVIDER_REPUBLISH_RESUMED);
    let wall_sec = wall.elapsed().as_secs_f64().max(1e-9);
    let events = net.events_processed - events_before;

    let mode = if sweep { "keyspace sweep" } else { "per-CID chains" };
    let series = samples
        .iter()
        .map(|(tag, at, f)| {
            format!("{tag}@{:.0}m={f:.3}", at.since(SimTime::ZERO).as_secs_f64() / 60.0)
        })
        .collect::<Vec<_>>()
        .join(" ");
    let report = format!(
        "{catalog} CIDs ({mode}); pinner + 25% of servers crash 30 s into cycle 2, \
         down {downtime} (past the 75 min record expiry)\n\
         availability fraction: {series}\n\
         republishes parked: {deferred}, resumed at rejoin: {resumed}",
    );
    let series_json = samples
        .iter()
        .map(|(tag, _, f)| format!("\"{tag}\": {f:.4}"))
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        "{{\"catalog\": {catalog}, \"sweep\": {sweep}, {series_json}, \
          \"deferred\": {deferred}, \"resumed\": {resumed}}}"
    );
    CellOutput { label, report, json, msgs_per_record: 0.0, wall_sec, events }
}

/// PDES cell: the provider lifecycle (per-replica expiry queues,
/// reprovide re-walks, offline deferral) at `IPFS_REPRO_SHARDS` region
/// shards. The digests are shard-invariant, so this cell's output never
/// changes with the shard count — the byte-identity gate runs it at 1
/// and N shards and diffs.
fn run_shard(label: &'static str, nodes: usize, seed: u64, shards: usize) -> CellOutput {
    let cfg = ShardSimConfig {
        nodes,
        shards,
        seed,
        duration: SimDuration::from_secs(20),
        churn_prob: 0.01,
        provider_republish: SimDuration::from_secs(2),
        provider_expiry: SimDuration::from_secs(5),
        ..Default::default()
    };
    let wall = Instant::now();
    let res = ShardSim::build(&cfg).run();
    let wall_sec = wall.elapsed().as_secs_f64().max(1e-9);

    let stored = res.counter("provider_store");
    let expired = res.counter("provider_expired");
    let republished = res.counter("sweep_republish");
    let deferred = res.counter("sweep_deferred");
    let report = format!(
        "{nodes} nodes, 20 s virtual, republish 2 s / expiry 5 s (scaled §3.1)\n\
         records stored: {stored}, expired (O(expired) queue pops): {expired}\n\
         sweep republishes: {republished}, deferred while offline: {deferred}\n\
         digests: order={:016x} metrics={:016x} ({} events)",
        res.order_fnv, res.metrics_fnv, res.events,
    );
    let json = format!(
        "{{\"nodes\": {nodes}, \"events\": {}, \"provider_store\": {stored}, \
          \"provider_expired\": {expired}, \"sweep_republish\": {republished}, \
          \"sweep_deferred\": {deferred}, \"order_fnv\": \"{:016x}\", \
          \"metrics_fnv\": \"{:016x}\"}}",
        res.events, res.order_fnv, res.metrics_fnv,
    );
    CellOutput { label, report, json, msgs_per_record: 0.0, wall_sec, events: res.events }
}

fn cell_specs(smoke: bool, scale: Scale) -> Vec<Spec> {
    if smoke {
        return vec![
            Spec::Maintain { label: "smoke_2k_percid", catalog: 2_000, sweep: false },
            Spec::Maintain { label: "smoke_2k_sweep", catalog: 2_000, sweep: true },
            Spec::Churn { label: "smoke_churn_sweep", catalog: 400, sweep: true },
            Spec::Shard { label: "smoke_shard", nodes: 4_000 },
        ];
    }
    let mut specs = vec![
        Spec::Maintain { label: "maintain_10k_percid", catalog: 10_000, sweep: false },
        Spec::Maintain { label: "maintain_10k_sweep", catalog: 10_000, sweep: true },
        Spec::Maintain { label: "maintain_100k_percid", catalog: 100_000, sweep: false },
        Spec::Maintain { label: "maintain_100k_sweep", catalog: 100_000, sweep: true },
        Spec::Churn { label: "churn_2k_sweep", catalog: 2_000, sweep: true },
        Spec::Churn { label: "churn_2k_percid", catalog: 2_000, sweep: false },
        Spec::Shard { label: "shard_lifecycle_30k", nodes: 30_000 },
    ];
    if scale == Scale::Paper {
        specs.push(Spec::Maintain {
            label: "maintain_1m_percid",
            catalog: 1_000_000,
            sweep: false,
        });
        specs.push(Spec::Maintain { label: "maintain_1m_sweep", catalog: 1_000_000, sweep: true });
        specs.push(Spec::Shard { label: "shard_lifecycle_100k", nodes: 100_000 });
    }
    specs
}

/// Runs every cell as an independent unit of work on `jobs` workers and
/// returns the rendered outputs in cell order (stdout byte-identical at
/// any job count — see [`run_cells_with_jobs`]).
pub fn run_all(run: &RunConfig, smoke: bool) -> Vec<CellOutput> {
    let specs = cell_specs(smoke, run.scale);
    let master_seed = run.seed;
    run_cells_with_jobs(run.jobs, specs.len(), |i| {
        // The per-CID and sweep variants of one catalog share a seed
        // (identical population, pinner, and catalog) so their message
        // counts differ only in maintenance mode. Cells of different
        // catalogs get distinct seeds.
        let seed = match specs[i] {
            Spec::Maintain { catalog, .. } => {
                master_seed ^ (catalog as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            }
            Spec::Churn { catalog, .. } => {
                master_seed ^ (catalog as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
            }
            Spec::Shard { nodes, .. } => {
                master_seed ^ (nodes as u64).wrapping_mul(0x1656_67B1_9E37_79F9)
            }
        };
        match specs[i] {
            Spec::Maintain { label, catalog, sweep } => run_maintain(label, catalog, sweep, seed),
            Spec::Churn { label, catalog, sweep } => run_churn(label, catalog, sweep, seed),
            Spec::Shard { label, nodes } => run_shard(label, nodes, seed, run.shards),
        }
    })
}

/// Sweep-vs-chains summary: messages per maintained record and the
/// amortization factor, for every catalog size that ran both modes.
pub fn render_amortization(outputs: &[CellOutput]) -> Option<String> {
    let pairs: Vec<(&str, &str, &str)> = vec![
        ("2k", "smoke_2k_percid", "smoke_2k_sweep"),
        ("10k", "maintain_10k_percid", "maintain_10k_sweep"),
        ("100k", "maintain_100k_percid", "maintain_100k_sweep"),
        ("1M", "maintain_1m_percid", "maintain_1m_sweep"),
    ];
    let cell = |label: &str| outputs.iter().find(|c| c.label == label);
    let mut lines =
        String::from("-- maintenance amortization (DHT messages per maintained record) --\n");
    let mut any = false;
    for (size, percid, sweep) in pairs {
        let (Some(p), Some(s)) = (cell(percid), cell(sweep)) else { continue };
        any = true;
        lines.push_str(&format!(
            "{size} CIDs: per-CID chains {:.3} | sweep {:.3}  (x{:.1} fewer messages)\n",
            p.msgs_per_record,
            s.msgs_per_record,
            p.msgs_per_record / s.msgs_per_record.max(1e-9),
        ));
    }
    any.then_some(lines)
}

/// Renders the deterministic stdout report (no wall-clock content).
pub fn render_report(outputs: &[CellOutput]) -> String {
    let mut out = String::new();
    for cell in outputs {
        out.push_str(&format!("-- {} --\n{}\n\n", cell.label, cell.report.trim_end()));
    }
    if let Some(amortization) = render_amortization(outputs) {
        out.push_str(&amortization);
        out.push('\n');
    }
    out
}

/// Assembles the exported `BENCH_lifecycle.json` document. The timing
/// keys are the only wall-clock content; every `result` is a pure
/// function of the seed.
pub fn bench_doc(outputs: &[CellOutput], run: &RunConfig) -> BenchDoc {
    let mut doc = BenchDoc::new("lifecycle", run);
    for c in outputs {
        doc.timed_cell(c.label, c.wall_sec, c.events, &c.json);
    }
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_cells_are_deterministic_across_job_counts() {
        let render = |jobs: usize| {
            let outputs = run_all(&RunConfig { seed: 99, jobs, ..RunConfig::default() }, true);
            let fragments: Vec<String> =
                outputs.iter().map(|c| format!("{}: {}", c.label, c.json)).collect();
            (render_report(&outputs), fragments)
        };
        assert_eq!(render(1), render(4), "jobs=1 vs jobs=4 must be byte-identical");
    }

    #[test]
    fn sweep_amortizes_maintenance_messages() {
        let outputs = run_all(&RunConfig { seed: 2022, jobs: 2, ..RunConfig::default() }, true);
        let cell = |label: &str| outputs.iter().find(|c| c.label == label).unwrap();
        let percid = cell("smoke_2k_percid");
        let sweep = cell("smoke_2k_sweep");
        assert!(
            percid.msgs_per_record > 0.0 && sweep.msgs_per_record > 0.0,
            "both modes must run maintenance:\n{}\n{}",
            percid.report,
            sweep.report
        );
        let ratio = percid.msgs_per_record / sweep.msgs_per_record;
        // The acceptance bar is >=5x at the 100k cell; even the 2k smoke
        // catalog (8 CIDs per neighborhood) must already clear it.
        assert!(
            ratio >= 5.0,
            "sweep must amortize maintenance messages >=5x (got x{ratio:.2}):\n{}\n{}",
            percid.report,
            sweep.report
        );
        // The sweep must actually batch: batched stores arrive, and the
        // per-record message cost stays below one walk's worth.
        assert!(sweep.json.contains("\"add_provider_batch\""));
    }

    #[test]
    fn churn_cell_dips_and_recovers() {
        let outputs = run_all(&RunConfig { seed: 7, jobs: 2, ..RunConfig::default() }, true);
        let cell = outputs.iter().find(|c| c.label == "smoke_churn_sweep").unwrap();
        let field = |name: &str| -> f64 {
            cell.json
                .split(&format!("\"{name}\": "))
                .nth(1)
                .and_then(|s| s.split([',', '}']).next())
                .and_then(|s| s.trim().parse().ok())
                .unwrap_or_else(|| panic!("field {name} in {}", cell.json))
        };
        assert!(field("after_first_cycle") > 0.95, "{}", cell.report);
        assert!(
            field("outage_past_expiry") < 0.2,
            "records must expire during the outage:\n{}",
            cell.report
        );
        assert!(field("post_heal") > 0.95, "resumed sweep must re-store:\n{}", cell.report);
        assert!(field("next_cycle") > 0.95, "{}", cell.report);
        assert!(field("deferred") >= 1.0, "{}", cell.report);
        assert!(field("resumed") >= 1.0, "{}", cell.report);
    }
}
