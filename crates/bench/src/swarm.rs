//! Swarm-transfer harness: goodput of multi-provider Bitswap sessions.
//!
//! The paper measures single-provider retrievals (§6.2); this harness
//! exercises the session layer the deployed client actually ships: a
//! chunked Merkle-DAG is published by 1–8 providers, the requester's
//! Bitswap session broadcasts WANT-HAVE across the swarm, splits live
//! wants over the responsive peers (join-shortest-queue with EWMA latency
//! tiebreak, bounded per-peer in-flight budget) and re-routes on renege.
//! Since provider uplinks serialize BLOCK traffic, goodput should scale
//! with swarm size until the requester's downlink or the block pipeline
//! saturates — the fleet effect single-provider cells cannot show.
//!
//! Provider records carry multiaddrs in these cells so every discovered
//! provider is dialed up front (the swarm assembles before the transfer
//! ends); a duplicate-factor ablation shows the §3.2 trade: requesting
//! each block from k peers cuts tail latency but wastes uplink bytes.
//!
//! Every cell is an independent pure function of the master seed, so
//! [`run_all`] parallelises over `IPFS_REPRO_JOBS` workers with
//! a byte-identical report at any job count. Goodput is computed from
//! *sim* time and is deterministic; wall-clock events/sec goes to the
//! exported JSON only.

use std::time::Instant;

use crate::export::{BenchDoc, TraceExemplar};
use crate::runner::{run_cells_with_jobs, RunConfig, Scale};
use bytes::Bytes;
use ipfs_core::obs::dtrace::exemplar_json;
use ipfs_core::obs::names;
use ipfs_core::{IpfsNetwork, NetworkConfig, NodeId, TraceConfig};
use simnet::latency::VantagePoint;
use simnet::{Population, PopulationConfig, SimDuration};

/// Cell sizes, derived from `IPFS_REPRO_SCALE` (or tiny, for the tests).
#[derive(Debug, Clone, Copy)]
pub struct SwarmBenchConfig {
    /// Peer population per cell (providers are drawn from the dialable
    /// servers, so this bounds the maximum swarm).
    pub population: usize,
}

impl SwarmBenchConfig {
    /// Tiny fixed sizes for the determinism tests.
    pub fn smoke() -> SwarmBenchConfig {
        SwarmBenchConfig { population: 200 }
    }

    /// Sizes for a real run at the given scale.
    pub fn at_scale(scale: Scale) -> SwarmBenchConfig {
        match scale {
            Scale::Small => SwarmBenchConfig { population: 400 },
            Scale::Paper => SwarmBenchConfig { population: 1_000 },
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
    /// Sim-time goodput of the fetch phase in Mbit/s (deterministic).
    pub goodput_mbps: f64,
    /// Share of received blocks that were duplicates (deterministic).
    pub dup_share: f64,
    /// Wall-clock seconds the measured retrieval took (NOT part of the
    /// deterministic report).
    pub wall_sec: f64,
    /// Simulator events processed in those seconds.
    pub events: u64,
    /// Stitched distributed trace of the cell's swarm retrieval (empty
    /// unless the cell ran with trace collection on).
    pub exemplars: Vec<TraceExemplar>,
}

/// What a cell varies.
#[derive(Clone, Copy)]
struct CellSpec {
    label: &'static str,
    dag_bytes: u64,
    swarm: usize,
    duplicate_factor: usize,
}

const KIB: u64 = 1024;
const MIB: u64 = 1024 * 1024;

/// Deterministic non-repeating payload (xorshift64): a uniform fill would
/// dedup every 256 KiB leaf into a single CID and collapse the DAG.
pub fn gen_bytes(len: u64, seed: u64) -> Bytes {
    let mut x = seed | 1;
    Bytes::from(
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect::<Vec<u8>>(),
    )
}

fn mib_label(bytes: u64) -> String {
    if bytes >= MIB {
        format!("{:.1} MiB", bytes as f64 / MIB as f64)
    } else {
        format!("{} KiB", bytes / KIB)
    }
}

fn run_cell(spec: &CellSpec, cfg: &SwarmBenchConfig, seed: u64, trace: bool) -> CellOutput {
    let pop = Population::generate(
        PopulationConfig {
            size: cfg.population,
            nat_fraction: 0.3,
            horizon: SimDuration::from_hours(6),
        },
        seed,
    );
    let net_cfg = NetworkConfig {
        provider_records_carry_addrs: true,
        retriever_becomes_provider: true,
        duplicate_factor: spec.duplicate_factor,
        ..Default::default()
    };
    let mut net = IpfsNetwork::from_population(&pop, &[VantagePoint::EuCentral1], net_cfg, seed);
    let requester = net.vantage_ids(1)[0];
    let providers: Vec<NodeId> = net
        .server_ids()
        .into_iter()
        .filter(|&i| net.is_dialable(i) && i != requester)
        .take(spec.swarm)
        .collect();
    assert_eq!(
        providers.len(),
        spec.swarm,
        "[{}] population too small for the requested swarm",
        spec.label
    );

    let data = gen_bytes(spec.dag_bytes, seed ^ 0xD1F);
    let mut cid = None;
    for &p in &providers {
        let c = net.import_content(p, &data);
        net.publish(p, c.clone());
        cid = Some(c);
    }
    let cid = cid.expect("at least one provider");
    net.run_until_quiet();
    let publishes_ok = net.publish_reports.iter().filter(|r| r.success).count();

    // Cold-start the requester (§4.3-style reset): with warm connections a
    // provider can answer the 1 s opportunistic probe and the transfer
    // lands in the probe phase, leaving `fetch` empty — goodput must be
    // measured over an honest DHT walk + swarm fetch.
    net.disconnect_all(requester);

    // Distributed tracing is armed only for the measured retrieval (and
    // only when collecting exemplars): pure observation, the deterministic
    // report is byte-identical either way.
    if trace {
        net.set_trace_config(TraceConfig::collecting());
    }
    let wall = Instant::now();
    let events_before = net.events_processed;
    let ret_op = net.retrieve(requester, cid);
    net.run_until_quiet();
    let wall_sec = wall.elapsed().as_secs_f64().max(1e-9);
    let events = net.events_processed - events_before;
    let mut exemplars = Vec::new();
    if trace {
        if let Some(tr) = net.take_trace(ret_op) {
            if let Some(tree) = net.stitched_trace(&tr) {
                exemplars.push(TraceExemplar {
                    dur_nanos: tree.duration().as_nanos(),
                    op: ret_op.0,
                    json: exemplar_json(&format!("{}/retrieve", spec.label), ret_op, &tree),
                });
            }
        }
    }

    let rr = net.retrieve_reports[0].clone();
    let fetch_secs = rr.fetch.as_secs_f64().max(1e-9);
    let goodput_mbps =
        if rr.success { spec.dag_bytes as f64 * 8.0 / fetch_secs / 1e6 } else { 0.0 };
    let blocks = net.metrics().get(names::BITSWAP_SESSION_BLOCKS_RECEIVED);
    let dups = net.metrics().get(names::BITSWAP_SESSION_DUP_BLOCKS);
    let wants = net.metrics().get(names::BITSWAP_SESSION_WANTS_SENT);
    let reroutes = net.metrics().get(names::BITSWAP_SESSION_REROUTES);
    let dup_share = dups as f64 / (blocks + dups).max(1) as f64;
    let serving =
        providers.iter().filter(|&&p| net.node_mut(p).bitswap.counts_sent.block > 0).count();

    let report = format!(
        "dag {}, swarm {}, duplicate factor {}\n\
         publish: {publishes_ok}/{} ok; retrieve: {} (fetch {:.3} s sim, total {:.3} s sim)\n\
         goodput: {goodput_mbps:.1} Mbit/s sim; blocks {blocks} (+{dups} dup, share {:.1} %)\n\
         wants sent: {wants}; reroutes: {reroutes}; providers serving: {serving}/{}",
        mib_label(spec.dag_bytes),
        spec.swarm,
        spec.duplicate_factor,
        providers.len(),
        if rr.success { "ok" } else { "FAILED" },
        fetch_secs,
        rr.total.as_secs_f64(),
        100.0 * dup_share,
        providers.len(),
    );
    let json = format!(
        "{{\"dag_bytes\": {}, \"swarm\": {}, \"duplicate_factor\": {}, \"success\": {}, \
          \"fetch_secs\": {fetch_secs:.6}, \"goodput_mbps\": {goodput_mbps:.3}, \
          \"blocks\": {blocks}, \"dup_blocks\": {dups}, \"dup_share\": {dup_share:.4}, \
          \"wants_sent\": {wants}, \"reroutes\": {reroutes}, \"providers_serving\": {serving}}}",
        spec.dag_bytes, spec.swarm, spec.duplicate_factor, rr.success,
    );
    CellOutput {
        label: spec.label,
        report,
        json,
        goodput_mbps,
        dup_share,
        wall_sec,
        events,
        exemplars,
    }
}

fn cell_specs(smoke: bool) -> Vec<CellSpec> {
    if smoke {
        vec![
            CellSpec { label: "smoke_swarm1", dag_bytes: 2 * MIB, swarm: 1, duplicate_factor: 1 },
            CellSpec { label: "smoke_swarm4", dag_bytes: 2 * MIB, swarm: 4, duplicate_factor: 1 },
            CellSpec { label: "smoke_dup2", dag_bytes: 2 * MIB, swarm: 4, duplicate_factor: 2 },
        ]
    } else {
        vec![
            CellSpec {
                label: "dag512k_swarm1",
                dag_bytes: 512 * KIB,
                swarm: 1,
                duplicate_factor: 1,
            },
            CellSpec {
                label: "dag512k_swarm2",
                dag_bytes: 512 * KIB,
                swarm: 2,
                duplicate_factor: 1,
            },
            CellSpec {
                label: "dag512k_swarm4",
                dag_bytes: 512 * KIB,
                swarm: 4,
                duplicate_factor: 1,
            },
            CellSpec {
                label: "dag512k_swarm8",
                dag_bytes: 512 * KIB,
                swarm: 8,
                duplicate_factor: 1,
            },
            CellSpec { label: "dag4m_swarm1", dag_bytes: 4 * MIB, swarm: 1, duplicate_factor: 1 },
            CellSpec { label: "dag4m_swarm2", dag_bytes: 4 * MIB, swarm: 2, duplicate_factor: 1 },
            CellSpec { label: "dag4m_swarm4", dag_bytes: 4 * MIB, swarm: 4, duplicate_factor: 1 },
            CellSpec { label: "dag4m_swarm8", dag_bytes: 4 * MIB, swarm: 8, duplicate_factor: 1 },
            CellSpec { label: "dag16m_swarm1", dag_bytes: 16 * MIB, swarm: 1, duplicate_factor: 1 },
            CellSpec { label: "dag16m_swarm2", dag_bytes: 16 * MIB, swarm: 2, duplicate_factor: 1 },
            CellSpec { label: "dag16m_swarm4", dag_bytes: 16 * MIB, swarm: 4, duplicate_factor: 1 },
            CellSpec { label: "dag16m_swarm8", dag_bytes: 16 * MIB, swarm: 8, duplicate_factor: 1 },
            CellSpec { label: "dag64m_swarm1", dag_bytes: 64 * MIB, swarm: 1, duplicate_factor: 1 },
            CellSpec { label: "dag64m_swarm2", dag_bytes: 64 * MIB, swarm: 2, duplicate_factor: 1 },
            CellSpec { label: "dag64m_swarm4", dag_bytes: 64 * MIB, swarm: 4, duplicate_factor: 1 },
            CellSpec { label: "dag64m_swarm8", dag_bytes: 64 * MIB, swarm: 8, duplicate_factor: 1 },
            CellSpec {
                label: "dag16m_swarm4_dup2",
                dag_bytes: 16 * MIB,
                swarm: 4,
                duplicate_factor: 2,
            },
            CellSpec {
                label: "dag16m_swarm4_dup3",
                dag_bytes: 16 * MIB,
                swarm: 4,
                duplicate_factor: 3,
            },
        ]
    }
}

/// Runs every cell as an independent unit of work on `jobs` workers and
/// returns the rendered outputs in cell order (stdout byte-identical at
/// any job count — see [`run_cells_with_jobs`]).
pub fn run_all(
    cfg: &SwarmBenchConfig,
    master_seed: u64,
    smoke: bool,
    jobs: usize,
) -> Vec<CellOutput> {
    run_all_traced(cfg, master_seed, smoke, jobs, false)
}

/// [`run_all`] with distributed-trace exemplar collection switched on
/// when `trace` is set (the `swarm` artifact does so when it exports).
pub fn run_all_traced(
    cfg: &SwarmBenchConfig,
    master_seed: u64,
    smoke: bool,
    jobs: usize,
    trace: bool,
) -> Vec<CellOutput> {
    let specs = cell_specs(smoke);
    run_cells_with_jobs(jobs, specs.len(), |i| {
        // Cells of the same DAG size share one seed — identical population,
        // requester, and provider prefix — so the swarm-size rows of a DAG
        // differ only in swarm width and are directly comparable. Still a
        // pure function of the spec: stdout stays byte-identical at any
        // job count.
        let seed = master_seed ^ specs[i].dag_bytes.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        run_cell(&specs[i], cfg, seed, trace)
    })
}

/// Renders the exemplar dump: the `n` slowest retrievals' stitched
/// distributed traces across all cells.
pub fn render_trace_out(outputs: &[CellOutput], seed: u64, n: usize) -> String {
    let cells: Vec<&[TraceExemplar]> = outputs.iter().map(|c| c.exemplars.as_slice()).collect();
    crate::export::render_trace_exemplars("swarm", seed, &cells, n)
}

/// Renders the deterministic stdout report (no wall-clock content).
pub fn render_report(outputs: &[CellOutput]) -> String {
    let mut out = String::new();
    for cell in outputs {
        out.push_str(&format!("-- {} --\n{}\n\n", cell.label, cell.report.trim_end()));
    }
    if let Some(scaling) = render_scaling(outputs) {
        out.push_str(&scaling);
        out.push('\n');
    }
    if let Some(ablation) = render_dup_ablation(outputs) {
        out.push_str(&ablation);
        out.push('\n');
    }
    out
}

/// Goodput-vs-swarm-size summary, when the full grid ran.
pub fn render_scaling(outputs: &[CellOutput]) -> Option<String> {
    let goodput = |label: &str| outputs.iter().find(|c| c.label == label).map(|c| c.goodput_mbps);
    let mut lines = String::from("-- goodput scaling (sim Mbit/s, swarm 1/2/4/8) --\n");
    let mut any = false;
    for dag in ["dag512k", "dag4m", "dag16m", "dag64m"] {
        let (Some(g1), Some(g2), Some(g4), Some(g8)) = (
            goodput(&format!("{dag}_swarm1")),
            goodput(&format!("{dag}_swarm2")),
            goodput(&format!("{dag}_swarm4")),
            goodput(&format!("{dag}_swarm8")),
        ) else {
            continue;
        };
        any = true;
        lines.push_str(&format!(
            "{dag}: {g1:.1} | {g2:.1} | {g4:.1} | {g8:.1}  (x{:.2} from 1 to 8 providers)\n",
            g8 / g1.max(1e-9)
        ));
    }
    any.then_some(lines)
}

/// Duplicate-factor ablation summary (same DAG and swarm, k = 1/2/3).
pub fn render_dup_ablation(outputs: &[CellOutput]) -> Option<String> {
    let cell = |label: &str| outputs.iter().find(|c| c.label == label);
    let base = cell("dag16m_swarm4")?;
    let d2 = cell("dag16m_swarm4_dup2")?;
    let d3 = cell("dag16m_swarm4_dup3")?;
    Some(format!(
        "-- ablation: duplicate factor (16 MiB DAG, swarm 4) --\n\
         k=1: goodput {:.1} Mbit/s, dup share {:.1} %\n\
         k=2: goodput {:.1} Mbit/s, dup share {:.1} %\n\
         k=3: goodput {:.1} Mbit/s, dup share {:.1} %\n",
        base.goodput_mbps,
        100.0 * base.dup_share,
        d2.goodput_mbps,
        100.0 * d2.dup_share,
        d3.goodput_mbps,
        100.0 * d3.dup_share,
    ))
}

/// Assembles the exported `BENCH_swarm.json` document. The timing keys
/// are the only wall-clock content; every `result` is a pure function of
/// the seed.
pub fn bench_doc(outputs: &[CellOutput], run: &RunConfig) -> BenchDoc {
    let mut doc = BenchDoc::new("swarm", run);
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
        let cfg = SwarmBenchConfig::smoke();
        let render = |jobs: usize, trace: bool| {
            let outputs = run_all_traced(&cfg, 99, true, jobs, trace);
            let traced = outputs.iter().any(|c| !c.exemplars.is_empty());
            assert_eq!(traced, trace, "exemplars are collected exactly when tracing");
            // Deterministic surfaces only: the report and the JSON
            // fragments (the timing fields are wall clock and excluded).
            let fragments: Vec<String> =
                outputs.iter().map(|c| format!("{}: {}", c.label, c.json)).collect();
            (render_report(&outputs), fragments)
        };
        let serial = render(1, false);
        assert_eq!(serial, render(4, false), "jobs=1 vs jobs=4 must be byte-identical");
        assert_eq!(serial, render(1, true), "collecting traces must not change the report");
    }

    #[test]
    fn smoke_swarm_beats_single_provider_and_stays_deduplicated() {
        let cfg = SwarmBenchConfig::smoke();
        let outputs = run_all(&cfg, 7, true, 2);
        let cell = |label: &str| outputs.iter().find(|c| c.label == label).unwrap();
        let single = cell("smoke_swarm1");
        let swarm = cell("smoke_swarm4");
        assert!(single.json.contains("\"success\": true"), "{}", single.report);
        assert!(swarm.json.contains("\"success\": true"), "{}", swarm.report);
        assert!(
            swarm.goodput_mbps > 1.3 * single.goodput_mbps,
            "swarm goodput must beat a single provider: {:.1} vs {:.1} Mbit/s",
            swarm.goodput_mbps,
            single.goodput_mbps,
        );
        // Duplicate factor 1 must keep duplicate traffic under the 30 %
        // acceptance bound (it should in fact be ~0).
        assert!(swarm.dup_share < 0.3, "dup share {:.2}", swarm.dup_share);
    }
}
