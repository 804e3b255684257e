//! Throughput harness: simulator events/sec and DHT walks/sec.
//!
//! Not a paper artifact — this measures the *reproduction itself* so that
//! performance PRs carry a recorded trajectory. Two sections per run:
//!
//! 1. **sim** — a full `IpfsNetwork` runs publish/retrieve rounds; we
//!    report discrete events processed per wall-clock second and completed
//!    DHT walks per second, using the `obs` MetricsRegistry
//!    (`dht_walk_rpcs` sample count) as the source of truth, plus the mean
//!    logical bytes of per-node state (the SoA memory-pass metric).
//! 2. **pdes** — the sharded cells (`ipfs_core::shardsim` on
//!    `simnet::ShardedEngine`): the paper-population cell and the `huge`
//!    (≥100k-node) cell, with `IPFS_REPRO_SHARDS` region shards. Every
//!    deterministic output (events, order/metrics fingerprints,
//!    bytes_per_node) is byte-identical at any shard count; only the
//!    wall-clock rates may move.
//!
//! Per-layer numbers (routing-table `closest()`, the timing wheel, the
//! sharded engine's dispatch) come from the named probes of
//! `ipfs-benchmark --trace 1` (`benchmark/README.md`), not from here.
//!
//! Full (non-smoke) runs repeat each cell three times and report the
//! fastest repetition — min-of-N is robust to co-tenant noise — while
//! asserting that the deterministic outputs (event counts, walk counts,
//! metrics fingerprint) are identical across repetitions.
//!
//! Output goes to stdout and, when `IPFS_REPRO_CSV_DIR` is set, to
//! `BENCH_throughput.json` via [`bench::BenchDoc`]: every section is a
//! timed cell (`small`, `paper_pdes`, `paper_pdes_build`, `huge`, …) whose
//! `events` are what the section counts — sim events or nodes built.
//!
//! Flags:
//! * `--smoke` — tiny fixed-size run for CI regression gating.
//! * `--digest` — print only deterministic per-cell results (event counts,
//!   walk counts, a metrics fingerprint) and skip everything wall-clock
//!   derived. Two runs at the same seed must produce byte-identical
//!   digests at any shard count and with tracing on or off —
//!   `scripts/check.sh` diffs both this way.
//! * `--overhead-check` — run the smoke sim cell twice, distributed
//!   tracing off then on; assert the deterministic outputs are identical
//!   and exit non-zero if the traced run falls under 0.8× the untraced
//!   throughput (the tracing overhead budget).
//!
//! The `IPFS_REPRO_DTRACE=1` environment knob arms distributed tracing +
//! the flight recorder inside the sim section; every deterministic output
//! (digest lines included) must be byte-identical with the knob on or off
//! — `scripts/check.sh` diffs both.

use bench::{BenchDoc, RunConfig, Scale, ScaleConfig};
use bytes::Bytes;
use ipfs_core::{IpfsNetwork, NetworkConfig, ShardSim, ShardSimConfig};
use simnet::latency::VantagePoint;
use simnet::{Population, PopulationConfig, SimDuration};
use std::time::Instant;

/// One measured configuration.
struct Cell {
    label: &'static str,
    population: usize,
    rounds: usize,
}

/// Deterministic result of the sim section (identical across repetitions
/// and tracing on/off at the same seed), plus wall-clock rates.
struct SimResult {
    events: u64,
    walks: usize,
    /// FNV-1a over every touched counter — a cheap fingerprint that any
    /// behavioural divergence between runs will disturb.
    metrics_fnv: u64,
    /// Mean logical bytes of per-node state (connections + routing table
    /// + address book) at the end of the run — the memory-pass metric.
    bytes_per_node: u64,
    elapsed: f64,
    events_per_sec: f64,
    walks_per_sec: f64,
}

/// Simulation section: publish/retrieve rounds on a live network. With
/// `dtrace` on, the tracer runs at its top level (op logs, fragment
/// collection, the flight recorder) — observation only, so every
/// deterministic field must match the untraced run exactly.
fn run_sim(cell: &Cell, seed: u64, dtrace: bool) -> SimResult {
    let pop = Population::generate(
        PopulationConfig {
            size: cell.population,
            nat_fraction: 0.455,
            horizon: SimDuration::from_hours(8),
        },
        seed,
    );
    let mut net = IpfsNetwork::from_population(
        &pop,
        &[VantagePoint::EuCentral1, VantagePoint::UsWest1],
        NetworkConfig::default(),
        seed,
    );
    let [provider, requester] = net.vantage_ids(2)[..] else { unreachable!() };
    if dtrace {
        net.set_trace_config(ipfs_core::TraceConfig::full(None));
    }

    let events_before = net.events_processed;
    let walks_before = net.metrics().samples(ipfs_core::obs::names::DHT_WALK_RPCS).len();
    let start = Instant::now();
    for i in 0..cell.rounds {
        let mut data = vec![0u8; 1024];
        data[..8].copy_from_slice(&(i as u64).to_be_bytes());
        let cid = net.import_content(provider, &Bytes::from(data));
        net.publish(provider, cid.clone());
        net.run_until_quiet();
        net.retrieve(requester, cid);
        net.run_until_quiet();
        // Reset the requester so every round walks the DHT honestly
        // (§4.3-style: drop connections, addresses, and fetched blocks).
        net.disconnect_all(requester);
        let p = net.peer_id(provider).clone();
        net.forget_address(requester, &p);
        let node = net.node_mut(requester);
        let cids: Vec<_> = node.store.cids().cloned().collect();
        for c in cids {
            merkledag::BlockStore::delete(&mut node.store, &c);
        }
    }
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    let events = net.events_processed - events_before;
    let bytes_per_node = net.bytes_per_node_estimate();
    let walks = net.metrics().samples(ipfs_core::obs::names::DHT_WALK_RPCS).len() - walks_before;
    // An FNV-1a-shaped fold, but with multiplier 0x1000_0000_01b3 rather
    // than the FNV prime, so not `simnet::mix::fnv1a`: the recorded
    // `metrics_fnv` digests pin this value.
    let mut metrics_fnv = 0xcbf2_9ce4_8422_2325u64;
    for (name, value) in net.metrics().counters() {
        for byte in name.bytes().chain(value.to_be_bytes()) {
            metrics_fnv = (metrics_fnv ^ byte as u64).wrapping_mul(0x1000_0000_01b3);
        }
    }
    SimResult {
        events,
        walks,
        metrics_fnv,
        bytes_per_node,
        elapsed,
        events_per_sec: events as f64 / elapsed,
        walks_per_sec: walks as f64 / elapsed,
    }
}

/// One sharded-cell configuration (the struct-of-arrays PDES section).
struct PdesCell {
    label: &'static str,
    nodes: usize,
    sim_secs: u64,
    ops_per_tick: u32,
    /// Repetitions for full runs (the `huge` cell runs once — rebuilding a
    /// 100k+-node world three times buys little extra noise rejection).
    reps: usize,
}

/// Builds and runs one sharded cell. Returns the deterministic result plus
/// (build seconds, run seconds).
fn run_pdes(cell: &PdesCell, seed: u64, shards: usize) -> (ipfs_core::ShardSimResult, f64, f64) {
    let cfg = ShardSimConfig {
        nodes: cell.nodes,
        shards,
        seed,
        duration: SimDuration::from_secs(cell.sim_secs),
        ops_per_tick: cell.ops_per_tick,
        ..Default::default()
    };
    let t0 = Instant::now();
    let mut sim = ShardSim::build(&cfg);
    let build = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let result = sim.run();
    (result, build, t1.elapsed().as_secs_f64().max(1e-9))
}

fn measure_pdes(cell: &PdesCell, run: &RunConfig, digest: bool, doc: &mut BenchDoc) {
    let (seed, shards) = (run.seed, run.shards);
    let (best, mut build_sec, mut run_sec) = run_pdes(cell, seed, shards);
    let reps = if digest { 1 } else { cell.reps.max(1) };
    for _ in 1..reps {
        let (rep, b, r) = run_pdes(cell, seed, shards);
        assert_eq!(rep, best, "pdes cell must be deterministic");
        if b < build_sec {
            build_sec = b;
        }
        if r < run_sec {
            run_sec = r;
        }
    }
    if digest {
        // Everything here is a pure function of (seed, cell) — identical
        // at every shard count and worker count.
        // `scripts/check.sh` byte-diffs IPFS_REPRO_SHARDS=1 vs =6 runs.
        println!(
            "digest pdes {}: events={} order_fnv={:016x} metrics_fnv={:016x} bytes_per_node={}",
            cell.label, best.events, best.order_fnv, best.metrics_fnv, best.bytes_per_node
        );
        return;
    }
    let events_per_sec = best.events as f64 / run_sec;
    println!("-- pdes {} ({} nodes, {} shards) --", cell.label, cell.nodes, shards);
    println!(
        "pdes: {} events in {:.3}s (+{:.3}s build) — {:.0} events/s, {} bytes/node",
        best.events, run_sec, build_sec, events_per_sec, best.bytes_per_node
    );
    println!(
        "pdes: {} publishes, {} retrieves ({} misses), {} RPC timeouts, order_fnv {:016x}",
        best.counter("publish_done"),
        best.counter("retrieve_done"),
        best.counter("retrieve_miss"),
        best.counter("rpc_timeout"),
        best.order_fnv
    );
    let result = format!(
        "{{\"nodes\": {}, \"shards\": {shards}, \"order_fnv\": \"{:016x}\", \
         \"metrics_fnv\": \"{:016x}\", \"bytes_per_node\": {}, \"publish_done\": {}, \
         \"retrieve_done\": {}, \"retrieve_miss\": {}}}",
        cell.nodes,
        best.order_fnv,
        best.metrics_fnv,
        best.bytes_per_node,
        best.counter("publish_done"),
        best.counter("retrieve_done"),
        best.counter("retrieve_miss"),
    );
    doc.timed_cell(cell.label, run_sec, best.events, &result);
    let build = format!("{{\"nodes\": {}, \"shards\": {shards}}}", cell.nodes);
    doc.timed_cell(&format!("{}_build", cell.label), build_sec, cell.nodes as u64, &build);
}

fn measure(cell: &Cell, run: &RunConfig, digest: bool, reps: usize, doc: &mut BenchDoc) {
    // Best-of-N: the sim cell repeats and the fastest wall clock is
    // reported (the usual noisy-box benchmarking discipline). The
    // deterministic fields double as a free reproducibility check: every
    // repetition must agree on them exactly.
    let (seed, dtrace) = (run.seed, run.dtrace);
    let mut sim = run_sim(cell, seed, dtrace);
    for _ in 1..reps.max(1) {
        let rep = run_sim(cell, seed, dtrace);
        assert_eq!(
            (rep.events, rep.walks, rep.metrics_fnv, rep.bytes_per_node),
            (sim.events, sim.walks, sim.metrics_fnv, sim.bytes_per_node),
            "sim section must be deterministic"
        );
        if rep.elapsed < sim.elapsed {
            sim = rep;
        }
    }
    if digest {
        // Only values that are a pure function of (seed, scale) — nothing
        // wall-clock derived.
        println!(
            "digest {}: events={} walks={} metrics_fnv={:016x} bytes_per_node={}",
            cell.label, sim.events, sim.walks, sim.metrics_fnv, sim.bytes_per_node
        );
        return;
    }
    println!("-- {} (population {}) --", cell.label, cell.population);
    println!(
        "sim: {} rounds, {} events, {} walks in {:.3}s — {:.0} events/s, {:.1} walks/s, \
{} bytes/node",
        cell.rounds,
        sim.events,
        sim.walks,
        sim.elapsed,
        sim.events_per_sec,
        sim.walks_per_sec,
        sim.bytes_per_node
    );
    let result = format!(
        "{{\"population\": {}, \"rounds\": {}, \"walks\": {}, \"bytes_per_node\": {}}}",
        cell.population, cell.rounds, sim.walks, sim.bytes_per_node
    );
    doc.timed_cell(cell.label, sim.elapsed, sim.events, &result);
}

/// Tracing overhead budget gate: the smoke sim cell with tracing + the
/// flight recorder armed must keep ≥ 0.8× the untraced events/sec, and
/// every deterministic output must be identical (tracing observes, never
/// perturbs). Best-of-3 each to shed co-tenant noise.
fn run_overhead_check(seed: u64) {
    const REPS: usize = 3;
    let cell = Cell { label: "smoke", population: 500, rounds: 40 };
    let best = |dtrace: bool| {
        let mut best = run_sim(&cell, seed, dtrace);
        for _ in 1..REPS {
            let rep = run_sim(&cell, seed, dtrace);
            if rep.elapsed < best.elapsed {
                best = rep;
            }
        }
        best
    };
    let off = best(false);
    let on = best(true);
    assert_eq!(
        (on.events, on.walks, on.metrics_fnv, on.bytes_per_node),
        (off.events, off.walks, off.metrics_fnv, off.bytes_per_node),
        "tracing must not change any deterministic output"
    );
    let ratio = on.events_per_sec / off.events_per_sec.max(1e-9);
    println!(
        "overhead gate: traced {:.0} events/s vs untraced {:.0} events/s (ratio {ratio:.2})",
        on.events_per_sec, off.events_per_sec
    );
    if ratio < 0.8 {
        eprintln!("throughput: tracing overhead exceeds the 20% budget (ratio {ratio:.2})");
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let digest = args.iter().any(|a| a == "--digest");
    let overhead_check = args.iter().any(|a| a == "--overhead-check");

    let run =
        RunConfig::start("Throughput", "simulator events/sec and DHT walks/sec (perf trajectory)");
    let seed = run.seed;
    if overhead_check {
        run_overhead_check(seed);
        return;
    }
    let cells: Vec<Cell> = if smoke {
        vec![Cell { label: "smoke", population: 500, rounds: 40 }]
    } else {
        let mut cells = vec![Cell { label: "small", population: 1_500, rounds: 150 }];
        if run.scale == Scale::Paper {
            cells.push(Cell {
                label: "paper",
                population: ScaleConfig::resolve(run.scale).population,
                rounds: 40,
            });
        }
        cells
    };

    // PDES cells: `pdes_*` exercises the paper-scale population on the
    // sharded engine; `huge*` is the ≥100k-node headline the SoA memory
    // pass exists for. Smoke variants keep the same shapes, shorter.
    let pdes_cells: Vec<PdesCell> = if smoke {
        vec![
            PdesCell { label: "pdes_smoke", nodes: 4_000, sim_secs: 12, ops_per_tick: 6, reps: 1 },
            PdesCell { label: "huge_smoke", nodes: 100_000, sim_secs: 4, ops_per_tick: 4, reps: 1 },
        ]
    } else {
        vec![
            PdesCell { label: "paper_pdes", nodes: 20_000, sim_secs: 60, ops_per_tick: 8, reps: 3 },
            PdesCell { label: "huge", nodes: 120_000, sim_secs: 30, ops_per_tick: 8, reps: 1 },
        ]
    };
    let shards = run.shards;
    if digest {
        // To stderr: stdout must be byte-identical across
        // IPFS_REPRO_SHARDS values.
        eprintln!("pdes shards: {shards}");
    }

    // Smoke (CI gate) and digest (equivalence diff) run each cell once;
    // recorded full runs take the best of three to shed scheduler noise.
    let reps = if smoke || digest { 1 } else { 3 };
    let mut doc = BenchDoc::new("throughput", &run);
    for c in &cells {
        measure(c, &run, digest, reps, &mut doc);
    }
    for c in &pdes_cells {
        measure_pdes(c, &run, digest, &mut doc);
    }
    if digest {
        // Digest runs exist to be byte-diffed across shard counts and
        // tracing on/off; rates and JSON export would only add noise.
        return;
    }
    if let Some(path) = doc.write() {
        println!("wrote {}", path.display());
    }
}
