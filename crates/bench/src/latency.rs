//! Latency attribution: the §6.2 / Fig. 9 decomposition of publication
//! and retrieval latency, measured from span-level traces.
//!
//! Each cell publishes from one vantage region and retrieves from a
//! fixed remote requester with tracing on, either on a clean network or
//! under a scripted dial-failure spike (`faultsim`). Every operation's
//! trace is folded through [`ipfs_core::LatencyBreakdown`], whose
//! components partition the op interval exactly (integer nanoseconds),
//! so the per-phase sums reconcile to the end-to-end latency sample by
//! sample — the harness counts any mismatch and reports it, and
//! cross-checks the trace-derived components against the state-machine
//! reports (`PublishReport`/`RetrieveReport`).
//!
//! The workload is the Fig. 9 protocol (publish, then cold retrieval
//! with the §4.3 reset), so the paper's §6.2 headline reproduces: the
//! DHT walk dominates the pooled latency (87.9 % of publication in the
//! paper), while retrieval is floored by the constant 1 s Bitswap probe.
//!
//! Cells are independent (own population, network, RNG derived from the
//! master seed) and run on [`run_cells_with_jobs`], so output is
//! byte-identical at any `IPFS_REPRO_JOBS` value.

use crate::export::BenchDoc;
use crate::export::TraceExemplar;
use crate::runner::{run_cells_with_jobs, RunConfig, Scale};
use crate::stats::percentile;
use bytes::Bytes;
use faultsim::FaultPlan;
use ipfs_core::obs::dtrace::exemplar_json;
use ipfs_core::{IpfsNetwork, LatencyBreakdown, NetworkConfig, SpanTree, TraceConfig};
use multiformats::Cid;
use simnet::latency::VantagePoint;
use simnet::{Population, PopulationConfig, SimDuration};

/// Harness sizes, derived from `IPFS_REPRO_SCALE` (or tiny, for the tests).
#[derive(Debug, Clone)]
pub struct LatencyConfig {
    /// Peer population per cell.
    pub population: usize,
    /// Publish + cold-retrieve rounds per cell.
    pub iterations: usize,
    /// Object size in KiB.
    pub object_kib: usize,
    /// Publisher regions (one clean + one faulted cell each).
    pub regions: Vec<VantagePoint>,
}

impl LatencyConfig {
    /// Tiny fixed sizes for the determinism tests.
    #[cfg(test)]
    pub fn smoke() -> LatencyConfig {
        LatencyConfig {
            population: 1_000,
            iterations: 3,
            object_kib: 64,
            regions: vec![VantagePoint::EuCentral1, VantagePoint::SaEast1],
        }
    }

    /// Sizes for a real run at the given scale: all six paper vantage
    /// regions.
    pub fn at_scale(scale: Scale) -> LatencyConfig {
        let (population, iterations) = match scale {
            Scale::Small => (2_000, 10),
            Scale::Paper => (5_000, 40),
        };
        LatencyConfig {
            population,
            iterations,
            object_kib: 512,
            regions: VantagePoint::ALL.to_vec(),
        }
    }
}

/// Per-phase latency samples of one op family, in seconds, index-aligned
/// (sample `i` of every component comes from the same operation).
#[derive(Debug, Clone, Default)]
pub struct PhaseSamples {
    /// End-to-end op latency.
    pub total: Vec<f64>,
    /// Opportunistic Bitswap probe (retrieval only).
    pub bitswap_probe: Vec<f64>,
    /// First DHT walk: provider record on retrieval, the closest-peers
    /// walk on publication.
    pub provider_walk: Vec<f64>,
    /// Second DHT walk: peer record (retrieval only).
    pub peer_walk: Vec<f64>,
    /// Provider dial (retrieval only).
    pub dial: Vec<f64>,
    /// Bitswap content exchange (retrieval only).
    pub fetch: Vec<f64>,
    /// Everything else — for publication this is the ADD_PROVIDER RPC
    /// batch (Fig. 9c).
    pub other: Vec<f64>,
}

impl PhaseSamples {
    /// `(label, samples)` pairs in pipeline order, `total` last.
    pub fn families(&self) -> [(&'static str, &[f64]); 7] {
        [
            ("bitswap_probe", &self.bitswap_probe),
            ("provider_walk", &self.provider_walk),
            ("peer_walk", &self.peer_walk),
            ("dial", &self.dial),
            ("fetch", &self.fetch),
            ("other", &self.other),
            ("total", &self.total),
        ]
    }

    fn push(&mut self, bd: &LatencyBreakdown) {
        self.total.push(bd.total().as_secs_f64());
        self.bitswap_probe.push(bd.bitswap_probe.as_secs_f64());
        self.provider_walk.push(bd.provider_walk.as_secs_f64());
        self.peer_walk.push(bd.peer_walk.as_secs_f64());
        self.dial.push(bd.dial.as_secs_f64());
        self.fetch.push(bd.fetch.as_secs_f64());
        self.other.push(bd.other.as_secs_f64());
    }
}

/// One cell's measured result.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Publisher region label (paper form, e.g. `eu_central_1`).
    pub region: &'static str,
    /// Whether the cell ran under the scripted dial-failure spike.
    pub faulted: bool,
    /// Publish + retrieve rounds attempted.
    pub retrieve_attempts: usize,
    /// Retrievals that succeeded.
    pub retrieve_ok: usize,
    /// Publications that succeeded (out of `retrieve_attempts` rounds).
    pub publish_ok: usize,
    /// Per-phase samples of successful retrievals.
    pub retrieve: PhaseSamples,
    /// Per-phase samples of successful publications (`provider_walk` is
    /// the closest-peers walk, `other` the ADD_PROVIDER batch).
    pub publish: PhaseSamples,
    /// Traces whose breakdown components did NOT sum exactly to the op
    /// duration, or disagreed with the state-machine report (must be
    /// zero; counted to prove the partition property end to end).
    pub sum_mismatches: usize,
    /// Traces whose critical path exceeded the op duration (must be 0).
    pub critical_path_violations: usize,
    /// Stitched distributed traces of this cell's ops, in op order
    /// (empty unless the cell ran with exemplar collection on).
    pub exemplars: Vec<TraceExemplar>,
}

impl CellResult {
    /// Mode label for tables.
    pub fn mode(&self) -> &'static str {
        if self.faulted {
            "faulted"
        } else {
            "clean"
        }
    }
}

fn requester_for(region: VantagePoint) -> VantagePoint {
    if region == VantagePoint::UsWest1 {
        VantagePoint::EuCentral1
    } else {
        VantagePoint::UsWest1
    }
}

fn check_critical_path(trace: &ipfs_core::OpTrace, result: &mut CellResult) {
    if let Some(tree) = SpanTree::from_trace(trace) {
        if tree.critical_path_duration() > tree.duration() {
            result.critical_path_violations += 1;
        }
    }
}

/// Runs one (region, faulted) cell. With `trace` on, distributed trace
/// fragments are collected and every op's stitched tree is kept as an
/// exemplar (observation only — the measured tables are byte-identical
/// either way).
fn run_cell(
    cfg: &LatencyConfig,
    region: VantagePoint,
    faulted: bool,
    seed: u64,
    trace: bool,
) -> CellResult {
    let pop = Population::generate(
        PopulationConfig {
            size: cfg.population,
            nat_fraction: 0.455,
            horizon: SimDuration::from_hours(12),
        },
        seed,
    );
    let vantages = [region, requester_for(region)];
    let mut net = IpfsNetwork::from_population(&pop, &vantages, NetworkConfig::default(), seed);
    let [publisher, requester] = net.vantage_ids(2)[..] else { unreachable!() };
    let publisher_peer = net.peer_id(publisher).clone();
    net.set_trace_config(if trace { TraceConfig::collecting() } else { TraceConfig::enabled() });

    // Age the network before measuring: §4.3 ran against the live DHT,
    // where churn leaves stale routing entries that walks must dial and
    // time out on. A freshly wired simulation has none, which makes the
    // walks unrealistically fast.
    net.run_until(net.now() + SimDuration::from_hours(2));

    if faulted {
        // A long dial-failure spike covering the whole workload: walks
        // lose more RPCs and retries stretch the DHT phases (§6.1 shape).
        let mut plan = FaultPlan::new();
        plan.dial_fail_spike(
            net.now() + SimDuration::from_secs(1),
            SimDuration::from_hours(48),
            0.3,
        );
        net.install_fault_plan(plan);
        net.run_until(net.now() + SimDuration::from_secs(2));
    }

    let mut result = CellResult {
        region: region.label(),
        faulted,
        retrieve_attempts: 0,
        retrieve_ok: 0,
        publish_ok: 0,
        retrieve: PhaseSamples::default(),
        publish: PhaseSamples::default(),
        sum_mismatches: 0,
        critical_path_violations: 0,
        exemplars: Vec::new(),
    };
    let cell_tag =
        |op: &str| format!("{}/{}/{op}", region.label(), if faulted { "faulted" } else { "clean" });

    for i in 0..cfg.iterations {
        let mut payload = vec![0x5A; cfg.object_kib * 1024];
        payload[..8].copy_from_slice(&(i as u64).to_be_bytes());
        let cid: Cid = net.import_content(publisher, &Bytes::from(payload));
        let pub_op = net.publish(publisher, cid.clone());
        net.run_until_quiet();
        let pr = net.publish_reports.last().unwrap().clone();
        let pub_trace = net.take_trace(pub_op).expect("tracing enabled");
        let pub_bd = LatencyBreakdown::from_trace(&pub_trace);
        // Trace-derived components must reconcile with the state
        // machine's own report: exact partition AND per-phase agreement.
        if pub_bd.total() != pr.total
            || pub_bd.provider_walk != pr.dht_walk
            || pub_bd.other != pr.rpc_batch
        {
            result.sum_mismatches += 1;
        }
        check_critical_path(&pub_trace, &mut result);
        if trace {
            if let Some(tree) = net.stitched_trace(&pub_trace) {
                result.exemplars.push(TraceExemplar {
                    dur_nanos: pub_bd.total().as_nanos(),
                    op: pub_op.0,
                    json: exemplar_json(&cell_tag("publish"), pub_op, &tree),
                });
            }
        }
        if pr.success {
            result.publish_ok += 1;
            result.publish.push(&pub_bd);
        }

        // §4.3 reset: cold requester, no warm connections anywhere near
        // the op, so the full §3.2 pipeline runs.
        net.disconnect_all(publisher);
        net.disconnect_all(requester);
        net.forget_address(requester, &publisher_peer);

        let ret_op = net.retrieve(requester, cid.clone());
        net.run_until_quiet();
        result.retrieve_attempts += 1;
        let rr = net.retrieve_reports.last().unwrap().clone();
        let ret_trace = net.take_trace(ret_op).expect("tracing enabled");
        let ret_bd = LatencyBreakdown::from_trace(&ret_trace);
        if ret_bd.total() != rr.total
            || ret_bd.bitswap_probe != rr.bitswap_probe
            || ret_bd.provider_walk != rr.provider_walk
            || ret_bd.peer_walk != rr.peer_walk
            || ret_bd.dial + ret_bd.fetch != rr.fetch
        {
            result.sum_mismatches += 1;
        }
        check_critical_path(&ret_trace, &mut result);
        if trace {
            if let Some(tree) = net.stitched_trace(&ret_trace) {
                result.exemplars.push(TraceExemplar {
                    dur_nanos: ret_bd.total().as_nanos(),
                    op: ret_op.0,
                    json: exemplar_json(&cell_tag("retrieve"), ret_op, &tree),
                });
            }
        }
        if rr.success {
            result.retrieve_ok += 1;
            result.retrieve.push(&ret_bd);
        }

        // Clear requester state for the next cold iteration.
        let node = net.node_mut(requester);
        let cids: Vec<Cid> = node.store.cids().cloned().collect();
        for c in cids {
            merkledag::BlockStore::delete(&mut node.store, &c);
        }
    }
    result
}

/// [`run_all_traced`] without trace collection.
#[cfg(test)]
fn run_all(cfg: &LatencyConfig, master_seed: u64, jobs: usize) -> Vec<CellResult> {
    run_all_traced(cfg, master_seed, jobs, false)
}

/// Runs every (region × clean/faulted) cell on `jobs` workers; output
/// order and bytes are independent of the job count. Distributed-trace
/// exemplars are collected when `trace` is set (the
/// `tab_latency_attribution` artifact does so when it exports). They are
/// pure observations, so every rendered surface stays byte-identical to
/// the untraced run.
pub fn run_all_traced(
    cfg: &LatencyConfig,
    master_seed: u64,
    jobs: usize,
    trace: bool,
) -> Vec<CellResult> {
    let cells: Vec<(VantagePoint, bool)> =
        cfg.regions.iter().flat_map(|&r| [(r, false), (r, true)]).collect();
    run_cells_with_jobs(jobs, cells.len(), |i| {
        let (region, faulted) = cells[i];
        // Distinct per-cell seed, stable across job counts.
        run_cell(
            cfg,
            region,
            faulted,
            master_seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            trace,
        )
    })
}

/// Renders the exemplar dump: the `n` slowest ops' stitched distributed
/// traces across all cells.
pub fn render_trace_out(results: &[CellResult], seed: u64, n: usize) -> String {
    let cells: Vec<&[TraceExemplar]> = results.iter().map(|r| r.exemplars.as_slice()).collect();
    crate::export::render_trace_exemplars("latency", seed, &cells, n)
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn p(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        percentile(v, q)
    }
}

/// Pools both op families of the clean cells and returns
/// `(label, mean_secs)` of the dominant latency component, the two walks
/// combined (the §6.2 claim is about the DHT walk as a whole).
pub fn dominant_component(results: &[CellResult]) -> (&'static str, f64) {
    let clean: Vec<&CellResult> = results.iter().filter(|r| !r.faulted).collect();
    let pool = |f: fn(&PhaseSamples) -> &Vec<f64>| -> Vec<f64> {
        clean.iter().flat_map(|r| f(&r.retrieve).iter().chain(f(&r.publish)).copied()).collect()
    };
    let n = pool(|s| &s.total).len().max(1) as f64;
    let mean_of = |f: fn(&PhaseSamples) -> &Vec<f64>| pool(f).iter().sum::<f64>() / n;
    let components: [(&'static str, f64); 5] = [
        ("bitswap_probe", mean_of(|s| &s.bitswap_probe)),
        ("dht_walk", mean_of(|s| &s.provider_walk) + mean_of(|s| &s.peer_walk)),
        ("dial", mean_of(|s| &s.dial)),
        ("fetch", mean_of(|s| &s.fetch)),
        ("other", mean_of(|s| &s.other)),
    ];
    let mut best = components[0];
    for c in components {
        if c.1 > best.1 {
            best = c;
        }
    }
    best
}

fn render_family(out: &mut String, r: &CellResult, op: &str, samples: &PhaseSamples) {
    let total_mean = mean(&samples.total);
    for (label, fam) in samples.families() {
        // Skip phases that never occur for this op family (publication
        // has no probe/peer-walk/dial/fetch components).
        if label != "total" && fam.iter().all(|&v| v == 0.0) {
            continue;
        }
        let share = if label == "total" || total_mean == 0.0 {
            String::new()
        } else {
            format!("{:.1}%", 100.0 * mean(fam) / total_mean)
        };
        out.push_str(&format!(
            "{:<14} {:<8} {:<9} {:<14} {:>4} {:>9.3} {:>9.3} {:>9.3} {:>7}\n",
            r.region,
            r.mode(),
            op,
            label,
            fam.len(),
            p(fam, 50.0),
            p(fam, 90.0),
            p(fam, 99.0),
            share,
        ));
    }
}

/// Renders `tab_latency_attribution.txt`: per-phase p50/p90/p99 rows for
/// every (publisher region, clean/faulted, op) cell — the Fig. 9 shape —
/// plus the sum-reconciliation and dominance summary.
pub fn render_table(results: &[CellResult]) -> String {
    let mut out = String::new();
    out.push_str("== latency attribution: per-phase p50/p90/p99 (seconds) ==\n");
    out.push_str(
        "phases partition each op exactly (trace-derived, cross-checked against op reports);\n\
         `share` is the phase mean over the total mean; all-zero phases are omitted per op\n\n",
    );
    out.push_str(&format!(
        "{:<14} {:<8} {:<9} {:<14} {:>4} {:>9} {:>9} {:>9} {:>7}\n",
        "publisher", "mode", "op", "phase", "n", "p50", "p90", "p99", "share"
    ));
    for r in results {
        render_family(&mut out, r, "publish", &r.publish);
        render_family(&mut out, r, "retrieve", &r.retrieve);
        out.push_str(&format!(
            "{:<14} {:<8} publish_ok={} retrieve_ok={}/{} sum_mismatches={} critical_path_violations={}\n\n",
            r.region,
            r.mode(),
            r.publish_ok,
            r.retrieve_ok,
            r.retrieve_attempts,
            r.sum_mismatches,
            r.critical_path_violations,
        ));
    }
    let (dom, dom_mean) = dominant_component(results);
    out.push_str(&format!(
        "dominant component (clean cells, both ops pooled): {dom} ({dom_mean:.3}s mean) — §6.2 expects dht_walk\n"
    ));
    out
}

fn family_json(samples: &PhaseSamples) -> String {
    let phases: Vec<String> = samples
        .families()
        .iter()
        .map(|(label, fam)| {
            format!(
                "\"{label}\": {{\"n\": {}, \"mean\": {:.6}, \"p50\": {:.6}, \"p90\": {:.6}, \"p99\": {:.6}}}",
                fam.len(),
                mean(fam),
                p(fam, 50.0),
                p(fam, 90.0),
                p(fam, 99.0),
            )
        })
        .collect();
    format!("{{{}}}", phases.join(", "))
}

/// Assembles the exported `BENCH_latency.json` document: a `dominant`
/// summary cell, then one `<region>/<mode>` cell each (none is timed —
/// every value is sim time).
pub fn bench_doc(results: &[CellResult], run: &RunConfig) -> BenchDoc {
    let mut doc = BenchDoc::new("latency", run);
    let (dom, dom_mean) = dominant_component(results);
    doc.cell(
        "dominant",
        &format!("{{\"dominant_component\": \"{dom}\", \"dominant_mean_secs\": {dom_mean:.6}}}"),
    );
    for r in results {
        doc.cell(
            &format!("{}/{}", r.region, r.mode()),
            &format!(
                "{{\"region\": \"{}\", \"mode\": \"{}\", \"publish_ok\": {}, \
                 \"retrieve_ok\": {}, \"attempts\": {}, \"sum_mismatches\": {}, \
                 \"critical_path_violations\": {}, \"publish\": {}, \"retrieve\": {}}}",
                r.region,
                r.mode(),
                r.publish_ok,
                r.retrieve_ok,
                r.retrieve_attempts,
                r.sum_mismatches,
                r.critical_path_violations,
                family_json(&r.publish),
                family_json(&r.retrieve),
            ),
        );
    }
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_cells_reconcile_and_walk_dominates() {
        let cfg = LatencyConfig::smoke();
        let results = run_all(&cfg, 2022, 2);
        assert_eq!(results.len(), cfg.regions.len() * 2);
        let ok: usize = results.iter().map(|r| r.retrieve_ok).sum();
        assert!(ok > 0, "some retrievals must succeed");
        for r in &results {
            assert_eq!(
                r.sum_mismatches,
                0,
                "{}/{}: breakdown must reconcile exactly with op reports",
                r.region,
                r.mode()
            );
            assert_eq!(r.critical_path_violations, 0);
        }
        let (dom, _) = dominant_component(&results);
        assert_eq!(dom, "dht_walk", "§6.2: the DHT walk dominates the Fig. 9 workload");
    }

    #[test]
    fn output_is_byte_identical_across_job_counts() {
        let cfg = LatencyConfig {
            population: 400,
            iterations: 2,
            object_kib: 16,
            regions: vec![VantagePoint::EuCentral1],
        };
        let render = |jobs: usize| {
            let r = run_all(&cfg, 7, jobs);
            let run = RunConfig { seed: 7, ..RunConfig::default() };
            (render_table(&r), bench_doc(&r, &run).render())
        };
        assert_eq!(render(1), render(4), "jobs=1 vs jobs=4 must be byte-identical");
    }

    #[test]
    fn trace_exemplar_dump_is_byte_identical_across_job_counts() {
        let cfg = LatencyConfig {
            population: 400,
            iterations: 2,
            object_kib: 16,
            regions: vec![VantagePoint::EuCentral1],
        };
        let dump = |jobs: usize| {
            let results = run_all_traced(&cfg, 7, jobs, true);
            (render_table(&results), render_trace_out(&results, 7, 4))
        };
        let (table1, dump1) = dump(1);
        assert!(dump1.contains("\"critical_path\""), "dump must hold stitched traces:\n{dump1}");
        assert!(dump1.contains("srv:"), "remote-side spans must be stitched in:\n{dump1}");
        let untraced = render_table(&run_all(&cfg, 7, 1));
        assert_eq!(table1, untraced, "collecting traces must not change the table");
        assert_eq!((table1, dump1), dump(4), "jobs=1 vs jobs=4 trace dumps must be identical");
    }
}
