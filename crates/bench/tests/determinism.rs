//! The parallel cell runner must not change results: the same cells with
//! the same seeds render byte-identical output at any job count, because
//! every cell owns its population, network and RNG, and the merge orders
//! results by cell index.

use bench::export::to_csv;
use bench::runner::run_cells_with_jobs;
use bench::stats::markdown_table;
use bytes::Bytes;
use ipfs_core::{IpfsNetwork, NetworkConfig, NodeConfig};
use simnet::latency::VantagePoint;
use simnet::{Population, PopulationConfig, SimDuration};

/// A miniature replication-ablation cell (the shape of
/// `ablation_replication`): one full simulated network per cell, a few
/// publish/retrieve rounds, a rendered result row.
fn replication_cell(cell: usize) -> Vec<String> {
    let ks = [2usize, 20];
    let k = ks[cell];
    let seed = 2022;
    let pop = Population::generate(
        PopulationConfig { size: 400, nat_fraction: 0.455, horizon: SimDuration::from_hours(6) },
        seed,
    );
    let mut net = IpfsNetwork::from_population(
        &pop,
        &[VantagePoint::EuCentral1, VantagePoint::UsWest1],
        NetworkConfig {
            node: NodeConfig { replication: k, ..Default::default() },
            ..Default::default()
        },
        seed,
    );
    let [provider, requester] = net.vantage_ids(2)[..] else { unreachable!() };
    let mut row = vec![k.to_string()];
    for i in 0..3u64 {
        let mut data = vec![0u8; 16 * 1024];
        data[..8].copy_from_slice(&i.to_be_bytes());
        let cid = net.import_content(provider, &Bytes::from(data));
        net.publish(provider, cid.clone());
        net.run_until_quiet();
        let before = net.retrieve_reports.len();
        net.retrieve(requester, cid);
        net.run_until_quiet();
        let ok = net.retrieve_reports[before..].iter().any(|r| r.success);
        row.push(format!("{ok} @ {:.6}s", net.now().as_secs_f64()));
        net.disconnect_all(requester);
    }
    row.push(net.events_processed.to_string());
    row
}

#[test]
fn parallel_runner_output_is_byte_identical_to_serial() {
    let serial = run_cells_with_jobs(1, 2, replication_cell);
    let parallel = run_cells_with_jobs(4, 2, replication_cell);
    assert_eq!(serial, parallel, "cell results must match row for row");

    let headers = ["k", "round 0", "round 1", "round 2", "events"];
    assert_eq!(
        markdown_table(&headers, &serial),
        markdown_table(&headers, &parallel),
        "rendered table must be byte-identical"
    );
    assert_eq!(
        to_csv(&headers, &serial),
        to_csv(&headers, &parallel),
        "exported CSV must be byte-identical"
    );
}

/// The chaos harness composes every fault path (partitions, crash waves,
/// spikes, loss, latency inflation, gateway traffic); its rendered smoke
/// report must be byte-identical at any job count and across reruns, and
/// its `BENCH_chaos.json` may differ only in the `provenance` line — the
/// one place the job count is stamped.
#[test]
fn chaos_smoke_report_is_byte_identical_across_job_counts() {
    use bench::chaos::{bench_doc, render_report, run_all, ChaosConfig};
    use bench::RunConfig;
    let cfg = ChaosConfig::smoke();
    let render = |jobs: usize| {
        let outputs = run_all(&cfg, 2022, jobs);
        let run = RunConfig { seed: 2022, jobs, ..RunConfig::default() };
        (render_report(&outputs), bench_doc(&outputs, &run).render())
    };
    let serial = render(1);
    assert_eq!(serial, render(1), "same seed must replay byte-identically");
    let parallel = render(4);
    assert_eq!(serial.0, parallel.0, "jobs=1 vs jobs=4 stdout must be byte-identical");
    let differing: Vec<(&str, &str)> =
        serial.1.lines().zip(parallel.1.lines()).filter(|(a, b)| a != b).collect();
    assert_eq!(serial.1.lines().count(), parallel.1.lines().count());
    assert_eq!(differing.len(), 1, "only the provenance line may differ: {differing:?}");
    assert!(differing[0].0.starts_with("  \"provenance\": {"), "{differing:?}");
    assert!(differing[0].0.contains("\"jobs\": 1") && differing[0].1.contains("\"jobs\": 4"));
}

/// Per-cell time series merged in cell-index order must render
/// byte-identical JSON and CSV at any job count: window bucketing,
/// counter addition, and sample concatenation are all order-sensitive
/// only across cells, which the runner's index-ordered merge fixes.
#[test]
fn timeseries_merge_is_byte_identical_across_job_counts() {
    use ipfs_core::obs::names;
    use ipfs_core::TimeSeries;
    use simnet::SimTime;

    // Each cell produces a deterministic series from its own seeded
    // "workload": counters and samples spread over 2-hour windows.
    let cell_series = |cell: usize| {
        let mut ts = TimeSeries::new(SimDuration::from_hours(2));
        let mut x = (cell as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for _ in 0..200 {
            // xorshift64*: cheap deterministic stream per cell.
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            let at = SimTime(x % SimDuration::from_hours(12).as_nanos());
            ts.incr(at, names::GATEWAY_REQUESTS);
            if x % 3 != 0 {
                ts.incr(at, names::GATEWAY_OK);
            }
            ts.observe(at, names::GATEWAY_LATENCY_MS, (x % 1000) as f64 / 7.0);
        }
        ts
    };
    let render = |jobs: usize| {
        let series = run_cells_with_jobs(jobs, 5, cell_series);
        let mut merged = TimeSeries::new(SimDuration::from_hours(2));
        for ts in &series {
            merged.merge(ts);
        }
        merged.to_json()
    };
    let serial = render(1);
    assert_eq!(serial, render(4), "jobs=1 vs jobs=4 must merge byte-identically");
    assert_eq!(serial, render(3), "jobs=3 must merge byte-identically too");
    assert!(serial.contains("gateway_requests"));
    assert!(serial.contains("gateway_latency_ms"));
}

#[test]
fn runner_merges_in_cell_order_regardless_of_jobs() {
    for jobs in [1usize, 2, 3, 8, 64] {
        let got = run_cells_with_jobs(jobs, 37, |i| i * i);
        let want: Vec<usize> = (0..37).map(|i| i * i).collect();
        assert_eq!(got, want, "jobs={jobs}");
    }
}

#[test]
fn runner_handles_empty_and_single_cell() {
    assert_eq!(run_cells_with_jobs(4, 0, |i| i), Vec::<usize>::new());
    assert_eq!(run_cells_with_jobs(4, 1, |i| i + 10), vec![10]);
}
