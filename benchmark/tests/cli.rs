//! Drives the built binary the way the driver does, at `--quick` sizes.

use ipfs_benchmark::json::Json;
use ipfs_benchmark::metrics::{self, END_TO_END, PER_LAYER};
use ipfs_benchmark::runner::{self, RunArgs};
use ipfs_benchmark::workloads::NAMES;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_ipfs-benchmark");

/// A scratch directory of this test binary, by test name.
fn scratch(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(test);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn bench(args: &[&str]) -> Output {
    Command::new(BIN).args(args).output().expect("the benchmark binary runs")
}

fn last_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).lines().last().unwrap_or_default().to_string()
}

fn keys(doc: &Json) -> Vec<&str> {
    doc.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect()
}

/// Runs one quick workload and returns its parsed result line.
fn quick_run(workload: &str, trace: &str, out_dir: &Path) -> Json {
    let out = bench(&[
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "0",
        "--trace",
        trace,
        "--quick",
        "--out-dir",
        out_dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{workload} --trace {trace}: {out:?}");
    let result = Json::parse(&last_line(&out)).expect("the last line is JSON");
    assert_eq!(keys(&result), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert!(result.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
    assert_eq!(result.get("failed").unwrap().as_f64(), Some(0.0), "{workload}: an op failed");
    result
}

#[test]
fn a_plain_run_prints_exactly_the_end_to_end_metrics() {
    let dir = scratch("plain");
    for workload in NAMES {
        let result = quick_run(workload, "0", &dir);
        let metrics = result.get("metrics").unwrap();
        let declared: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(keys(metrics), declared, "{workload}: emitted == declared, both ways");
        for m in END_TO_END {
            let entry = metrics.get(m.name).unwrap();
            assert_eq!(entry.get("unit").unwrap().as_str(), Some(m.unit));
            let value = entry.get("value").unwrap().as_f64().unwrap();
            assert!(value > 0.0, "{workload}.{} must never be 0, got {value}", m.name);
        }
    }
}

#[test]
fn a_traced_run_prints_exactly_the_per_layer_metrics_and_writes_a_trace() {
    let dir = scratch("traced");
    for workload in NAMES {
        let result = quick_run(workload, "1", &dir);
        let metrics = result.get("metrics").unwrap();
        let declared: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(keys(metrics), declared, "{workload}: emitted == declared, both ways");
        for m in PER_LAYER {
            let entry = metrics.get(m.name).unwrap();
            assert_eq!(entry.get("unit").unwrap().as_str(), Some(m.unit));
            assert!(entry.get("value").unwrap().as_f64().is_some(), "{}: not a number", m.name);
        }
        // Probes are workload-independent: always measured.
        let value = |name: &str| metrics.get(name).unwrap().get("value").unwrap().as_f64().unwrap();
        assert!(value("multiformats.sha256_block_mib_per_s") > 0.0);
        assert!(value("netsim.build_rss_kib_per_node") > 0.0, "child-process memory probe");
        assert!(value("run.events_per_s") > 0.0);

        let trace = std::fs::read_to_string(dir.join(format!("trace_{workload}.json"))).unwrap();
        let trace = Json::parse(&trace).expect("the trace file is JSON");
        for key in ["git_commit", "rustc", "nproc"] {
            assert!(trace.get("provenance").unwrap().get(key).is_some(), "provenance.{key}");
        }
        assert_eq!(trace.get("workload").unwrap().as_str(), Some(workload));
        assert_eq!(trace.get("seed").unwrap().as_f64(), Some(7.0));
        assert!(trace.get("sizes").unwrap().as_object().is_some());
        assert!(trace.get("digest").unwrap().as_str().is_some());
        assert!(trace.get("reps").unwrap().as_array().unwrap().len() >= 4);
        let spans = trace.get("spans").unwrap().as_array().unwrap();
        assert_eq!(spans[0].get("name").unwrap().as_str(), Some("rep"));
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        assert!(spans.iter().any(|s| s.get("name").unwrap().as_str() == Some("setup")));
        assert!(spans.iter().any(|s| s.get("name").unwrap().as_str() == Some("run")));
    }
}

#[test]
fn benchmark_json_is_what_the_tables_generate() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let file = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let tables = Json::parse(&metrics::manifest_json()).unwrap();
    assert_eq!(file, tables, "regenerate with `ipfs-benchmark manifest > BENCHMARK.json`");

    assert_eq!(
        keys(&file),
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    );
    let names = |table: &str| -> Vec<String> {
        file.get(table)
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
            .collect()
    };
    assert_eq!(names("workloads"), NAMES);
    for name in names("workloads").iter().chain(&names("end_to_end")).chain(&names("per_layer")) {
        assert!(
            metrics::is_legal_name(name),
            "{name:?} does not match ^[A-Za-z0-9][A-Za-z0-9_.-]*$"
        );
    }
    for w in file.get("workloads").unwrap().as_array().unwrap() {
        let why = w.get("why").unwrap().as_str().unwrap();
        assert!(why.len() <= 200 && !why.contains('\n'), "why too long: {} chars", why.len());
    }
    let seconds = file.get("run_seconds").unwrap().as_f64().unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    let command = file.get("command").unwrap().as_array().unwrap();
    assert!(command.len() <= 32);
    assert!(std::fs::metadata(&path).unwrap().len() <= 64 * 1024);
}

#[test]
fn ambient_knobs_do_not_reach_the_layers() {
    // Either value would change what is measured; a bogus scheduler name
    // even panics inside `simnet` — unless `main` scrubbed it first.
    let args = ["--workload", "reprovide_sweep", "--seed", "3", "--seconds", "0", "--quick"];
    let clean = bench(&args);
    let knobs = Command::new(BIN)
        .args(args)
        .env("IPFS_REPRO_SCHED", "bogus")
        .env("IPFS_REPRO_EXPIRY", "scan")
        .output()
        .unwrap();
    assert!(clean.status.success() && knobs.status.success(), "{knobs:?}");
    let digest = |out: &Output| {
        let stdout = String::from_utf8_lossy(&out.stdout).to_string();
        let detail = stdout.lines().find_map(|l| l.strip_prefix("detail ")).unwrap().to_string();
        Json::parse(&detail).unwrap().get("digest").unwrap().as_str().unwrap().to_string()
    };
    assert_eq!(digest(&clean), digest(&knobs));
}

#[test]
fn swarm_fetch_digest_is_stable_across_two_in_process_runs() {
    let args = RunArgs {
        workload: "swarm_fetch".into(),
        seed: 11,
        seconds: 0.0,
        trace: false,
        quick: true,
        out_dir: scratch("digest"),
    };
    let (a, b) = (runner::run(&args).unwrap(), runner::run(&args).unwrap());
    assert!(a.correct && b.correct, "{:?} {:?}", a.errors, b.errors);
    assert_eq!(a.digest, b.digest);
    assert_eq!((a.attempted, a.failed), (b.attempted, b.failed));
    let other = runner::run(&RunArgs { seed: 12, ..args }).unwrap();
    assert_ne!(a.digest, other.digest, "another seed is another world");
}

#[test]
fn suite_writes_a_set_with_provenance_and_compare_reads_it() {
    let dir = scratch("suite");
    let set = |name: &str| dir.join(name).to_str().unwrap().to_string();
    for name in ["a.json", "b.json"] {
        let out =
            bench(&["suite", "--quick", "--seeds", "1,2", "--seconds", "0", "--out", &set(name)]);
        assert!(out.status.success(), "{out:?}");
    }
    let doc = Json::parse(&std::fs::read_to_string(set("a.json")).unwrap()).unwrap();
    assert!(doc.get("provenance").unwrap().get("rustc").is_some());
    assert_eq!(doc.get("seeds").unwrap().as_array().unwrap().len(), 2);
    for workload in NAMES {
        let w = doc.get("workloads").unwrap().get(workload).unwrap();
        assert!(w.get("sizes").unwrap().as_object().is_some());
        let runs = w.get("runs").unwrap().as_array().unwrap();
        assert_eq!(runs.len(), 2, "per-run raw values beside the medians");
        assert!(runs[0].get("digest").unwrap().as_str().is_some());
        assert!(!runs[0].get("reps_traced_setup_run").unwrap().as_array().unwrap().is_empty());
        for m in END_TO_END {
            assert!(w.get("median").unwrap().get(m.name).unwrap().as_f64().is_some());
            assert!(w.get("iqr_share").unwrap().get(m.name).unwrap().as_f64().is_some());
        }
    }
    // Quick timings are not comparable, so any verdict may come back —
    // but the digests of the two sets must agree seed by seed.
    let out = bench(&["compare", &set("a.json"), &set("b.json")]);
    let report = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(matches!(out.status.code(), Some(0..=2)), "{out:?}");
    assert!(!report.contains("MISMATCH"), "{report}");
    assert_eq!(report.lines().count(), 1 + NAMES.len() * END_TO_END.len());
}

#[test]
fn a_bad_command_line_exits_non_zero_without_a_result() {
    for args in [&["--workload", "nope"][..], &["--trace", "2", "--workload", "dht_perf"], &[]] {
        let out = bench(args);
        assert!(!out.status.success(), "{args:?}");
        assert!(!last_line(&out).starts_with('{'), "{args:?} printed a result");
    }
}
