//! `latency --smoke` must leave the committed recording alone: without
//! `--out` a smoke run writes no file (a full run defaults to `results/`),
//! and with `--out <dir>` it writes the table and the JSON there.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh, empty scratch directory under the system temp dir.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("latency-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `latency --smoke <extra>` in `cwd` and returns its stdout.
fn run_smoke(cwd: &Path, extra: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_latency"))
        .arg("--smoke")
        .args(extra)
        .current_dir(cwd)
        .env("IPFS_REPRO_JOBS", "1")
        .env_remove("IPFS_REPRO_CSV_DIR")
        .output()
        .expect("run latency");
    assert!(
        out.status.success(),
        "latency --smoke failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn smoke_without_out_writes_no_files() {
    let cwd = scratch_dir("no-out");
    let stdout = run_smoke(&cwd, &[]);
    assert!(!stdout.contains("wrote "), "smoke run reported a write:\n{stdout}");
    let left: Vec<_> = std::fs::read_dir(&cwd).expect("read cwd").collect();
    assert!(left.is_empty(), "smoke run left files in its cwd: {left:?}");
    std::fs::remove_dir_all(&cwd).expect("clean up");
}

#[test]
fn smoke_with_out_writes_table_and_json() {
    let cwd = scratch_dir("out");
    run_smoke(&cwd, &["--out", "lat"]);
    for name in ["tab_latency_attribution.txt", "BENCH_latency.json"] {
        assert!(cwd.join("lat").join(name).is_file(), "missing {name}");
    }
    assert!(!cwd.join("results").exists(), "--out must replace the default, not add to it");
    std::fs::remove_dir_all(&cwd).expect("clean up");
}
