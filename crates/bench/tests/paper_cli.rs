//! `paper` writes files only where it is told to: without `--out` (and
//! with no `IPFS_REPRO_CSV_DIR`) a run leaves its working directory empty,
//! and `--out <dir>` adds exactly `<dir>/<artifact>.txt` and
//! `<dir>/BENCH_paper.json`.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The cheapest artifact to run.
const ARTIFACT: &str = "fig06_geo_users";

/// A fresh, empty scratch directory under the system temp dir.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("paper-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `paper --only ARTIFACT <extra>` in `cwd` and returns its stdout.
fn run_paper(cwd: &Path, extra: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(["--only", ARTIFACT])
        .args(extra)
        .current_dir(cwd)
        .env("IPFS_REPRO_JOBS", "1")
        .env_remove("IPFS_REPRO_CSV_DIR")
        .output()
        .expect("run paper");
    assert!(out.status.success(), "paper failed: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// The entry names in `dir`, sorted.
fn names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("read dir")
        .map(|e| e.expect("dir entry").file_name().into_string().expect("utf-8 name"))
        .collect();
    names.sort();
    names
}

#[test]
fn without_out_writes_no_files() {
    let cwd = scratch_dir("no-out");
    let stdout = run_paper(&cwd, &[]);
    assert!(stdout.contains("Figure 6"), "artifact text on stdout:\n{stdout}");
    assert_eq!(names(&cwd), Vec::<String>::new(), "a run without --out wrote files");
    std::fs::remove_dir_all(&cwd).expect("clean up");
}

#[test]
fn with_out_writes_only_the_text_and_bench_paper() {
    let cwd = scratch_dir("out");
    let stdout = run_paper(&cwd, &["--out", "d"]);
    assert_eq!(names(&cwd), ["d"]);
    assert_eq!(names(&cwd.join("d")), ["BENCH_paper.json".to_string(), format!("{ARTIFACT}.txt")]);
    let text = std::fs::read_to_string(cwd.join("d").join(format!("{ARTIFACT}.txt")));
    assert_eq!(text.expect("read artifact"), stdout, "the file holds what stdout printed");
    std::fs::remove_dir_all(&cwd).expect("clean up");
}
