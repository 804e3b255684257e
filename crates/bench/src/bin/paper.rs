//! The paper's evaluation: every table, figure and ablation of
//! [`bench::paper::ARTIFACTS`], each shared input built once.
//!
//! Flags:
//! * `--only a,b,…` — print only these artifacts (still in index order).
//! * `--out <dir>` — also write `<name>.txt` per artifact and
//!   `BENCH_paper.json` (per-artifact and total wall-clock seconds) there.
//!
//! Stdout is byte-identical for any `IPFS_REPRO_JOBS` value. An unknown
//! flag or artifact name exits 2.

use bench::paper::{drive, Args};
use bench::RunConfig;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    drive(&args, RunConfig::from_env());
}
