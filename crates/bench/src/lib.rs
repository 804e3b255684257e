//! Experiment harness: statistics, shared runners, the paper's evaluation
//! and the harnesses that measure the stack beyond it.
//!
//! [`paper::ARTIFACTS`] indexes every table, figure and ablation of the
//! paper's evaluation, each printed by the `paper` binary with the rows
//! and series the paper reports (DESIGN.md §5 maps each to its modules).
//!
//! Scale control: set `IPFS_REPRO_SCALE=paper` for populations and
//! iteration counts close to the paper's (slow), default is a scaled-down
//! run that preserves every distribution. Set `IPFS_REPRO_CSV_DIR=<dir>`
//! to additionally export machine-readable CSVs ([`export`]). All six
//! `IPFS_REPRO_*` knobs are parsed once per binary into a [`RunConfig`];
//! a value that is not accepted exits 2.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod export;
pub mod gateway_fleet;
pub mod latency;
pub mod lifecycle;
pub mod paper;
pub mod runner;
pub mod stats;
pub mod swarm;

pub use export::{fault_report, metrics_report, to_csv, write_csv, write_timeseries_csv, BenchDoc};
pub use runner::{RunConfig, Scale, ScaleConfig};
pub use stats::{cdf_points, pearson, percentile, Summary};
