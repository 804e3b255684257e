//! Experiment harness: statistics, shared runners, and the binaries that
//! regenerate every table and figure of the paper's evaluation.
//!
//! Each binary under `src/bin/` regenerates one artifact (see DESIGN.md §5
//! for the full index), printing the same rows/series the paper reports:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig04a_crawl_timeseries` | Fig. 4a — crawled peers over time |
//! | `fig04b_gateway_requests` | Fig. 4b — gateway requests per 5-min bin |
//! | `tab1_operation_counts`  | Table 1 — publications/retrievals per region |
//! | `fig05_geo_peers`        | Fig. 5 — peer geography |
//! | `fig06_geo_users`        | Fig. 6 — gateway-user geography |
//! | `fig07_peer_analysis`    | Fig. 7a–d — reliable/unreachable/peers-per-IP/AS |
//! | `tab2_top_ases`          | Table 2 — top ASes |
//! | `tab3_cloud_share`       | Table 3 — cloud-provider share |
//! | `fig08_churn_cdf`        | Fig. 8 — uptime CDFs by region |
//! | `fig09_dht_performance`  | Fig. 9a–f — publication/retrieval CDFs |
//! | `tab4_latency_percentiles` | Table 4 — per-region percentiles |
//! | `fig10_retrieval_stretch`  | Fig. 10a–b — retrieval stretch |
//! | `fig11_gateway_analysis`   | Fig. 11a–b — gateway latency/size/cache bins |
//! | `tab5_gateway_cache_tiers` | Table 5 — cache-tier latency and traffic |
//! | `tab_gateway_referrals`  | §6.3 — referred-traffic breakdown |
//! | `ablation_*`             | design-choice ablations (DESIGN.md §5), including NAT hosting via DCUtR and Hydra boosters |
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
pub mod runner;
pub mod stats;
pub mod swarm;

pub use export::{fault_report, metrics_report, to_csv, write_csv, write_timeseries_csv, BenchDoc};
pub use runner::{RunConfig, Scale, ScaleConfig};
pub use stats::{cdf_points, pearson, percentile, Summary};
