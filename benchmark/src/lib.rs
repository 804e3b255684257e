//! The repo benchmark: five workloads, end-to-end metrics, per-layer
//! probes and a traced run. `README.md` beside `Cargo.toml` is the manual.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod json;
pub mod metrics;
pub mod probes;
pub mod provenance;
pub mod runner;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod workloads;
