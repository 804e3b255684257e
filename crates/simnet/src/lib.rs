//! Deterministic discrete-event network simulation substrate.
//!
//! The paper evaluates IPFS on the live public network from six AWS vantage
//! points (§4.3). That testbed cannot be reproduced offline, so this crate
//! provides the substitute substrate described in DESIGN.md §2: a
//! discrete-event simulator whose topology, latencies, peer population and
//! churn are parameterized by the paper's *own measured* distributions.
//!
//! - [`time`] — virtual time ([`SimTime`], [`SimDuration`]); nothing in the
//!   simulation ever consults a wall clock.
//! - [`engine`] — the event queue and scheduler; single-threaded and fully
//!   deterministic under a fixed seed.
//! - [`latency`] — an inter-region RTT/bandwidth model covering the six AWS
//!   regions of §4.3 plus the population zones of §5.1.
//! - [`geodb`] — synthetic geolocation: assigns IPs to countries, ASes
//!   (with CAIDA-style ranks) and cloud providers following Tables 2–3 and
//!   Figures 5–7 of the paper.
//! - [`population`] — generates the peer population: NAT share, peers-per-IP
//!   heavy tail, multihoming, region mix (§5.1–5.2).
//! - [`churn`] — region-dependent session/uptime model calibrated to §5.3
//!   (87.6 % of sessions < 8 h, 2.5 % > 24 h, per-region medians).
//! - [`shard`] — region-sharded deterministic parallel event execution
//!   (conservative lookahead from the latency floor; byte-identical to the
//!   serial path at any shard count).
//! - [`mix`] — the SplitMix64 and FNV-1a mixers behind every derived id,
//!   per-event seed and digest.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod churn;
pub mod engine;
pub mod geodb;
pub mod latency;
pub mod mix;
pub mod population;
pub mod shard;
pub mod time;

pub use churn::{ChurnModel, SessionSchedule};
pub use engine::{Engine, EventQueue, ScheduledEvent, SchedulerKind, TimerId};
pub use geodb::{AsInfo, CloudProvider, Country, GeoDb};
pub use latency::{LatencyModel, Region, VantagePoint};
pub use population::{LeanPopulation, Population, PopulationConfig, SimPeer};
pub use shard::{RegionEvent, ShardCtx, ShardedEngine};
pub use time::{SimDuration, SimTime};
