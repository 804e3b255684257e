//! The IPFS node and network: the paper's primary contribution, assembled.
//!
//! This crate composes the substrates — `multiformats`, `merkledag`,
//! `kademlia`, `bitswap`, `simnet` — into complete IPFS nodes and a
//! simulated network of them, implementing the publication and retrieval
//! pipelines of §3 of *Design and Evaluation of IPFS* (SIGCOMM '22):
//!
//! **Publication** (Figure 3, steps 1–3): import content → allocate CID →
//! DHT walk to the 20 closest peers → fire-and-forget ADD_PROVIDER batch.
//!
//! **Retrieval** (Figure 3, steps 4–6): opportunistic Bitswap broadcast
//! with a 1 s timeout → DHT walk for the provider record → second DHT walk
//! for the peer record (unless the 900-entry address book short-circuits
//! it) → dial the provider → Bitswap content exchange → per-block hash
//! verification.
//!
//! Modules:
//! - [`config`] — protocol constants, every one traceable to the paper.
//! - [`addrbook`] — the 900-entry recently-seen address book (§3.2).
//! - [`conn`] — arena-backed warm-connection sets with intrusive LRU
//!   order (the per-node connection state of the simulation).
//! - [`ipns`] — mutable naming: signed, sequenced pointer records (§3.3).
//! - [`autonat`] — the dial-back protocol that splits clients from servers
//!   (§2.3).
//! - [`node`] — one IPFS node: identity + DHT + Bitswap + blockstore.
//! - [`netsim`] — the network simulation driver: delivers RPCs with
//!   geo latency, models dial timeouts, churn, and connection state. One
//!   private module per protocol layer: `transport` (dials, connection
//!   manager, DCUtR, AutoNAT), `dht` (bootstrap, refresh, query RPCs,
//!   fire-and-forget stores), `exchange` (Bitswap sessions), `reprovide`
//!   (republish chains and the sweep), `faults`, `lifecycle` (publish,
//!   retrieve and IPNS ops) and `obs_hooks` (hot metrics, tracer glue).
//! - [`ops`] — the publish/retrieve operation state machines and their
//!   phase-by-phase timing reports (the data behind Figures 9 and 10).
//! - [`pinning`] — pinning services: third-party hosts that publish on
//!   behalf of NAT'ed users (§3.1).
//! - [`experiment`] — the six-vantage-point DHT performance experiment of
//!   §4.3 (Table 1, Table 4, Figures 9–10).
//! - [`obs`] — observability: the metrics registry and the one trace
//!   recorder threaded through the simulation.
//! - [`shardsim`] — the scale substrate: a struct-of-arrays IPFS cell on
//!   the region-sharded deterministic PDES engine (100k+-node worlds).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod addrbook;
pub mod autonat;
pub mod config;
pub mod conn;
pub mod experiment;
pub mod ipns;
pub mod netsim;
pub mod node;
pub mod obs;
pub mod ops;
pub mod pinning;
pub mod shardsim;

pub use addrbook::AddressBook;
pub use autonat::{AutonatState, AutonatVerdict};
pub use config::NodeConfig;
pub use conn::ConnSet;
pub use experiment::{DhtPerfConfig, DhtPerfExperiment, DhtPerfResults};
pub use ipns::{IpnsRecord, IpnsStore};
pub use netsim::{IpfsNetwork, NetworkConfig, NodeId};
pub use node::IpfsNode;
pub use obs::span::{CriticalHop, LatencyBreakdown, Span, SpanTree};
pub use obs::timeseries::TimeSeries;
pub use obs::{
    DialClass, HistogramMode, HistogramStats, MetricsRegistry, OpTrace, StreamingHistogram,
    TraceConfig, TraceEvent, TraceEventKind, TraceLevel, Tracer,
};
pub use ops::{OpId, PublishReport, RetrieveReport};
pub use pinning::{PinReceipt, PinningService};
pub use shardsim::{ShardSim, ShardSimConfig, ShardSimResult};
