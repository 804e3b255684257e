//! IPFS HTTP gateways: the browser-facing bridge into the P2P network
//! (paper §3.4, evaluated in §6.3).
//!
//! "Our gateway implementation acts as a bridge: on one side is a DHT
//! Server node, and on the other side is an nginx HTTP web server. ...
//! Each gateway server runs two forms of content storage: (i) the default
//! nginx web cache, with a Least Recently Used replacement strategy; and
//! (ii) The IPFS node store, which holds content manually uploaded by the
//! Web3 and NFT Storage Initiatives."
//!
//! - [`cache`] — the byte-bounded LRU web cache (the "nginx" tier).
//! - [`admission`] — TinyLFU admission (count-min sketch + doorkeeper).
//! - [`gateway`] — the multi-tier gateway bound to a simulated network,
//!   with singleflight coalescing and negative caching.
//! - [`fleet`] — N gateways behind a deterministic load balancer with
//!   health-based failover; a lone gateway is a fleet of one, so this is
//!   the one serve loop.
//! - [`workload`] — the diurnal, Zipf-popularity request generator
//!   calibrated to the paper's gateway trace (§4.2: 7.1 M requests, 101 k
//!   users, 274 k unique CIDs, 6.57 TB; Figures 4b, 6, 11; Table 5),
//!   with an optional flash-crowd shock term.
//! - [`log`] — access-log records and time-binning helpers.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod cache;
pub mod fleet;
pub mod gateway;
pub mod log;
pub mod workload;

pub use admission::{TinyLfu, TinyLfuConfig};
pub use cache::LruWebCache;
pub use fleet::{FleetConfig, FleetLogEntry, GatewayFleet, LbPolicy};
pub use gateway::{AdmissionPolicy, Gateway, GatewayConfig, ServedBy};
pub use log::{AccessLogEntry, RequestBins};
pub use workload::{GatewayWorkload, ShockConfig, WorkloadConfig};
