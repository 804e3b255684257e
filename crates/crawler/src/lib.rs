//! Measurement tooling: the DHT crawler and the churn monitor of §4.1.
//!
//! "We implement a crawler to gather a comprehensive list of all peers
//! that are engaged in the DHT. ... The crawler recursively asks peers in
//! the network for all entries in their k-buckets starting from the six
//! well-known default IPFS bootstrap peers until it finds no new entries."
//!
//! "To quantify peer uptime, we periodically revisit all previously
//! discovered and online peers and measure their session lengths. ... we
//! select an interval of 0.5x the observed uptime, starting at a minimum
//! of 30 seconds and ending at a maximum of 15 minutes."
//!
//! - [`crawl`] — recursive k-bucket enumeration over a simulated network,
//!   producing the per-snapshot peer counts of Figure 4a and the
//!   geographic/AS breakdowns of Figures 5 and 7.
//! - [`monitor`] — the adaptive-interval uptime prober behind Figure 7a/7b
//!   and the session-length CDFs of Figure 8 (including the probing
//!   quantization that gives Figure 8 its step shape).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod crawl;
pub mod monitor;

pub use crawl::{CrawlSnapshot, CrawledPeer, Crawler};
pub use monitor::{ChurnMonitor, MonitorConfig, SessionObservation, UptimeSummary};
