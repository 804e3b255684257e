//! Operation state machines and timing reports.
//!
//! Every publish/retrieve run through the simulated network produces a
//! phase-by-phase timing report. These reports are the raw data behind the
//! paper's Figure 9 (publication: overall / DHT walk / RPC batch;
//! retrieval: overall / DHT walks / fetch), Table 4 (per-region
//! percentiles) and Figure 10 (retrieval stretch).

use crate::ipns::IpnsRecord;
use multiformats::{Cid, PeerId};
use simnet::{SimDuration, SimTime};

/// Identifier of an operation within one simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub u64);

/// Phases of a publication (paper Figure 3, steps 1–3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum PublishPhase {
    /// DHT walk to find the k closest peers to the CID.
    Walk,
    /// Fire-and-forget ADD_PROVIDER batch; counts outstanding items.
    RpcBatch {
        /// Items not yet settled (delivered or timed out).
        outstanding: usize,
        /// Items that reached a live peer.
        stored: usize,
    },
}

/// Phases of a retrieval (paper Figure 3, steps 4–6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum RetrievePhase {
    /// Opportunistic Bitswap broadcast to connected peers (1 s budget).
    BitswapProbe,
    /// First DHT walk: find a provider record.
    ProviderWalk,
    /// Second DHT walk: resolve the provider's PeerID to addresses.
    PeerWalk,
    /// Dial the provider and exchange blocks.
    Fetch,
}

/// Timing report for one publication.
#[derive(Debug, Clone)]
pub struct PublishReport {
    /// Operation id.
    pub op: OpId,
    /// Publishing node's index.
    pub node: usize,
    /// The published CID.
    pub cid: Cid,
    /// When the operation started.
    pub started_at: SimTime,
    /// Total duration: walk + RPC batch (§6.1 "Overall Delay").
    pub total: SimDuration,
    /// DHT-walk component (Figure 9b) — on average 87.9 % of the total in
    /// the paper.
    pub dht_walk: SimDuration,
    /// ADD_PROVIDER batch component (Figure 9c).
    pub rpc_batch: SimDuration,
    /// Provider records that reached a live peer (target: 20).
    pub records_stored: usize,
    /// FIND_NODE RPCs issued by the walk.
    pub walk_rpcs: u64,
    /// Walk RPCs that failed (timeout / unreachable).
    pub walk_failures: u64,
    /// Whether the walk found any peers to store on.
    pub success: bool,
}

/// Timing report for one IPNS name publication (§3.3): a Closest walk to
/// the name's key followed by a PUT_VALUE batch.
#[derive(Debug, Clone)]
pub struct IpnsPublishReport {
    /// Operation id.
    pub op: OpId,
    /// Publishing node.
    pub node: usize,
    /// The IPNS name.
    pub name: PeerId,
    /// Total duration.
    pub total: SimDuration,
    /// DHT-walk component.
    pub dht_walk: SimDuration,
    /// Records that reached a live server.
    pub records_stored: usize,
    /// Whether any record was stored.
    pub success: bool,
}

/// Timing report for one IPNS resolution (§3.3): a Value walk.
#[derive(Debug, Clone)]
pub struct IpnsResolveReport {
    /// Operation id.
    pub op: OpId,
    /// Resolving node.
    pub node: usize,
    /// The name resolved.
    pub name: PeerId,
    /// Total duration.
    pub total: SimDuration,
    /// The validated record, if resolution succeeded.
    pub record: Option<IpnsRecord>,
    /// Whether a valid record was obtained.
    pub success: bool,
}

/// Timing report for one retrieval.
#[derive(Debug, Clone)]
pub struct RetrieveReport {
    /// Operation id.
    pub op: OpId,
    /// Retrieving node's index.
    pub node: usize,
    /// The requested CID.
    pub cid: Cid,
    /// When the operation started.
    pub started_at: SimTime,
    /// Total duration (§6.2 "Overall delay").
    pub total: SimDuration,
    /// Opportunistic-Bitswap phase (1 s timeout unless a neighbour had the
    /// content, §3.2).
    pub bitswap_probe: SimDuration,
    /// First DHT walk (provider record), Figure 9e.
    pub provider_walk: SimDuration,
    /// Second DHT walk (peer record), Figure 9e.
    pub peer_walk: SimDuration,
    /// Dial + content exchange (Figure 9f).
    pub fetch: SimDuration,
    /// Bytes of content fetched.
    pub bytes: u64,
    /// Whether the content arrived and verified.
    pub success: bool,
    /// Whether the opportunistic Bitswap phase satisfied the request
    /// (skipping the DHT entirely).
    pub via_bitswap: bool,
    /// Whether the address book skipped the second walk (§3.2).
    pub addrbook_hit: bool,
}

impl RetrieveReport {
    /// Total "Discover" time: everything before dial+fetch (equation 2).
    pub fn discover(&self) -> SimDuration {
        self.bitswap_probe + self.provider_walk + self.peer_walk
    }

    /// Retrieval stretch (paper equation 1/2):
    /// `total / (total − discover)` — IPFS time over estimated HTTPS time.
    pub fn stretch(&self) -> f64 {
        let denom = self.total.saturating_sub(self.discover()).as_secs_f64();
        if denom <= 0.0 {
            return f64::INFINITY;
        }
        self.total.as_secs_f64() / denom
    }

    /// Stretch with the initial Bitswap timeout removed (Figure 10b):
    /// `(total − bitswap) / (total − discover)`.
    pub fn stretch_without_bitswap(&self) -> f64 {
        let denom = self.total.saturating_sub(self.discover()).as_secs_f64();
        if denom <= 0.0 {
            return f64::INFINITY;
        }
        self.total.saturating_sub(self.bitswap_probe).as_secs_f64() / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(bitswap_ms: u64, walks_ms: u64, fetch_ms: u64) -> RetrieveReport {
        RetrieveReport {
            op: OpId(0),
            node: 0,
            cid: Cid::from_raw_data(b"x"),
            started_at: SimTime::ZERO,
            total: SimDuration::from_millis(bitswap_ms + walks_ms + fetch_ms),
            bitswap_probe: SimDuration::from_millis(bitswap_ms),
            provider_walk: SimDuration::from_millis(walks_ms / 2),
            peer_walk: SimDuration::from_millis(walks_ms - walks_ms / 2),
            fetch: SimDuration::from_millis(fetch_ms),
            bytes: 512 * 1024,
            success: true,
            via_bitswap: false,
            addrbook_hit: false,
        }
    }

    #[test]
    fn stretch_matches_equation() {
        // 1s bitswap + 1s walks + 0.5s fetch: discover = 2s, https = 0.5s.
        let r = report(1000, 1000, 500);
        assert!((r.stretch() - 5.0).abs() < 1e-9);
        // Without bitswap: (2.5 - 1.0) / 0.5 = 3.
        assert!((r.stretch_without_bitswap() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn stretch_of_pure_fetch_is_one() {
        let r = report(0, 0, 700);
        assert!((r.stretch() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn discover_sums_phases() {
        let r = report(1000, 800, 200);
        assert_eq!(r.discover(), SimDuration::from_millis(1800));
    }

    #[test]
    fn degenerate_zero_fetch_is_infinite() {
        let r = report(1000, 500, 0);
        assert!(r.stretch().is_infinite());
    }
}
