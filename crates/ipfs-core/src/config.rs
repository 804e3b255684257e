//! Protocol constants. Every value is traceable to the paper (section cited
//! inline) or to the go-ipfs v0.10.0 behaviour the paper measured.
//!
//! A value lives in a config struct only while some caller sets it to
//! something other than its default; every other calibration value is a
//! constant here.

use simnet::SimDuration;

/// Node-level configuration.
#[derive(Debug, Clone, Copy)]
pub struct NodeConfig {
    /// Replication factor: provider records go to the k closest peers
    /// (§3.1, k = 20).
    pub replication: usize,
    /// Lookup concurrency α (§3.2, α = 3).
    pub alpha: usize,
    /// Provider-record republish interval (§3.1: 12 h).
    pub republish_interval: SimDuration,
    /// Provider-record expiry interval (§3.1: 24 h).
    pub expiry_interval: SimDuration,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            replication: 20,
            alpha: 3,
            republish_interval: SimDuration::from_hours(12),
            expiry_interval: SimDuration::from_hours(24),
        }
    }
}

/// Opportunistic-Bitswap probe window before falling back to the DHT
/// (§3.2: "content discovery falls back to the DHT with a timeout of
/// 1 second").
pub const BITSWAP_PROBE_TIMEOUT: SimDuration = SimDuration::from_secs(1);

/// Address-book capacity (§3.2: "an address book of up to 900 recently
/// seen peers").
pub const ADDRBOOK_CAPACITY: usize = 900;

/// Object chunk size (§2.1: 256 kB).
pub const CHUNK_SIZE: usize = 256 * 1024;

/// Per-RPC response timeout (go-ipfs dial+read deadline; bounds how long a
/// walk waits on a silent peer).
pub const RPC_TIMEOUT: SimDuration = SimDuration::from_secs(10);

// Transport timeouts. §6.1 attributes the spikes in the RPC-batch CDF
// (Figure 9c) to these: "the spike at 5 s is caused by dial timeouts on the
// transport level of the TCP and QUIC implementations, whereas the spike at
// 45 s is caused by the handshake timeout of the Websocket transport".

/// TCP/QUIC dial timeout (5 s).
pub const DIAL_TIMEOUT: SimDuration = SimDuration::from_secs(5);
/// WebSocket handshake timeout (45 s).
pub const WEBSOCKET_TIMEOUT: SimDuration = SimDuration::from_secs(45);
/// Probability that a failed dial burns the WebSocket path (and its 45 s
/// timeout) rather than the 5 s TCP/QUIC timeout.
pub const WEBSOCKET_SHARE: f64 = 0.09;
/// Probability that a failed dial errors fast (connection refused) instead
/// of timing out.
pub const FAST_REFUSE_SHARE: f64 = 0.35;
/// Latency of a fast connection-refused error.
pub const FAST_REFUSE_DELAY: SimDuration = SimDuration::from_millis(300);
const _: () = assert!(WEBSOCKET_SHARE + FAST_REFUSE_SHARE < 1.0);

/// Probability that the connection to a walk-discovered peer is gone by
/// the time the ADD_PROVIDER batch fires, forcing a fresh dial that fails
/// with a transport timeout. This models what §6.1 observed: "the spike at
/// 5 s is caused by dial timeouts ... the spike at 45 s ... by the
/// handshake timeout of the Websocket transport". 53.7 % of the paper's
/// batches exceeded 5 s, i.e. ≥1 of 20 stores timed out.
pub const STALE_DIAL_PROB: f64 = 0.045;

/// Server-side request processing time.
pub const SERVER_PROCESSING: SimDuration = SimDuration::from_millis(3);

/// Oracle-bootstrap: number of numerically-near peers per table.
pub const BOOTSTRAP_NEAR_PEERS: usize = 20;
const _: () = assert!(BOOTSTRAP_NEAR_PEERS >= 1);

/// Oracle-bootstrap: number of random far peers per table.
pub const BOOTSTRAP_RANDOM_PEERS: usize = 60;

/// Keyspace granularity of one reprovide-sweep batch: provided CIDs are
/// grouped by the top `REPROVIDE_BATCH_BITS` bits of their DHT key, one
/// Closest walk per non-empty group. 8 bits ≈ 256 neighborhoods across the
/// keyspace — coarser (fewer bits) amortizes more CIDs per walk but targets
/// each store set less precisely.
pub const REPROVIDE_BATCH_BITS: u8 = 8;
const _: () = assert!(REPROVIDE_BATCH_BITS >= 1 && REPROVIDE_BATCH_BITS <= 16);

/// Guard timeout for a content fetch.
pub const FETCH_TIMEOUT: SimDuration = SimDuration::from_secs(120);

/// Object size of the DHT performance experiment (§4.3: 0.5 MB).
pub const DHT_PERF_OBJECT_SIZE: usize = 512 * 1024;

/// Workload pulse interval per region of the sharded scale cell.
pub const SHARDSIM_TICK: SimDuration = SimDuration::from_millis(200);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = NodeConfig::default();
        assert_eq!(c.replication, 20);
        assert_eq!(c.alpha, 3);
        assert_eq!(BITSWAP_PROBE_TIMEOUT, SimDuration::from_secs(1));
        assert_eq!(ADDRBOOK_CAPACITY, 900);
        assert_eq!(c.republish_interval, SimDuration::from_hours(12));
        assert_eq!(c.expiry_interval, SimDuration::from_hours(24));
        assert_eq!(CHUNK_SIZE, 262_144);
    }

    #[test]
    fn timeout_model_matches_paper_spikes() {
        assert_eq!(DIAL_TIMEOUT, SimDuration::from_secs(5));
        assert_eq!(WEBSOCKET_TIMEOUT, SimDuration::from_secs(45));
        const { assert!(WEBSOCKET_SHARE + FAST_REFUSE_SHARE < 1.0) };
    }
}
