//! DHT RPC request/response types.
//!
//! The wire protocol of the walk: FIND_NODE drives peer discovery and the
//! publication walk, GET_PROVIDERS drives content discovery, ADD_PROVIDER
//! stores provider records "fire and forget" (paper §3.1), and
//! PUT_PEER_RECORD publishes the peer's own address mapping (§3.1: "A peer
//! must also publish its peer record").

use crate::key::Key;
use crate::records::ProviderRecord;
use crate::routing::PeerInfo;
use multiformats::Multiaddr;
use std::sync::Arc;

/// A request sent to a DHT server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// "Give me the `k` peers you know closest to `target`."
    FindNode {
        /// The key being walked toward.
        target: Key,
    },
    /// "Who provides `key`?" — returns provider records if the server has
    /// them, and closer peers either way (paper §3.2).
    GetProviders {
        /// DHT key of the wanted CID.
        key: Key,
    },
    /// "Store: `provider` serves `key`" — the publication RPC (§3.1).
    AddProvider {
        /// DHT key of the provided CID.
        key: Key,
        /// The provider and its addresses (shared: republish loops send the
        /// same info to k servers).
        provider: Arc<PeerInfo>,
    },
    /// "Store: `provider` serves all of `keys`" — the batched publication
    /// RPC the reprovide sweep uses: when many provided CIDs share the
    /// same closest-peer neighborhood, one message carries every key
    /// instead of one ADD_PROVIDER per CID (go-ipfs's accelerated DHT
    /// client does the same to survive million-record reprovides).
    AddProviderBatch {
        /// DHT keys of the provided CIDs (sorted by keyspace order). One
        /// shared slice: the sender hands the same `Arc` to each of the k
        /// servers it stores at, and the receiving store keeps it as the
        /// batch's expiry deadline.
        keys: Arc<[Key]>,
        /// The provider and its addresses (shared across the batch).
        provider: Arc<PeerInfo>,
    },
    /// "Store my peer record" (PeerID → Multiaddresses, §3.1).
    PutPeerRecord {
        /// Addresses of the sender.
        addrs: Vec<Multiaddr>,
    },
    /// "Store this opaque value under this key" — how signed IPNS records
    /// reach the DHT (§3.3). Validation happens at the receiving node.
    PutValue {
        /// The storage key (e.g. SHA-256 of the IPNS name).
        key: Key,
        /// The opaque, self-validating payload.
        value: Vec<u8>,
    },
    /// "What value is stored under this key?"
    GetValue {
        /// The key being resolved.
        key: Key,
    },
}

impl Request {
    /// Short name for logs and metrics.
    pub fn name(&self) -> &'static str {
        match self {
            Request::FindNode { .. } => "FIND_NODE",
            Request::GetProviders { .. } => "GET_PROVIDERS",
            Request::AddProvider { .. } => "ADD_PROVIDER",
            Request::AddProviderBatch { .. } => "ADD_PROVIDER_BATCH",
            Request::PutPeerRecord { .. } => "PUT_PEER_RECORD",
            Request::PutValue { .. } => "PUT_VALUE",
            Request::GetValue { .. } => "GET_VALUE",
        }
    }

    /// Whether the sender expects a response. ADD_PROVIDER (and its
    /// batched form) is fire and forget (§3.1: "The process does not wait
    /// for a response ... which will become relevant in the performance
    /// evaluation").
    pub fn expects_response(&self) -> bool {
        !matches!(self, Request::AddProvider { .. } | Request::AddProviderBatch { .. })
    }
}

/// A response from a DHT server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Closer peers toward the requested target.
    Nodes {
        /// Up to `k` peers closer to the target, with addresses. Entries
        /// are shared with the responder's routing table (no deep copy).
        closer: Vec<Arc<PeerInfo>>,
    },
    /// Provider records (possibly empty) plus closer peers.
    Providers {
        /// Known unexpired provider records for the key.
        providers: Vec<ProviderRecord>,
        /// Up to `k` closer peers to continue the walk.
        closer: Vec<Arc<PeerInfo>>,
    },
    /// The stored value for a GET_VALUE (if any) plus closer peers.
    Value {
        /// The opaque payload, if this server holds one.
        value: Option<Vec<u8>>,
        /// Up to `k` closer peers to continue the walk.
        closer: Vec<Arc<PeerInfo>>,
    },
    /// Acknowledgement for store operations that do get responses.
    Ack,
}

impl Response {
    /// The closer-peers set carried by this response (empty for `Ack`).
    pub fn closer(&self) -> &[Arc<PeerInfo>] {
        match self {
            Response::Nodes { closer } => closer,
            Response::Providers { closer, .. } => closer,
            Response::Value { closer, .. } => closer,
            Response::Ack => &[],
        }
    }

    /// How many onward references the handler computed: closer peers plus
    /// any provider records. This is the walk fan-out a server-side trace
    /// span records — the remote work hidden inside the requester's RPC
    /// round trip.
    pub fn forwarded_hops(&self) -> u64 {
        let providers = match self {
            Response::Providers { providers, .. } => providers.len(),
            _ => 0,
        };
        (self.closer().len() + providers) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multiformats::Cid;

    #[test]
    fn add_provider_is_fire_and_forget() {
        let key = Key::from_cid(&Cid::from_raw_data(b"x"));
        let provider =
            Arc::new(PeerInfo::new(multiformats::Keypair::from_seed(1).peer_id(), vec![]));
        assert!(!Request::AddProvider { key, provider: provider.clone() }.expects_response());
        assert!(!Request::AddProviderBatch { keys: Arc::new([key]), provider }.expects_response());
        assert!(Request::FindNode { target: key }.expects_response());
        assert!(Request::GetProviders { key }.expects_response());
    }

    #[test]
    fn names() {
        let key = Key::ZERO;
        assert_eq!(Request::FindNode { target: key }.name(), "FIND_NODE");
        assert_eq!(Request::GetProviders { key }.name(), "GET_PROVIDERS");
    }

    #[test]
    fn response_closer_accessor() {
        let p = Arc::new(PeerInfo::new(multiformats::Keypair::from_seed(2).peer_id(), vec![]));
        assert_eq!(Response::Nodes { closer: vec![p.clone()] }.closer().len(), 1);
        assert_eq!(Response::Providers { providers: vec![], closer: vec![p] }.closer().len(), 1);
        assert!(Response::Ack.closer().is_empty());
    }

    #[test]
    fn forwarded_hops_counts_closer_peers_and_providers() {
        let p = Arc::new(PeerInfo::new(multiformats::Keypair::from_seed(3).peer_id(), vec![]));
        let rec = ProviderRecord {
            key: Key::ZERO,
            provider: multiformats::Keypair::from_seed(4).peer_id(),
            addrs: vec![],
            received_at: simnet::SimTime::ZERO,
        };
        assert_eq!(Response::Nodes { closer: vec![p.clone(), p.clone()] }.forwarded_hops(), 2);
        assert_eq!(
            Response::Providers { providers: vec![rec], closer: vec![p] }.forwarded_hops(),
            2
        );
        assert_eq!(Response::Ack.forwarded_hops(), 0);
    }
}
