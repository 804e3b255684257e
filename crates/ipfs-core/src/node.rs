//! One IPFS node: identity, DHT behaviour, Bitswap engine, blockstore,
//! address book, IPNS store.
//!
//! The node is a passive composition — the network driver ([`crate::netsim`])
//! or a real transport feeds it events. Content import (Figure 3, step 1)
//! happens here because it is purely local: "After content has been
//! imported into the local IPFS instance, it is neither replicated nor
//! uploaded to any external server" (§3.1).

use crate::addrbook::AddressBook;
use crate::config::{NodeConfig, ADDRBOOK_CAPACITY, CHUNK_SIZE};
use crate::ipns::{ipns_value_selector, IpnsStore};
use bitswap::BitswapEngine;
use bytes::Bytes;
use kademlia::behaviour::DhtMode;
use kademlia::routing::PeerInfo;
use kademlia::{DhtBehaviour, DhtConfig};
use merkledag::{BuildReport, DagBuilder, MemoryBlockStore, Resolver};
use multiformats::{Cid, Keypair, Multiaddr, PeerId};
use std::sync::Arc;

/// A complete IPFS node.
pub struct IpfsNode {
    keypair: Keypair,
    /// Shared identity: RPC handlers and publish batches clone the `Arc`,
    /// not the address list.
    info: Arc<PeerInfo>,
    /// The Kademlia behaviour (routing table, record store, queries).
    pub dht: DhtBehaviour,
    /// The Bitswap engine (sessions, ledgers).
    pub bitswap: BitswapEngine,
    /// Local content-addressed storage.
    pub store: MemoryBlockStore,
    /// Recently-seen peer addresses (capacity 900, §3.2).
    pub addr_book: AddressBook,
    /// IPNS records known to this node.
    pub ipns: IpnsStore,
    /// The node's configuration.
    pub config: NodeConfig,
}

impl IpfsNode {
    /// Creates a node from its keypair, advertised addresses and DHT mode.
    pub fn new(
        keypair: Keypair,
        addrs: Vec<Multiaddr>,
        mode: DhtMode,
        config: NodeConfig,
    ) -> IpfsNode {
        let info = Arc::new(PeerInfo::new(keypair.peer_id(), addrs));
        let dht = DhtBehaviour::new(
            Arc::clone(&info),
            DhtConfig {
                mode,
                alpha: config.alpha,
                k: config.replication,
                // IPNS records travelling through PUT_VALUE are arbitrated
                // by signature validity + sequence number (§3.3).
                value_selector: Some(ipns_value_selector),
                provider_expiry: config.expiry_interval,
            },
        );
        IpfsNode {
            keypair,
            info,
            dht,
            bitswap: BitswapEngine::new(),
            store: MemoryBlockStore::new(),
            addr_book: AddressBook::new(ADDRBOOK_CAPACITY),
            ipns: IpnsStore::new(),
            config,
        }
    }

    /// The node's PeerID.
    pub fn peer_id(&self) -> &PeerId {
        &self.info.peer
    }

    /// The node's identity + addresses.
    pub fn info(&self) -> &Arc<PeerInfo> {
        &self.info
    }

    /// The node's keypair (for IPNS signing).
    pub fn keypair(&self) -> &Keypair {
        &self.keypair
    }

    /// Imports content into the local store: chunk (256 kiB), build the
    /// Merkle DAG, return the root CID (Figure 3, step 1). No network I/O.
    pub fn add_content(&mut self, data: &Bytes) -> BuildReport {
        let chunker = merkledag::FixedSizeChunker::new(CHUNK_SIZE);
        DagBuilder::new(&mut self.store)
            .add_with_chunker(data, &chunker)
            .expect("local import cannot fail")
    }

    /// Reads a fully fetched file back out of the local store, verifying
    /// every block.
    pub fn read_content(&mut self, root: &Cid) -> Result<Bytes, merkledag::Error> {
        Resolver::new(&mut self.store).read_file(root)
    }

    /// Whether the node currently holds every block of `root`'s DAG.
    pub fn has_content(&mut self, root: &Cid) -> bool {
        Resolver::new(&mut self.store).block_list(root).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(seed: u64) -> IpfsNode {
        IpfsNode::new(
            Keypair::from_seed(seed),
            vec!["/ip4/10.1.1.1/tcp/4001".parse().unwrap()],
            DhtMode::Server,
            NodeConfig::default(),
        )
    }

    #[test]
    fn import_then_read_roundtrip() {
        let mut n = node(1);
        let data = Bytes::from(vec![42u8; 700_000]); // ~0.7 MB -> 3 chunks
        let report = n.add_content(&data);
        assert_eq!(report.chunks, 3);
        assert!(n.has_content(&report.root));
        assert_eq!(n.read_content(&report.root).unwrap(), data);
    }

    #[test]
    fn import_is_local_only() {
        // No DHT queries, no bitswap traffic result from an import.
        let mut n = node(1);
        n.add_content(&Bytes::from_static(b"tiny"));
        assert_eq!(n.bitswap.ledger.total_sent(), 0);
        assert_eq!(n.dht.store().provider_entry_count(), 0);
    }

    #[test]
    fn half_mb_object_is_two_chunks() {
        // The paper's benchmark object: 0.5 MB (§4.3).
        let mut n = node(2);
        let report = n.add_content(&Bytes::from(vec![7u8; 512 * 1024]));
        assert_eq!(report.chunks, 2);
        assert_eq!(report.branch_nodes, 1);
    }

    #[test]
    fn identity_is_stable() {
        let a = node(3);
        let b = node(3);
        assert_eq!(a.peer_id(), b.peer_id());
        assert!(a.peer_id().certifies(&a.keypair().public()));
    }

    #[test]
    fn missing_content_detected() {
        let mut n = node(4);
        let foreign = Cid::from_raw_data(b"not here");
        assert!(!n.has_content(&foreign));
        assert!(n.read_content(&foreign).is_err());
    }
}
