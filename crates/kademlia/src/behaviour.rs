//! Per-node DHT behaviour: request handling, query management, routing
//! table maintenance.
//!
//! [`DhtBehaviour`] composes a [`RoutingTable`], a [`RecordStore`] and a set
//! of in-flight [`IterativeQuery`]s behind a sans-io interface. A driver —
//! the discrete-event simulator in this workspace, or a real transport —
//! feeds it inbound RPCs and response/failure notifications, and flushes
//! the [`DhtOutput`]s it produces.
//!
//! The DHT client/server split (paper §2.3) lives here: a node in client
//! mode never answers RPCs and is never inserted into other peers' routing
//! tables, "thus speeding up the publication and retrieval processes".

use crate::key::Key;
use crate::query::{IterativeQuery, QueryOutcome, QueryStep, QueryTarget};
use crate::records::{PeerRecord, RecordStore, ValueRecord};
use crate::routing::{PeerInfo, RoutingTable, K};
use crate::rpc::{Request, Response};
use multiformats::PeerId;
use simnet::{SimDuration, SimTime};
use std::collections::HashMap;
use std::sync::Arc;

/// Handle for an in-flight query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u64);

/// Whether the node participates as a DHT server or client (paper §2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DhtMode {
    /// Publicly dialable: stores records, answers RPCs, appears in routing
    /// tables.
    Server,
    /// NAT'ed: only issues requests; never stores or serves.
    Client,
}

/// Decides whether a new opaque value replaces a stored one
/// (`select(new, old) == true` ⇒ replace). IPNS supplies a selector that
/// prefers validly-signed records with higher sequence numbers.
pub type ValueSelector = fn(&[u8], &[u8]) -> bool;

/// Node-level DHT configuration.
#[derive(Debug, Clone, Copy)]
pub struct DhtConfig {
    /// Server or client participation.
    pub mode: DhtMode,
    /// Lookup concurrency (α, default 3).
    pub alpha: usize,
    /// Replication / closeness parameter (k, default 20).
    pub k: usize,
    /// Arbitration for PUT_VALUE conflicts (None = last-writer-wins).
    pub value_selector: Option<ValueSelector>,
    /// Provider-record lifetime in this node's store (paper §3.1: 24 h;
    /// lifecycle harnesses scale it to their run length).
    pub provider_expiry: SimDuration,
}

impl Default for DhtConfig {
    fn default() -> Self {
        DhtConfig {
            mode: DhtMode::Server,
            alpha: crate::ALPHA,
            k: K,
            value_selector: None,
            provider_expiry: crate::records::PROVIDER_EXPIRY,
        }
    }
}

/// Driver-visible inputs (used by documentation/tests; drivers may call the
/// equivalent methods directly).
#[derive(Debug, Clone)]
pub enum DhtInput {
    /// An inbound RPC arrived.
    Rpc {
        /// Sender identity and addresses.
        from: Arc<PeerInfo>,
        /// Whether the sender is a DHT server (insertable into the table).
        from_is_server: bool,
        /// The request.
        request: Request,
    },
    /// A response to one of our query RPCs arrived.
    Response {
        /// The query it belongs to.
        query: QueryId,
        /// The responder.
        from: PeerId,
        /// The response payload.
        response: Response,
    },
    /// An outbound query RPC failed (timeout / unreachable).
    Failure {
        /// The query it belongs to.
        query: QueryId,
        /// The peer that failed.
        from: PeerId,
    },
}

/// Actions the behaviour asks its driver to perform.
#[derive(Debug, Clone)]
pub enum DhtOutput {
    /// Send `request` to `to` on behalf of `query`.
    SendRequest {
        /// Originating query.
        query: QueryId,
        /// Destination peer (with addresses if known).
        to: Arc<PeerInfo>,
        /// The request to send.
        request: Request,
    },
    /// A query finished.
    QueryDone {
        /// The completed query.
        query: QueryId,
        /// Its outcome.
        outcome: QueryOutcome,
        /// Final walk statistics, captured before the query is dropped.
        stats: QueryStats,
    },
}

/// Final statistics of a completed iterative walk, carried on
/// [`DhtOutput::QueryDone`] because the behaviour drops the query state the
/// moment it completes (so [`DhtBehaviour::query_stats`] can no longer
/// answer for it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// RPCs issued over the walk's lifetime.
    pub rpcs_sent: u64,
    /// Responses received.
    pub responses: u64,
    /// RPCs that failed (timeout / unreachable peer).
    pub failures: u64,
    /// Deepest hop reached from the seed set.
    pub max_hops: u32,
}

/// Events surfaced to the node that owns this behaviour.
#[derive(Debug, Clone)]
pub enum DhtEvent {
    /// A new peer was observed and added to the routing table.
    PeerAdded(PeerId),
}

/// The DHT behaviour of one node.
#[derive(Debug, Clone)]
pub struct DhtBehaviour {
    local: Arc<PeerInfo>,
    config: DhtConfig,
    routing: RoutingTable,
    store: RecordStore,
    queries: HashMap<QueryId, IterativeQuery>,
    next_query: u64,
}

impl DhtBehaviour {
    /// Creates the behaviour for a node identified by `local`.
    pub fn new(local: impl Into<Arc<PeerInfo>>, config: DhtConfig) -> DhtBehaviour {
        let local = local.into();
        let key = local.key();
        DhtBehaviour {
            local,
            config,
            routing: RoutingTable::new(key),
            store: RecordStore::with_expiry(config.provider_expiry),
            queries: HashMap::new(),
            next_query: 0,
        }
    }

    /// The local peer info.
    pub fn local(&self) -> &Arc<PeerInfo> {
        &self.local
    }

    /// The node's participation mode.
    pub fn mode(&self) -> DhtMode {
        self.config.mode
    }

    /// Switches mode (AutoNAT upgrade: client → server after enough
    /// dial-backs succeed, paper §2.3).
    pub fn set_mode(&mut self, mode: DhtMode) {
        self.config.mode = mode;
    }

    /// Read access to the routing table.
    pub fn routing(&self) -> &RoutingTable {
        &self.routing
    }

    /// Read access to the record store.
    pub fn store(&self) -> &RecordStore {
        &self.store
    }

    /// Drops expired provider records (24 h expiry, paper §3.1) and
    /// returns how many were removed, so drivers can meter expiries.
    pub fn expire_records(&mut self, now: SimTime) -> usize {
        self.store.expire(now)
    }

    /// Learns about a peer (bootstrap, identify, inbound traffic). Only
    /// servers enter the routing table, and never the local peer (its key
    /// has no bucket). Accepts owned or shared infos; hot paths pass
    /// `Arc`s so no address list is copied.
    pub fn add_peer(&mut self, info: impl Into<Arc<PeerInfo>>, is_server: bool) -> bool {
        is_server && self.routing.insert(info)
    }

    /// Learns about a server by its key and shared handle (`key` must be
    /// `info.key()`): the hot-path form of [`DhtBehaviour::add_peer`],
    /// which clones the handle only when the table stores it.
    pub fn add_server(&mut self, key: Key, info: &Arc<PeerInfo>) -> bool {
        self.routing.insert_shared(key, info)
    }

    /// Forgets a peer (failed dial) by its DHT key ([`PeerInfo::key`]).
    pub fn remove_peer(&mut self, key: &Key) {
        self.routing.remove(key);
    }

    /// Handles an inbound RPC, returning the response to send back (`None`
    /// for fire-and-forget requests and for nodes in client mode, which do
    /// not serve the DHT).
    pub fn handle_request(
        &mut self,
        from: &Arc<PeerInfo>,
        from_is_server: bool,
        request: Request,
        now: SimTime,
    ) -> Option<Response> {
        if self.config.mode == DhtMode::Client {
            return None;
        }
        // Learn the requester if it is itself a server.
        self.add_peer(Arc::clone(from), from_is_server);
        match request {
            Request::FindNode { target } => {
                Some(Response::Nodes { closer: self.routing.closest(&target, self.config.k) })
            }
            Request::GetProviders { key } => Some(Response::Providers {
                providers: self.store.providers(&key, now),
                closer: self.routing.closest(&key, self.config.k),
            }),
            Request::AddProvider { key, provider } => {
                self.store.add_provider_shared(key, &provider, now);
                None // fire and forget (§3.1)
            }
            Request::AddProviderBatch { keys, provider } => {
                self.store.add_batch(&keys, &provider, now);
                None // fire and forget, one message for the whole batch
            }
            Request::PutPeerRecord { addrs } => {
                self.store.put_peer_record(PeerRecord {
                    peer: from.peer.clone(),
                    addrs,
                    received_at: now,
                });
                Some(Response::Ack)
            }
            Request::PutValue { key, value } => {
                self.store.put_value(
                    ValueRecord { key, value, received_at: now },
                    self.config.value_selector,
                );
                Some(Response::Ack)
            }
            Request::GetValue { key } => Some(Response::Value {
                value: self.store.value(&key).map(|r| r.value.clone()),
                closer: self.routing.closest(&key, self.config.k),
            }),
        }
    }

    /// Starts a DHT walk toward `key`, seeded from the routing table.
    /// Returns the query id plus the initial batch of outputs.
    pub fn start_query(&mut self, key: Key, target: QueryTarget) -> (QueryId, Vec<DhtOutput>) {
        let id = QueryId(self.next_query);
        self.next_query += 1;
        let seeds = self.routing.closest(&key, self.config.k);
        let query = IterativeQuery::new(key, target, seeds)
            .with_alpha(self.config.alpha)
            .with_k(self.config.k);
        self.queries.insert(id, query);
        let outputs = self.pump(id);
        (id, outputs)
    }

    /// Feeds a response into its query and returns follow-up outputs.
    pub fn on_response(
        &mut self,
        id: QueryId,
        from: &PeerId,
        response: &Response,
    ) -> Vec<DhtOutput> {
        let Some(query) = self.queries.get_mut(&id) else {
            return Vec::new();
        };
        match response {
            Response::Nodes { closer } => query.on_response(from, closer, &[]),
            Response::Providers { providers, closer } => query.on_response(from, closer, providers),
            Response::Value { value, closer } => {
                query.on_response_with_value(from, closer, &[], value.as_deref())
            }
            Response::Ack => query.on_response(from, &[], &[]),
        }
        // Insert the responder's closer set — peers it only mentioned, which
        // may be offline — not the responder itself. A known deviation:
        // go-libp2p-kad-dht adds a peer to its table after it answers.
        for info in response.closer() {
            self.add_server(info.key(), info);
        }
        self.pump(id)
    }

    /// Feeds a failure into its query and returns follow-up outputs. The
    /// peer is identified by its cached key, so a failure hashes nothing.
    pub fn on_failure(&mut self, id: QueryId, from: &PeerInfo) -> Vec<DhtOutput> {
        let key = from.key();
        if let Some(query) = self.queries.get_mut(&id) {
            query.on_failure(&key);
        }
        // A peer that failed us gets dropped from the table.
        self.remove_peer(&key);
        self.pump(id)
    }

    /// Statistics of a live query (RPCs sent, responses, failures).
    pub fn query_stats(&self, id: QueryId) -> Option<(u64, u64, u64)> {
        self.queries.get(&id).map(|q| (q.rpcs_sent, q.responses, q.failures))
    }

    /// Pumps a query until it waits or completes.
    fn pump(&mut self, id: QueryId) -> Vec<DhtOutput> {
        let mut outputs = Vec::new();
        let Some(query) = self.queries.get_mut(&id) else {
            return outputs;
        };
        loop {
            match query.next_step() {
                QueryStep::Query(info) => {
                    let request = match query.target() {
                        QueryTarget::Closest => Request::FindNode { target: *query.target_key() },
                        QueryTarget::Providers => {
                            Request::GetProviders { key: *query.target_key() }
                        }
                        QueryTarget::Peer(_) => Request::FindNode { target: *query.target_key() },
                        QueryTarget::Value => Request::GetValue { key: *query.target_key() },
                    };
                    outputs.push(DhtOutput::SendRequest { query: id, to: info, request });
                }
                QueryStep::Wait => break,
                QueryStep::Done => {
                    let outcome = query.outcome();
                    let stats = QueryStats {
                        rpcs_sent: query.rpcs_sent,
                        responses: query.responses,
                        failures: query.failures,
                        max_hops: query.max_hops,
                    };
                    self.queries.remove(&id);
                    outputs.push(DhtOutput::QueryDone { query: id, outcome, stats });
                    break;
                }
            }
        }
        outputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multiformats::{Cid, Keypair};

    fn info(seed: u64) -> Arc<PeerInfo> {
        Arc::new(PeerInfo::new(Keypair::from_seed(seed).peer_id(), vec![]))
    }

    fn server(seed: u64) -> DhtBehaviour {
        DhtBehaviour::new(info(seed), DhtConfig::default())
    }

    #[test]
    fn clients_do_not_serve() {
        let mut client =
            DhtBehaviour::new(info(1), DhtConfig { mode: DhtMode::Client, ..Default::default() });
        let resp = client.handle_request(
            &info(2),
            true,
            Request::FindNode { target: Key::ZERO },
            SimTime::ZERO,
        );
        assert!(resp.is_none());
        assert_eq!(client.routing().len(), 0, "clients keep no routing table entries");
    }

    #[test]
    fn servers_answer_find_node_and_learn_requester() {
        let mut s = server(1);
        for seed in 10..40 {
            s.add_peer(info(seed), true);
        }
        let resp = s
            .handle_request(&info(2), true, Request::FindNode { target: Key::ZERO }, SimTime::ZERO)
            .unwrap();
        match resp {
            Response::Nodes { closer } => assert_eq!(closer.len(), 20),
            other => panic!("{other:?}"),
        }
        assert!(s.routing().contains(&info(2).peer), "requester learned");
    }

    #[test]
    fn nat_requesters_not_learned() {
        let mut s = server(1);
        s.handle_request(&info(2), false, Request::FindNode { target: Key::ZERO }, SimTime::ZERO);
        assert!(!s.routing().contains(&info(2).peer));
    }

    #[test]
    fn add_provider_stores_without_response() {
        let mut s = server(1);
        let key = Key::from_cid(&Cid::from_raw_data(b"data"));
        let resp = s.handle_request(
            &info(2),
            true,
            Request::AddProvider { key, provider: info(3) },
            SimTime::ZERO,
        );
        assert!(resp.is_none(), "ADD_PROVIDER is fire-and-forget");
        assert_eq!(s.store().providers(&key, SimTime::ZERO).len(), 1);
    }

    #[test]
    fn add_provider_batch_stores_every_key() {
        let mut s = server(1);
        let keys: Arc<[Key]> =
            (0u64..5).map(|n| Key::from_cid(&Cid::from_raw_data(&n.to_be_bytes()))).collect();
        let provider = info(3);
        let resp = s.handle_request(
            &info(2),
            true,
            Request::AddProviderBatch { keys: Arc::clone(&keys), provider: Arc::clone(&provider) },
            SimTime::ZERO,
        );
        assert!(resp.is_none(), "ADD_PROVIDER_BATCH is fire-and-forget");
        for k in keys.iter() {
            assert_eq!(s.store().providers(k, SimTime::ZERO).len(), 1);
        }
        assert_eq!(s.store().provider_entry_count(), 5);
        // The five records share one interned provider: the store holds
        // the handle the batch arrived with, once.
        assert_eq!(Arc::strong_count(&provider), 2);
    }

    #[test]
    fn get_providers_returns_stored_records() {
        let mut s = server(1);
        let key = Key::from_cid(&Cid::from_raw_data(b"data"));
        s.handle_request(
            &info(2),
            true,
            Request::AddProvider { key, provider: info(3) },
            SimTime::ZERO,
        );
        let resp =
            s.handle_request(&info(4), true, Request::GetProviders { key }, SimTime::ZERO).unwrap();
        match resp {
            Response::Providers { providers, .. } => {
                assert_eq!(providers.len(), 1);
                assert_eq!(providers[0].provider, info(3).peer);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn put_peer_record_acked_and_stored() {
        let mut s = server(1);
        let addr: multiformats::Multiaddr = "/ip4/8.8.8.8/tcp/4001".parse().unwrap();
        let resp = s.handle_request(
            &info(2),
            true,
            Request::PutPeerRecord { addrs: vec![addr.clone()] },
            SimTime::ZERO,
        );
        assert_eq!(resp, Some(Response::Ack));
        assert_eq!(s.store().peer_record(&info(2).peer).unwrap().addrs, vec![addr]);
    }

    #[test]
    fn query_lifecycle_against_two_behaviours() {
        // Node A knows node B; B knows 50 peers. A's FindClosest query must
        // fan out through B and terminate.
        let mut a = server(1);
        let mut b = server(2);
        for seed in 100..150 {
            b.add_peer(info(seed), true);
        }
        a.add_peer(b.local().clone(), true);

        let key = Key::from_cid(&Cid::from_raw_data(b"walk me"));
        let (qid, mut outputs) = a.start_query(key, QueryTarget::Closest);
        let mut done = None;
        let mut guard = 0;
        while let Some(out) = outputs.pop() {
            guard += 1;
            assert!(guard < 10_000);
            match out {
                DhtOutput::SendRequest { query, to, request } => {
                    // Peers other than B do not exist: fail them.
                    let follow = if to.peer == b.local().peer {
                        let resp = b
                            .handle_request(a.local(), true, request, SimTime::ZERO)
                            .expect("server responds");
                        a.on_response(query, &to.peer, &resp)
                    } else {
                        a.on_failure(query, &to)
                    };
                    outputs.extend(follow);
                }
                DhtOutput::QueryDone { query, outcome, stats } => {
                    assert_eq!(query, qid);
                    assert!(stats.rpcs_sent > 0, "walk issued at least one RPC");
                    assert_eq!(stats.responses, 1, "only B responded");
                    done = Some(outcome);
                }
            }
        }
        match done.expect("query completes") {
            QueryOutcome::Closest(peers) => {
                // Only B actually responded, so it is the only entry.
                assert_eq!(peers.len(), 1);
                assert_eq!(peers[0].peer, b.local().peer);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn failed_peer_removed_from_table() {
        let mut a = server(1);
        a.add_peer(info(2), true);
        let key = Key::ZERO;
        let (qid, outputs) = a.start_query(key, QueryTarget::Closest);
        assert!(!outputs.is_empty());
        a.on_failure(qid, &info(2));
        assert!(!a.routing().contains(&info(2).peer));
    }

    #[test]
    fn query_with_empty_table_completes_immediately() {
        let mut a = server(1);
        let (qid, outputs) = a.start_query(Key::ZERO, QueryTarget::Providers);
        assert_eq!(outputs.len(), 1);
        match &outputs[0] {
            DhtOutput::QueryDone { query, outcome, stats } => {
                assert_eq!(*query, qid);
                assert_eq!(*outcome, QueryOutcome::Exhausted);
                assert_eq!(stats.rpcs_sent, 0, "no peers to ask");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn autonat_mode_upgrade() {
        let mut n =
            DhtBehaviour::new(info(1), DhtConfig { mode: DhtMode::Client, ..Default::default() });
        assert_eq!(n.mode(), DhtMode::Client);
        n.set_mode(DhtMode::Server);
        assert_eq!(n.mode(), DhtMode::Server);
        // Now it serves.
        let resp = n.handle_request(
            &info(2),
            true,
            Request::FindNode { target: Key::ZERO },
            SimTime::ZERO,
        );
        assert!(resp.is_some());
    }
}
