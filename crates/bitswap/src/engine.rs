//! The sans-io Bitswap engine: serves inbound wants and runs client
//! sessions that fetch whole DAGs.
//!
//! A *session* ([`crate::session::Session`]) fetches the DAG rooted at one
//! CID from a set of candidate peers. For every missing block it performs
//! the three-step exchange of §3.2 (WANT-HAVE → HAVE → WANT-BLOCK →
//! BLOCK), discovering new wants as branch nodes arrive and their links
//! decode, splitting live wants across the best-scoring peers, and
//! re-queueing wants when a peer reneges or crashes. Every received block
//! is verified against its CID before it is stored — the
//! self-certification property (§2.1) means no provider needs to be
//! trusted.
//!
//! The engine is the session's stateful shell: it owns the sessions,
//! stamps every outbound message into the ledgers and per-type counters,
//! answers the server side of the protocol, and routes inbound client
//! messages to the owning session. A driver feeds it a clock
//! ([`BitswapEngine::set_clock`]) so sessions can score per-peer response
//! latency; without one, all samples read zero and peer selection falls
//! back to join-shortest-queue order.
//!
//! Sessions are kept in creation order, and the oldest matching session
//! always wins a routing decision, so the message sequence is a pure
//! function of the call sequence. Two indexes keep routing from scanning
//! every session the node ever ran (go-bitswap's session interest
//! manager, cut down):
//!
//! - `wanting` holds exactly the sessions with outstanding wants. An
//!   inbound HAVE, DONT_HAVE or BLOCK belongs to the first of them that
//!   wants its CID; a session with no outstanding wants cannot hold one.
//! - `by_peer` maps each peer to the sorted handles of the sessions whose
//!   candidate list names it, removed candidates included. A disconnect
//!   visits exactly those sessions.

use crate::ledger::Ledger;
use crate::message::Message;
use crate::session::{Session, SessionConfig, SessionStats};
use bytes::Bytes;
use merkledag::{BlockStore, DagNode};
use multiformats::{Cid, Multicodec, PeerId};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

/// Handle for a client fetch session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionHandle(pub u64);

/// Actions the engine asks its driver to perform, and events it reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineOutput {
    /// Send `message` to `to`.
    Send {
        /// Destination peer.
        to: PeerId,
        /// The message.
        message: Message,
    },
    /// A session obtained and verified a block.
    BlockStored {
        /// The session.
        session: SessionHandle,
        /// The block's CID.
        cid: Cid,
    },
    /// A session received a block it had already fetched (e.g. the slower
    /// target of a duplicate-factor race, or a re-routed want whose
    /// original target delivered after all).
    DuplicateBlock {
        /// The session the duplicate is attributed to.
        session: SessionHandle,
    },
    /// A session has every block of its DAG.
    SessionComplete {
        /// The finished session.
        session: SessionHandle,
    },
    /// Every candidate peer denied having `cid`; the caller must find
    /// providers (DHT fallback, §3.2) and [`BitswapEngine::add_session_peer`].
    WantFailed {
        /// The session.
        session: SessionHandle,
        /// The unfindable block.
        cid: Cid,
    },
}

/// Public snapshot of a session's progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionState {
    /// Wants still outstanding.
    pub outstanding: usize,
    /// Blocks received and verified.
    pub received: u64,
    /// Duplicates discarded.
    pub duplicates: u64,
    /// Whether the DAG is fully fetched.
    pub complete: bool,
    /// WANT-BLOCK requests sent.
    pub wants_sent: u64,
    /// Wants re-queued to another peer after a renege or crash.
    pub reroutes: u64,
    /// Candidate peers the session knows (including crashed ones).
    pub peers: usize,
}

/// Per-message-type counters kept by the engine, one direction each
/// (§3.2's WANT-HAVE / HAVE / DONT-HAVE / WANT-BLOCK / BLOCK exchange,
/// plus CANCEL).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MessageCounts {
    /// WANT-HAVE messages.
    pub want_have: u64,
    /// HAVE messages.
    pub have: u64,
    /// DONT-HAVE messages.
    pub dont_have: u64,
    /// WANT-BLOCK messages.
    pub want_block: u64,
    /// BLOCK messages.
    pub block: u64,
    /// CANCEL messages.
    pub cancel: u64,
}

impl MessageCounts {
    /// Bumps the counter matching `message`'s type.
    pub fn bump(&mut self, message: &Message) {
        match message {
            Message::WantHave(_) => self.want_have += 1,
            Message::Have(_) => self.have += 1,
            Message::DontHave(_) => self.dont_have += 1,
            Message::WantBlock(_) => self.want_block += 1,
            Message::Block { .. } => self.block += 1,
            Message::Cancel(_) => self.cancel += 1,
        }
    }

    /// Total messages counted.
    pub fn total(&self) -> u64 {
        self.want_have + self.have + self.dont_have + self.want_block + self.block + self.cancel
    }
}

/// The per-node Bitswap engine (client sessions + server side + ledgers).
#[derive(Debug, Clone, Default)]
pub struct BitswapEngine {
    /// Live sessions; iteration order is creation order.
    sessions: BTreeMap<SessionHandle, Session>,
    /// Exactly the sessions with `outstanding() > 0` (kept by `sync`).
    wanting: BTreeSet<SessionHandle>,
    /// Peer -> sorted handles of the sessions whose candidate list names
    /// it. Entries are never freed: the map is bounded by distinct peers.
    by_peer: HashMap<PeerId, Vec<SessionHandle>>,
    next_session: u64,
    /// Driver-supplied clock in nanoseconds, for per-peer latency scoring.
    clock_nanos: u64,
    /// Exchange ledgers (public for inspection by stats code).
    pub ledger: Ledger,
    /// Messages this engine has emitted, by type.
    pub counts_sent: MessageCounts,
    /// Messages this engine has consumed, by type.
    pub counts_received: MessageCounts,
}

impl BitswapEngine {
    /// Creates an engine.
    pub fn new() -> BitswapEngine {
        BitswapEngine::default()
    }

    /// Advances the engine's clock (nanoseconds of the driver's choice of
    /// epoch). Sessions stamp WANT-BLOCKs with it and score each peer's
    /// response latency on delivery.
    pub fn set_clock(&mut self, now_nanos: u64) {
        self.clock_nanos = now_nanos;
    }

    /// Starts a session fetching the DAG rooted at `root` from `peers`
    /// with the default [`SessionConfig`]. Blocks already present locally
    /// are walked without network traffic.
    pub fn start_session<S: BlockStore>(
        &mut self,
        root: Cid,
        peers: Vec<PeerId>,
        store: &mut S,
    ) -> (SessionHandle, Vec<EngineOutput>) {
        self.start_session_with(root, peers, SessionConfig::default(), store)
    }

    /// [`BitswapEngine::start_session`] with explicit session tuning
    /// (duplicate factor, broadcast limit, score decay).
    pub fn start_session_with<S: BlockStore>(
        &mut self,
        root: Cid,
        peers: Vec<PeerId>,
        cfg: SessionConfig,
        store: &mut S,
    ) -> (SessionHandle, Vec<EngineOutput>) {
        let handle = SessionHandle(self.next_session);
        self.next_session += 1;
        let session = Session::new(peers, cfg);
        for peer in session.peer_ids() {
            self.index_peer(peer, handle);
        }
        self.sessions.insert(handle, session);
        let mut out = Vec::new();
        self.want(handle, root, store, &mut out);
        self.check_complete(handle, &mut out);
        self.sync(handle);
        (handle, out)
    }

    /// Adds a peer (e.g. a provider discovered via the DHT, or a probe
    /// candidate carried over) to a session and re-probes any stalled
    /// wants through it.
    pub fn add_session_peer<S: BlockStore>(
        &mut self,
        handle: SessionHandle,
        peer: PeerId,
        _store: &mut S,
    ) -> Vec<EngineOutput> {
        let mut out = Vec::new();
        let Some(session) = self.sessions.get_mut(&handle) else {
            return out;
        };
        let msgs = session.add_peer(peer.clone());
        self.index_peer(&peer, handle);
        for (to, msg) in msgs {
            out.extend(self.send(to, msg));
        }
        out
    }

    /// Progress snapshot for a session.
    pub fn session_state(&self, handle: SessionHandle) -> Option<SessionState> {
        self.sessions.get(&handle).map(|s| {
            let stats = s.stats();
            SessionState {
                outstanding: s.outstanding(),
                received: stats.blocks_received,
                duplicates: stats.duplicate_blocks,
                complete: s.is_complete(),
                wants_sent: stats.wants_sent,
                reroutes: stats.reroutes,
                peers: s.peer_count(),
            }
        })
    }

    /// Exportable counters for a session.
    pub fn session_stats(&self, handle: SessionHandle) -> Option<SessionStats> {
        self.sessions.get(&handle).map(|s| s.stats())
    }

    /// Peers of `handle` that answered HAVE or delivered blocks — worth
    /// carrying into a follow-up session instead of discarding with the
    /// probe (§3.2's opportunistic phase feeding the DHT phase).
    pub fn responsive_session_peers(&self, handle: SessionHandle) -> Vec<PeerId> {
        self.sessions.get(&handle).map(|s| s.responsive_peers()).unwrap_or_default()
    }

    /// Drains a session's `(peer, latency_nanos)` response samples.
    pub fn take_latency_samples(&mut self, handle: SessionHandle) -> Vec<(PeerId, u64)> {
        self.sessions.get_mut(&handle).map(|s| s.take_latency_samples()).unwrap_or_default()
    }

    /// Drops a session (e.g. the opportunistic phase timed out, §3.2) and
    /// returns CANCEL messages for everything in flight.
    pub fn cancel_session(&mut self, handle: SessionHandle) -> Vec<EngineOutput> {
        let mut out = Vec::new();
        if let Some(session) = self.sessions.remove(&handle) {
            self.wanting.remove(&handle);
            for peer in session.peer_ids() {
                if let Some(handles) = self.by_peer.get_mut(peer) {
                    if let Ok(i) = handles.binary_search(&handle) {
                        handles.remove(i);
                    }
                }
            }
            for (to, msg) in session.cancel() {
                out.extend(self.send(to, msg));
            }
        }
        out
    }

    /// A connection dropped (crash, churn, eviction): every session that
    /// lists `peer` marks it removed and re-queues the wants it had in
    /// flight there on its surviving candidates. Wants that cannot be
    /// re-routed surface as [`EngineOutput::WantFailed`]. Each session's
    /// outputs stay attributed to its handle, in creation order, so
    /// callers that map sessions back to operations (e.g. for per-op
    /// re-route tracing) stay deterministic.
    pub fn peer_disconnected_by_session(
        &mut self,
        peer: &PeerId,
    ) -> Vec<(SessionHandle, Vec<EngineOutput>)> {
        let mut grouped = Vec::new();
        // Completed sessions are visited too: the `removed` flag set here
        // is what later makes them ignore a late HAVE from this peer.
        let handles = self.by_peer.get(peer).cloned().unwrap_or_default();
        for handle in handles {
            let now = self.clock_nanos;
            let Some(session) = self.sessions.get_mut(&handle) else {
                continue;
            };
            let (msgs, failed) = session.remove_peer(peer, now);
            let mut out = Vec::new();
            for (to, msg) in msgs {
                out.extend(self.send(to, msg));
            }
            for cid in failed {
                out.push(EngineOutput::WantFailed { session: handle, cid });
            }
            if !out.is_empty() {
                grouped.push((handle, out));
            }
        }
        grouped
    }

    /// Handles any inbound message — server wants and client responses —
    /// against the local blockstore.
    pub fn handle_inbound<S: BlockStore>(
        &mut self,
        from: &PeerId,
        message: Message,
        store: &mut S,
    ) -> Vec<EngineOutput> {
        self.handle_inbound_with(from, message, store, |cid, data| cid.hash().verify(data))
    }

    /// [`BitswapEngine::handle_inbound`] with the caller's check of a
    /// received block against its CID. `verify` runs at most once, only
    /// for a BLOCK some session wants, exactly where the engine would
    /// otherwise hash it; it must answer what `cid.hash().verify(data)`
    /// answers (a driver may have computed that verdict ahead of time).
    pub fn handle_inbound_with<S: BlockStore>(
        &mut self,
        from: &PeerId,
        message: Message,
        store: &mut S,
        verify: impl FnOnce(&Cid, &Bytes) -> bool,
    ) -> Vec<EngineOutput> {
        self.ledger.record_received(
            from,
            message.wire_size(),
            matches!(message, Message::Block { .. }),
        );
        self.counts_received.bump(&message);
        match message {
            // ---- server side ----
            Message::WantHave(cid) => {
                let reply =
                    if store.has(&cid) { Message::Have(cid) } else { Message::DontHave(cid) };
                self.send(from.clone(), reply)
            }
            Message::WantBlock(cid) => match store.get(&cid) {
                Some(data) => self.send(from.clone(), Message::Block { cid, data }),
                None => self.send(from.clone(), Message::DontHave(cid)),
            },
            Message::Cancel(_) => Vec::new(),

            // ---- client side ----
            Message::Have(cid) => self.on_have(from, &cid),
            Message::DontHave(cid) => self.on_dont_have(from, &cid),
            Message::Block { cid, data } => self.on_block(from, cid, data, store, verify),
        }
    }

    fn send(&mut self, to: PeerId, message: Message) -> Vec<EngineOutput> {
        self.ledger.record_sent(&to, message.wire_size(), matches!(message, Message::Block { .. }));
        self.counts_sent.bump(&message);
        vec![EngineOutput::Send { to, message }]
    }

    /// Records that `handle`'s candidate list names `peer`.
    fn index_peer(&mut self, peer: &PeerId, handle: SessionHandle) {
        let handles = match self.by_peer.get_mut(peer) {
            Some(handles) => handles,
            None => self.by_peer.entry(peer.clone()).or_default(),
        };
        if let Err(i) = handles.binary_search(&handle) {
            handles.insert(i, handle);
        }
    }

    /// Brings `handle`'s membership of `wanting` up to date. Only starting
    /// a session and receiving a block add or resolve wants; HAVE,
    /// DONT_HAVE, new peers and disconnects only move wants between
    /// phases, so those two entry points are the only callers.
    fn sync(&mut self, handle: SessionHandle) {
        if self.sessions.get(&handle).is_some_and(|s| s.outstanding() > 0) {
            self.wanting.insert(handle);
        } else {
            self.wanting.remove(&handle);
        }
    }

    /// The oldest session with an outstanding want for `cid`.
    fn wanted_by(&self, cid: &Cid) -> Option<SessionHandle> {
        self.wanting.iter().copied().find(|h| self.sessions.get(h).is_some_and(|s| s.has_want(cid)))
    }

    /// The oldest session that already received `cid`.
    fn delivered_to(&self, cid: &Cid) -> Option<SessionHandle> {
        self.sessions.iter().find(|(_, s)| s.was_delivered(cid)).map(|(h, _)| *h)
    }

    /// Registers a want for `cid` in `handle`'s session, walking local
    /// blocks (and their children) without network traffic.
    fn want<S: BlockStore>(
        &mut self,
        handle: SessionHandle,
        root: Cid,
        store: &mut S,
        out: &mut Vec<EngineOutput>,
    ) {
        let now = self.clock_nanos;
        let mut queue = VecDeque::from([root]);
        let mut sends = Vec::new();
        let mut failures = Vec::new();
        {
            let Some(session) = self.sessions.get_mut(&handle) else {
                return;
            };
            while let Some(cid) = queue.pop_front() {
                if session.has_want(&cid) {
                    continue;
                }
                if let Some(bytes) = store.get(&cid) {
                    // Already local (cached or previously fetched): only its
                    // missing descendants need wants.
                    if cid.codec() == Multicodec::DagPb {
                        if let Ok(node) = DagNode::decode(&bytes) {
                            queue.extend(node.links.into_iter().map(|l| l.cid));
                        }
                    }
                    continue;
                }
                let mut stalled = false;
                sends.extend(session.want_block(cid.clone(), now, &mut stalled));
                if stalled {
                    failures.push(cid);
                }
            }
        }
        for (to, msg) in sends {
            out.extend(self.send(to, msg));
        }
        // Stalled wants with no peers at all must surface immediately.
        for cid in failures {
            out.push(EngineOutput::WantFailed { session: handle, cid });
        }
    }

    fn on_have(&mut self, from: &PeerId, cid: &Cid) -> Vec<EngineOutput> {
        let mut out = Vec::new();
        // A HAVE landing after its want resolved still proves the sender
        // holds this DAG: route it to the session that fetched the CID, so
        // the peer becomes ready and backlogged wants can engage it
        // (otherwise slow HAVE responders are locked out of the whole
        // transfer).
        let owner = self.wanted_by(cid).or_else(|| self.delivered_to(cid));
        if let Some(handle) = owner {
            let now = self.clock_nanos;
            if let Some(session) = self.sessions.get_mut(&handle) {
                for (to, msg) in session.on_have(from, cid, now) {
                    out.extend(self.send(to, msg));
                }
            }
        }
        out
    }

    fn on_dont_have(&mut self, from: &PeerId, cid: &Cid) -> Vec<EngineOutput> {
        let mut out = Vec::new();
        let now = self.clock_nanos;
        let Some(handle) = self.wanted_by(cid) else {
            return out;
        };
        let Some(session) = self.sessions.get_mut(&handle) else {
            return out;
        };
        let (msgs, stalled) = session.on_dont_have(from, cid, now);
        for (to, msg) in msgs {
            out.extend(self.send(to, msg));
        }
        if stalled {
            out.push(EngineOutput::WantFailed { session: handle, cid: cid.clone() });
        }
        out
    }

    fn on_block<S: BlockStore>(
        &mut self,
        from: &PeerId,
        cid: Cid,
        data: Bytes,
        store: &mut S,
        verify: impl FnOnce(&Cid, &Bytes) -> bool,
    ) -> Vec<EngineOutput> {
        let mut out = Vec::new();
        let Some(handle) = self.wanted_by(&cid) else {
            // Unsolicited or duplicate block: it will not be stored, so it
            // is dropped without paying for a hash. Attribute it to the
            // session that fetched this CID, falling back to the oldest.
            let dup = self.delivered_to(&cid).or(self.sessions.keys().next().copied());
            if let Some(h) = dup {
                if let Some(s) = self.sessions.get_mut(&h) {
                    s.count_duplicate();
                    out.push(EngineOutput::DuplicateBlock { session: h });
                }
            }
            return out;
        };
        // Verify before the block can touch the session or the store:
        // "verify that the data they were served matches the requested
        // CID" (§3.1).
        if !verify(&cid, &data) {
            // Corrupt block: ignore it entirely (sessions keep waiting and
            // will fail over / stall rather than accept bad data).
            return out;
        }
        let now = self.clock_nanos;
        let cancels =
            self.sessions.get_mut(&handle).map(|s| s.on_block(from, &cid, now)).unwrap_or_default();
        for (to, msg) in cancels {
            out.extend(self.send(to, msg));
        }
        store.put(cid.clone(), data.clone());
        out.push(EngineOutput::BlockStored { session: handle, cid: cid.clone() });
        // Discover child wants from branch nodes.
        if cid.codec() == Multicodec::DagPb {
            if let Ok(node) = DagNode::decode(&data) {
                for link in node.links {
                    self.want(handle, link.cid, store, &mut out);
                }
            }
        }
        self.check_complete(handle, &mut out);
        self.sync(handle);
        out
    }

    fn check_complete(&mut self, handle: SessionHandle, out: &mut Vec<EngineOutput>) {
        if let Some(session) = self.sessions.get_mut(&handle) {
            if session.outstanding() == 0 && !session.is_complete() {
                session.set_complete();
                out.push(EngineOutput::SessionComplete { session: handle });
            }
        }
    }
}

#[cfg(test)]
mod routing_oracle;

#[cfg(test)]
mod tests {
    use super::routing_oracle::ScanEngine;
    use super::*;
    use bytes::Bytes;
    use merkledag::{DagBuilder, DagLayout, FixedSizeChunker, MemoryBlockStore};
    use multiformats::Keypair;

    fn peer(seed: u64) -> PeerId {
        Keypair::from_seed(seed).peer_id()
    }

    /// Every session's disconnect outputs, flattened in creation order.
    fn disconnect(engine: &mut BitswapEngine, peer: &PeerId) -> Vec<EngineOutput> {
        engine.peer_disconnected_by_session(peer).into_iter().flat_map(|(_, outs)| outs).collect()
    }

    /// Drives a client engine against server engines until quiescent.
    fn run_exchange(
        client: &mut BitswapEngine,
        client_store: &mut MemoryBlockStore,
        servers: &mut [(PeerId, BitswapEngine, MemoryBlockStore)],
        initial: Vec<EngineOutput>,
        client_id: &PeerId,
    ) -> (bool, Vec<Cid>) {
        let mut queue: VecDeque<(PeerId, PeerId, Message)> = VecDeque::new(); // (from, to, msg)
        let mut complete = false;
        let mut stored = Vec::new();
        let absorb = |outs: Vec<EngineOutput>,
                      sender: &PeerId,
                      queue: &mut VecDeque<(PeerId, PeerId, Message)>,
                      complete: &mut bool,
                      stored: &mut dyn FnMut(Cid)| {
            for o in outs {
                match o {
                    EngineOutput::Send { to, message } => {
                        queue.push_back((sender.clone(), to, message))
                    }
                    EngineOutput::SessionComplete { .. } => *complete = true,
                    EngineOutput::BlockStored { cid, .. } => stored(cid),
                    EngineOutput::WantFailed { .. } | EngineOutput::DuplicateBlock { .. } => {}
                }
            }
        };
        absorb(initial, client_id, &mut queue, &mut complete, &mut |c| stored.push(c));
        let mut guard = 0;
        while let Some((from, to, msg)) = queue.pop_front() {
            guard += 1;
            assert!(guard < 100_000, "exchange did not quiesce");
            if to == *client_id {
                let outs = client.handle_inbound(&from, msg, client_store);
                absorb(outs, client_id, &mut queue, &mut complete, &mut |c| stored.push(c));
            } else if let Some((sid, engine, store)) =
                servers.iter_mut().find(|(id, _, _)| *id == to)
            {
                let outs = engine.handle_inbound(&from, msg, store);
                let sid = sid.clone();
                absorb(outs, &sid, &mut queue, &mut complete, &mut |c| stored.push(c));
            }
        }
        (complete, stored)
    }

    fn seeded_server(seed: u64, data: &Bytes) -> ((PeerId, BitswapEngine, MemoryBlockStore), Cid) {
        let mut store = MemoryBlockStore::new();
        let root = DagBuilder::new(&mut store)
            .with_layout(DagLayout { fanout: 4 })
            .add_with_chunker(data, &FixedSizeChunker::new(256))
            .unwrap()
            .root;
        ((peer(seed), BitswapEngine::new(), store), root)
    }

    #[test]
    fn fetch_multi_block_dag() {
        let data = Bytes::from((0..2000u32).map(|i| (i % 255) as u8).collect::<Vec<_>>());
        let (server, root) = seeded_server(10, &data);
        let mut servers = vec![server];
        let mut client = BitswapEngine::new();
        let mut client_store = MemoryBlockStore::new();
        let me = peer(1);
        let (handle, init) = client.start_session(root.clone(), vec![peer(10)], &mut client_store);
        let (complete, stored) =
            run_exchange(&mut client, &mut client_store, &mut servers, init, &me);
        assert!(complete, "session must complete");
        assert!(stored.contains(&root));
        // The file reassembles from the client's store.
        let out = merkledag::Resolver::new(&mut client_store).read_file(&root).unwrap();
        assert_eq!(out, data);
        let st = client.session_state(handle).unwrap();
        assert!(st.complete);
        assert_eq!(st.outstanding, 0);
        assert!(st.received >= 8, "expected 8 leaves + branches, got {}", st.received);
    }

    #[test]
    fn swarm_fetch_spreads_load_over_servers() {
        // Three seeded servers: the session's splitter must pull blocks
        // from every one of them, not hammer the first.
        let data = Bytes::from((0..4000u32).map(|i| (i % 251) as u8).collect::<Vec<_>>());
        let (s1, root) = seeded_server(10, &data);
        let (s2, _) = seeded_server(11, &data);
        let (s3, _) = seeded_server(12, &data);
        let mut servers = vec![s1, s2, s3];
        let mut client = BitswapEngine::new();
        let mut client_store = MemoryBlockStore::new();
        let me = peer(1);
        let (handle, init) = client.start_session(
            root.clone(),
            vec![peer(10), peer(11), peer(12)],
            &mut client_store,
        );
        let (complete, _) = run_exchange(&mut client, &mut client_store, &mut servers, init, &me);
        assert!(complete);
        assert_eq!(merkledag::Resolver::new(&mut client_store).read_file(&root).unwrap(), data);
        let st = client.session_state(handle).unwrap();
        assert_eq!(st.duplicates, 0, "duplicate factor 1 must fetch each block once");
        for (id, engine, _) in &servers {
            assert!(
                engine.counts_sent.block > 0,
                "server {id:?} served no blocks — splitter did not spread"
            );
        }
    }

    #[test]
    fn local_blocks_short_circuit() {
        let data = Bytes::from(vec![5u8; 1000]);
        let mut store = MemoryBlockStore::new();
        let root = DagBuilder::new(&mut store).add(&data).unwrap().root;
        let mut client = BitswapEngine::new();
        // Root already local: session completes with zero messages.
        let (_, outs) = client.start_session(root, vec![peer(10)], &mut store);
        assert_eq!(outs.len(), 1);
        assert!(matches!(outs[0], EngineOutput::SessionComplete { .. }));
    }

    #[test]
    fn want_failed_when_all_deny() {
        let mut client = BitswapEngine::new();
        let mut store = MemoryBlockStore::new();
        let missing = Cid::from_raw_data(b"nobody has this");
        let me = peer(1);
        let (handle, init) =
            client.start_session(missing.clone(), vec![peer(10), peer(11)], &mut store);
        // Two empty servers.
        let mut servers = [
            (peer(10), BitswapEngine::new(), MemoryBlockStore::new()),
            (peer(11), BitswapEngine::new(), MemoryBlockStore::new()),
        ];
        let mut queue: VecDeque<(PeerId, PeerId, Message)> = VecDeque::new();
        for o in init {
            if let EngineOutput::Send { to, message } = o {
                queue.push_back((me.clone(), to, message));
            }
        }
        let mut failed = None;
        while let Some((from, to, msg)) = queue.pop_front() {
            if to == me {
                for o in client.handle_inbound(&from, msg, &mut store) {
                    match o {
                        EngineOutput::Send { to, message } => {
                            queue.push_back((me.clone(), to, message))
                        }
                        EngineOutput::WantFailed { session, cid } => failed = Some((session, cid)),
                        _ => {}
                    }
                }
            } else if let Some((sid, engine, sstore)) =
                servers.iter_mut().find(|(id, _, _)| *id == to)
            {
                let sid = sid.clone();
                for o in engine.handle_inbound(&from, msg, sstore) {
                    if let EngineOutput::Send { to, message } = o {
                        queue.push_back((sid.clone(), to, message));
                    }
                }
            }
        }
        assert_eq!(failed, Some((handle, missing)));
    }

    #[test]
    fn dht_fallback_via_add_session_peer() {
        // Session stalls with an empty peer set, then a provider found via
        // the "DHT" is added and the fetch completes.
        let data = Bytes::from(vec![9u8; 600]);
        let (server, root) = seeded_server(20, &data);
        let mut servers = vec![server];
        let mut client = BitswapEngine::new();
        let mut store = MemoryBlockStore::new();
        let me = peer(1);
        let (handle, init) = client.start_session(root.clone(), vec![], &mut store);
        assert!(init.iter().any(|o| matches!(o, EngineOutput::WantFailed { .. })));
        let follow = client.add_session_peer(handle, peer(20), &mut store);
        let (complete, _) = run_exchange(&mut client, &mut store, &mut servers, follow, &me);
        assert!(complete);
        assert_eq!(merkledag::Resolver::new(&mut store).read_file(&root).unwrap(), data);
    }

    #[test]
    fn corrupt_block_rejected() {
        let mut client = BitswapEngine::new();
        let mut store = MemoryBlockStore::new();
        let cid = Cid::from_raw_data(b"the real content");
        let (handle, _) = client.start_session(cid.clone(), vec![peer(10)], &mut store);
        let outs = client.handle_inbound(
            &peer(10),
            Message::Block { cid: cid.clone(), data: Bytes::from_static(b"FORGED") },
            &mut store,
        );
        assert!(outs.is_empty(), "forged block produces no progress");
        assert!(!store.has(&cid));
        let st = client.session_state(handle).unwrap();
        assert_eq!(st.received, 0);
        assert_eq!(st.outstanding, 1, "want stays outstanding");

        // Blocks nobody is waiting for are dropped unhashed, so forged ones
        // must be just as inert: counted as duplicates, never stored.
        let forged =
            |cid: &Cid| Message::Block { cid: cid.clone(), data: Bytes::from_static(b"FORGED") };
        let unsolicited = Cid::from_raw_data(b"nobody asked");
        let outs = client.handle_inbound(&peer(10), forged(&unsolicited), &mut store);
        assert_eq!(outs, vec![EngineOutput::DuplicateBlock { session: handle }]);
        assert!(!store.has(&unsolicited));

        let real = Bytes::from_static(b"the real content");
        client.handle_inbound(
            &peer(10),
            Message::Block { cid: cid.clone(), data: real },
            &mut store,
        );
        let outs = client.handle_inbound(&peer(10), forged(&cid), &mut store);
        assert_eq!(outs, vec![EngineOutput::DuplicateBlock { session: handle }]);
        assert_eq!(store.get(&cid).unwrap(), &b"the real content"[..], "stored block untouched");
        let st = client.session_state(handle).unwrap();
        assert_eq!((st.received, st.duplicates, st.outstanding), (1, 2, 0));
    }

    #[test]
    fn server_side_answers() {
        let mut server = BitswapEngine::new();
        let mut store = MemoryBlockStore::new();
        let data = Bytes::from_static(b"block!");
        let cid = Cid::from_raw_data(&data);
        store.put(cid.clone(), data.clone());
        let asker = peer(2);

        let outs = server.handle_inbound(&asker, Message::WantHave(cid.clone()), &mut store);
        assert_eq!(
            outs,
            vec![EngineOutput::Send { to: asker.clone(), message: Message::Have(cid.clone()) }]
        );
        let outs = server.handle_inbound(&asker, Message::WantBlock(cid.clone()), &mut store);
        assert_eq!(
            outs,
            vec![EngineOutput::Send {
                to: asker.clone(),
                message: Message::Block { cid: cid.clone(), data }
            }]
        );
        let missing = Cid::from_raw_data(b"no");
        let outs = server.handle_inbound(&asker, Message::WantHave(missing.clone()), &mut store);
        assert_eq!(
            outs,
            vec![EngineOutput::Send { to: asker, message: Message::DontHave(missing) }]
        );
    }

    #[test]
    fn cancel_session_emits_cancels() {
        let mut client = BitswapEngine::new();
        let mut store = MemoryBlockStore::new();
        let cid = Cid::from_raw_data(b"will cancel");
        let (handle, _) = client.start_session(cid.clone(), vec![peer(10), peer(11)], &mut store);
        let outs = client.cancel_session(handle);
        let cancels = outs
            .iter()
            .filter(|o| matches!(o, EngineOutput::Send { message: Message::Cancel(_), .. }))
            .count();
        assert_eq!(cancels, 2);
        assert!(client.session_state(handle).is_none());
    }

    #[test]
    fn failover_to_second_haver() {
        // Peer A says HAVE then reneges with DONT_HAVE on WANT-BLOCK; the
        // engine must fail over to peer B who also said HAVE.
        let data = Bytes::from_static(b"precious");
        let cid = Cid::from_raw_data(&data);
        let mut client = BitswapEngine::new();
        let mut store = MemoryBlockStore::new();
        let (_, init) = client.start_session(cid.clone(), vec![peer(10), peer(11)], &mut store);
        assert_eq!(init.len(), 2); // two WANT-HAVEs
                                   // Both reply HAVE; the first (peer 10) gets the WANT-BLOCK.
        let o1 = client.handle_inbound(&peer(10), Message::Have(cid.clone()), &mut store);
        assert_eq!(
            o1,
            vec![EngineOutput::Send { to: peer(10), message: Message::WantBlock(cid.clone()) }]
        );
        let o2 = client.handle_inbound(&peer(11), Message::Have(cid.clone()), &mut store);
        assert!(o2.is_empty(), "second HAVE is a fallback, no extra request");
        // Peer 10 reneges.
        let o3 = client.handle_inbound(&peer(10), Message::DontHave(cid.clone()), &mut store);
        assert_eq!(
            o3,
            vec![EngineOutput::Send { to: peer(11), message: Message::WantBlock(cid.clone()) }]
        );
        // Peer 11 delivers.
        let o4 =
            client.handle_inbound(&peer(11), Message::Block { cid: cid.clone(), data }, &mut store);
        assert!(o4.iter().any(|o| matches!(o, EngineOutput::SessionComplete { .. })));
        assert!(store.has(&cid));
    }

    #[test]
    fn crashed_peer_reroutes_inflight_wants() {
        // Peer A wins the WANT-BLOCK and crashes; the disconnect must
        // re-queue the want to peer B, and B's block completes the fetch.
        let data = Bytes::from_static(b"survivor");
        let cid = Cid::from_raw_data(&data);
        let mut client = BitswapEngine::new();
        let mut store = MemoryBlockStore::new();
        let (handle, _) = client.start_session(cid.clone(), vec![peer(10), peer(11)], &mut store);
        client.handle_inbound(&peer(10), Message::Have(cid.clone()), &mut store);
        client.handle_inbound(&peer(11), Message::Have(cid.clone()), &mut store);
        let outs = disconnect(&mut client, &peer(10));
        assert_eq!(
            outs,
            vec![EngineOutput::Send { to: peer(11), message: Message::WantBlock(cid.clone()) }]
        );
        let o =
            client.handle_inbound(&peer(11), Message::Block { cid: cid.clone(), data }, &mut store);
        assert!(o.iter().any(|o| matches!(o, EngineOutput::SessionComplete { .. })));
        let st = client.session_state(handle).unwrap();
        assert_eq!(st.reroutes, 1);
        assert!(st.complete);
    }

    #[test]
    fn disconnect_by_session_groups_without_changing_the_flat_view() {
        // Two sessions both in flight at the crashing peer: the grouped
        // API attributes each re-route to its session, and flattening it
        // reproduces the flat stream of the scan-routed oracle.
        let d1 = Bytes::from_static(b"first");
        let d2 = Bytes::from_static(b"second");
        let c1 = Cid::from_raw_data(&d1);
        let c2 = Cid::from_raw_data(&d2);
        let mut a = BitswapEngine::new();
        let mut b = ScanEngine::default();
        let mut store_a = MemoryBlockStore::new();
        let mut store_b = MemoryBlockStore::new();
        let cfg = SessionConfig::default();
        let (h1, _) = a.start_session(c1.clone(), vec![peer(10), peer(11)], &mut store_a);
        let (h2, _) = a.start_session(c2.clone(), vec![peer(10)], &mut store_a);
        b.start_session_with(c1.clone(), vec![peer(10), peer(11)], cfg, &mut store_b);
        b.start_session_with(c2.clone(), vec![peer(10)], cfg, &mut store_b);
        for (cid, from) in [(&c1, peer(10)), (&c1, peer(11)), (&c2, peer(10))] {
            a.handle_inbound(&from, Message::Have(cid.clone()), &mut store_a);
            b.handle_inbound(&from, Message::Have(cid.clone()), &mut store_b);
        }
        let grouped = a.peer_disconnected_by_session(&peer(10));
        let flat = b.peer_disconnected(&peer(10));
        assert_eq!(grouped.len(), 2, "both sessions produced outputs: {grouped:?}");
        assert_eq!(grouped[0].0, h1);
        assert_eq!(grouped[1].0, h2);
        // Session 1 re-routes to the surviving fallback; session 2 had no
        // survivor and fails the want.
        assert!(matches!(
            grouped[0].1[0],
            EngineOutput::Send { ref to, message: Message::WantBlock(_) } if *to == peer(11)
        ));
        assert!(grouped[1].1.iter().any(|o| matches!(o, EngineOutput::WantFailed { .. })));
        let flattened: Vec<EngineOutput> = grouped.into_iter().flat_map(|(_, outs)| outs).collect();
        assert_eq!(flattened, flat);
    }

    #[test]
    fn duplicate_blocks_surface_as_outputs() {
        let data = Bytes::from_static(b"twice");
        let cid = Cid::from_raw_data(&data);
        let mut client = BitswapEngine::new();
        let mut store = MemoryBlockStore::new();
        let (handle, _) = client.start_session(cid.clone(), vec![peer(10)], &mut store);
        client.handle_inbound(
            &peer(10),
            Message::Block { cid: cid.clone(), data: data.clone() },
            &mut store,
        );
        // The same block arrives again (e.g. a slower duplicate target).
        let outs = client.handle_inbound(&peer(11), Message::Block { cid, data }, &mut store);
        assert_eq!(outs, vec![EngineOutput::DuplicateBlock { session: handle }]);
        let st = client.session_state(handle).unwrap();
        assert_eq!((st.received, st.duplicates), (1, 1));
    }

    #[test]
    fn ledger_tracks_traffic() {
        let mut server = BitswapEngine::new();
        let mut store = MemoryBlockStore::new();
        let data = Bytes::from(vec![1u8; 500]);
        let cid = Cid::from_raw_data(&data);
        store.put(cid.clone(), data);
        let asker = peer(3);
        server.handle_inbound(&asker, Message::WantBlock(cid), &mut store);
        let entry = server.ledger.entry(&asker);
        assert_eq!(entry.received, 40); // the WANT_BLOCK
        assert_eq!(entry.sent, 540); // the BLOCK
        assert_eq!(entry.blocks, 1);
    }

    #[test]
    fn late_have_after_disconnect_of_completed_session_is_ignored() {
        // The disconnect must reach sessions that already completed: their
        // `removed` flag is what keeps a late HAVE from the dead link from
        // marking it responsive (and so from being carried into the next
        // phase's candidates).
        let data = Bytes::from_static(b"fetched before the crash");
        let cid = Cid::from_raw_data(&data);
        let mut client = BitswapEngine::new();
        let mut store = MemoryBlockStore::new();
        let (handle, _) = client.start_session(cid.clone(), vec![peer(10), peer(11)], &mut store);
        client.handle_inbound(&peer(11), Message::Have(cid.clone()), &mut store);
        let done =
            client.handle_inbound(&peer(11), Message::Block { cid: cid.clone(), data }, &mut store);
        assert!(done.contains(&EngineOutput::SessionComplete { session: handle }));
        assert!(disconnect(&mut client, &peer(10)).is_empty(), "nothing was in flight at 10");
        let late = client.handle_inbound(&peer(10), Message::Have(cid), &mut store);
        assert!(late.is_empty(), "late HAVE from a disconnected peer: {late:?}");
        assert_eq!(client.responsive_session_peers(handle), vec![peer(11)]);
    }

    #[test]
    fn duplicate_block_after_cancel_goes_to_next_receiver_then_oldest() {
        let data = Bytes::from_static(b"fetched twice");
        let cid = Cid::from_raw_data(&data);
        let block = || Message::Block { cid: cid.clone(), data: data.clone() };
        let mut client = BitswapEngine::new();
        let mut store = MemoryBlockStore::new();
        let other = Cid::from_raw_data(b"still wanted");
        let (oldest, _) = client.start_session(other, vec![peer(12)], &mut store);
        let (first, _) = client.start_session(cid.clone(), vec![peer(10)], &mut store);
        let (second, _) = client.start_session(cid.clone(), vec![peer(11)], &mut store);
        // Each session wanting the block receives its own copy, oldest first.
        let o1 = client.handle_inbound(&peer(10), block(), &mut store);
        assert!(o1.contains(&EngineOutput::BlockStored { session: first, cid: cid.clone() }));
        let o2 = client.handle_inbound(&peer(11), block(), &mut store);
        assert!(o2.contains(&EngineOutput::BlockStored { session: second, cid: cid.clone() }));
        // With the first receiver gone, a duplicate goes to the next session
        // that received the CID...
        client.cancel_session(first);
        let dup = client.handle_inbound(&peer(10), block(), &mut store);
        assert_eq!(dup, vec![EngineOutput::DuplicateBlock { session: second }]);
        // ...and with none left, to the oldest session.
        client.cancel_session(second);
        let dup = client.handle_inbound(&peer(10), block(), &mut store);
        assert_eq!(dup, vec![EngineOutput::DuplicateBlock { session: oldest }]);
        assert_eq!(client.session_state(oldest).unwrap().duplicates, 1);
    }
}
