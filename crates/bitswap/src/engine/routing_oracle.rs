//! The scan-routed engine the indexes replaced, kept as a test oracle.
//!
//! [`ScanEngine`] routes every inbound HAVE, DONT_HAVE and BLOCK, and every
//! disconnect, by sorting the handles of all live sessions and scanning
//! them in creation order. [`BitswapEngine`] must pick the same session
//! every time; the proptest below drives both through random
//! interleavings and compares every output stream, while checking the
//! engine's two indexes against their definitions after every step.

use super::{BitswapEngine, EngineOutput, SessionHandle};
use crate::message::Message;
use crate::session::{Session, SessionConfig};
use merkledag::{BlockStore, DagNode};
use multiformats::{Cid, Multicodec, PeerId};
use std::collections::{HashMap, VecDeque};

/// Client-side routing by full scan (no ledgers, no counters).
#[derive(Default)]
pub(super) struct ScanEngine {
    sessions: HashMap<SessionHandle, Session>,
    next_session: u64,
    clock_nanos: u64,
}

impl ScanEngine {
    pub(super) fn set_clock(&mut self, now_nanos: u64) {
        self.clock_nanos = now_nanos;
    }

    pub(super) fn session(&self, handle: SessionHandle) -> Option<&Session> {
        self.sessions.get(&handle)
    }

    pub(super) fn start_session_with<S: BlockStore>(
        &mut self,
        root: Cid,
        peers: Vec<PeerId>,
        cfg: SessionConfig,
        store: &mut S,
    ) -> (SessionHandle, Vec<EngineOutput>) {
        let handle = SessionHandle(self.next_session);
        self.next_session += 1;
        self.sessions.insert(handle, Session::new(peers, cfg));
        let mut out = Vec::new();
        self.want(handle, root, store, &mut out);
        self.check_complete(handle, &mut out);
        (handle, out)
    }

    pub(super) fn add_session_peer(
        &mut self,
        handle: SessionHandle,
        peer: PeerId,
    ) -> Vec<EngineOutput> {
        let Some(session) = self.sessions.get_mut(&handle) else {
            return Vec::new();
        };
        session.add_peer(peer).into_iter().map(send).collect()
    }

    pub(super) fn cancel_session(&mut self, handle: SessionHandle) -> Vec<EngineOutput> {
        match self.sessions.remove(&handle) {
            Some(session) => session.cancel().into_iter().map(send).collect(),
            None => Vec::new(),
        }
    }

    pub(super) fn peer_disconnected(&mut self, peer: &PeerId) -> Vec<EngineOutput> {
        self.peer_disconnected_by_session(peer).into_iter().flat_map(|(_, outs)| outs).collect()
    }

    pub(super) fn peer_disconnected_by_session(
        &mut self,
        peer: &PeerId,
    ) -> Vec<(SessionHandle, Vec<EngineOutput>)> {
        let mut grouped = Vec::new();
        for handle in self.session_handles() {
            let now = self.clock_nanos;
            let Some(session) = self.sessions.get_mut(&handle) else {
                continue;
            };
            let (msgs, failed) = session.remove_peer(peer, now);
            let mut out: Vec<EngineOutput> = msgs.into_iter().map(send).collect();
            for cid in failed {
                out.push(EngineOutput::WantFailed { session: handle, cid });
            }
            if !out.is_empty() {
                grouped.push((handle, out));
            }
        }
        grouped
    }

    /// The client half of `BitswapEngine::handle_inbound`; server-side
    /// messages are not routed to sessions and produce nothing here.
    pub(super) fn handle_inbound<S: BlockStore>(
        &mut self,
        from: &PeerId,
        message: Message,
        store: &mut S,
    ) -> Vec<EngineOutput> {
        match message {
            Message::Have(cid) => self.on_have(from, &cid),
            Message::DontHave(cid) => self.on_dont_have(from, &cid),
            Message::Block { cid, data } => self.on_block(from, cid, data, store),
            Message::WantHave(_) | Message::WantBlock(_) | Message::Cancel(_) => Vec::new(),
        }
    }

    fn session_handles(&self) -> Vec<SessionHandle> {
        let mut handles: Vec<SessionHandle> = self.sessions.keys().copied().collect();
        handles.sort_unstable();
        handles
    }

    fn want<S: BlockStore>(
        &mut self,
        handle: SessionHandle,
        root: Cid,
        store: &mut S,
        out: &mut Vec<EngineOutput>,
    ) {
        let now = self.clock_nanos;
        let Some(session) = self.sessions.get_mut(&handle) else {
            return;
        };
        let mut queue = VecDeque::from([root]);
        let mut failures = Vec::new();
        while let Some(cid) = queue.pop_front() {
            if session.has_want(&cid) {
                continue;
            }
            if let Some(bytes) = store.get(&cid) {
                if cid.codec() == Multicodec::DagPb {
                    if let Ok(node) = DagNode::decode(&bytes) {
                        queue.extend(node.links.into_iter().map(|l| l.cid));
                    }
                }
                continue;
            }
            let mut stalled = false;
            out.extend(session.want_block(cid.clone(), now, &mut stalled).into_iter().map(send));
            if stalled {
                failures.push(cid);
            }
        }
        for cid in failures {
            out.push(EngineOutput::WantFailed { session: handle, cid });
        }
    }

    fn on_have(&mut self, from: &PeerId, cid: &Cid) -> Vec<EngineOutput> {
        let handles = self.session_handles();
        let owner = handles
            .iter()
            .copied()
            .find(|h| self.sessions.get(h).is_some_and(|s| s.has_want(cid)))
            .or_else(|| {
                handles
                    .iter()
                    .copied()
                    .find(|h| self.sessions.get(h).is_some_and(|s| s.was_delivered(cid)))
            });
        let now = self.clock_nanos;
        match owner.and_then(|h| self.sessions.get_mut(&h)) {
            Some(session) => session.on_have(from, cid, now).into_iter().map(send).collect(),
            None => Vec::new(),
        }
    }

    fn on_dont_have(&mut self, from: &PeerId, cid: &Cid) -> Vec<EngineOutput> {
        let mut out = Vec::new();
        for handle in self.session_handles() {
            let now = self.clock_nanos;
            let Some(session) = self.sessions.get_mut(&handle) else {
                continue;
            };
            if !session.has_want(cid) {
                continue;
            }
            let (msgs, stalled) = session.on_dont_have(from, cid, now);
            out.extend(msgs.into_iter().map(send));
            if stalled {
                out.push(EngineOutput::WantFailed { session: handle, cid: cid.clone() });
            }
            break;
        }
        out
    }

    fn on_block<S: BlockStore>(
        &mut self,
        from: &PeerId,
        cid: Cid,
        data: bytes::Bytes,
        store: &mut S,
    ) -> Vec<EngineOutput> {
        let mut out = Vec::new();
        let handles = self.session_handles();
        let owner = handles
            .iter()
            .copied()
            .find(|h| self.sessions.get(h).is_some_and(|s| s.has_want(&cid)));
        let Some(handle) = owner else {
            let dup = handles
                .iter()
                .copied()
                .find(|h| self.sessions.get(h).is_some_and(|s| s.was_delivered(&cid)))
                .or(handles.first().copied());
            if let Some(h) = dup {
                if let Some(s) = self.sessions.get_mut(&h) {
                    s.count_duplicate();
                    out.push(EngineOutput::DuplicateBlock { session: h });
                }
            }
            return out;
        };
        if !cid.hash().verify(&data) {
            return out;
        }
        let now = self.clock_nanos;
        let cancels =
            self.sessions.get_mut(&handle).map(|s| s.on_block(from, &cid, now)).unwrap_or_default();
        out.extend(cancels.into_iter().map(send));
        store.put(cid.clone(), data.clone());
        out.push(EngineOutput::BlockStored { session: handle, cid: cid.clone() });
        if cid.codec() == Multicodec::DagPb {
            if let Ok(node) = DagNode::decode(&data) {
                for link in node.links {
                    self.want(handle, link.cid, store, &mut out);
                }
            }
        }
        self.check_complete(handle, &mut out);
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

fn send((to, message): (PeerId, Message)) -> EngineOutput {
    EngineOutput::Send { to, message }
}

/// Panics unless `engine`'s indexes match their definitions.
fn assert_indexes(engine: &BitswapEngine) {
    let wanting: Vec<SessionHandle> =
        engine.sessions.iter().filter(|(_, s)| s.outstanding() > 0).map(|(h, _)| *h).collect();
    assert_eq!(engine.wanting.iter().copied().collect::<Vec<_>>(), wanting, "wanting index");
    let mut by_peer: HashMap<&PeerId, Vec<SessionHandle>> = HashMap::new();
    for (handle, session) in &engine.sessions {
        for peer in session.peer_ids() {
            let handles = by_peer.entry(peer).or_default();
            if handles.last() != Some(handle) {
                handles.push(*handle);
            }
        }
    }
    for (peer, expected) in &by_peer {
        assert_eq!(engine.by_peer.get(*peer), Some(expected), "by_peer index for {peer:?}");
    }
    for (peer, handles) in &engine.by_peer {
        if !by_peer.contains_key(peer) {
            assert!(handles.is_empty(), "by_peer keeps {handles:?} for {peer:?}");
        }
    }
}

mod tests {
    use super::*;
    use bytes::Bytes;
    use merkledag::{DagBuilder, DagLayout, FixedSizeChunker, MemoryBlockStore};
    use multiformats::Keypair;
    use proptest::prelude::*;

    enum Op {
        Start { root: usize, peers: Vec<usize>, dup: bool, budget: usize },
        AddPeer { session: usize, peer: usize },
        Have { peer: usize, block: usize },
        DontHave { peer: usize, block: usize },
        Block { peer: usize, block: usize, corrupt: bool },
        Disconnect { peer: usize },
        Cancel { session: usize },
        Tick { nanos: u64 },
    }

    const PEERS: usize = 5;

    /// Decodes one random draw into an operation; replies (HAVE, BLOCK)
    /// are drawn most often, so sessions make progress between the rarer
    /// starts, disconnects and cancels.
    fn op((tag, a, b, c): (u8, usize, usize, u64)) -> Op {
        match tag {
            0 | 1 => Op::Start {
                root: a,
                peers: (0..c % 4).map(|i| (c >> (2 + 3 * i)) as usize % PEERS).collect(),
                dup: b % 2 == 1,
                budget: 1 + (b / 2) % 2,
            },
            2 => Op::AddPeer { session: a, peer: b % PEERS },
            3..=6 => Op::Have { peer: a % PEERS, block: b },
            7 | 8 => Op::DontHave { peer: a % PEERS, block: b },
            9..=12 => Op::Block { peer: a % PEERS, block: b, corrupt: c % 10 == 0 },
            13 => Op::Disconnect { peer: a % PEERS },
            14 => Op::Cancel { session: a },
            _ => Op::Tick { nanos: 1 + c % 1000 },
        }
    }

    #[test]
    fn proptest_indexed_routing_matches_the_scan() {
        let world = World::new();
        let draws =
            || proptest::collection::vec((0u8..16, 0usize..64, 0usize..64, any::<u64>()), 1..120);
        proptest!(ProptestConfig::with_cases(256), |(draws in draws())| {
            world.check_against_scan(draws.into_iter().map(op));
        });
    }

    /// What the operations name by index: session roots, every block
    /// reachable from them, and the candidate peers.
    struct World {
        roots: Vec<Cid>,
        blocks: Vec<(Cid, Bytes)>,
        peers: Vec<PeerId>,
    }

    impl World {
        /// Small DAGs whose leaves overlap (shared prefixes chunk alike), so
        /// several sessions often want the same CID at once, plus two raw
        /// blocks.
        fn new() -> World {
            let mut store = MemoryBlockStore::new();
            let base: Vec<u8> = (0..400u32).map(|i| (i % 251) as u8).collect();
            let mut roots = Vec::new();
            for len in [64, 200, 400] {
                for fanout in [2, 3] {
                    let data = Bytes::from(base[..len].to_vec());
                    let root = DagBuilder::new(&mut store)
                        .with_layout(DagLayout { fanout })
                        .add_with_chunker(&data, &FixedSizeChunker::new(64))
                        .unwrap()
                        .root;
                    roots.push(root);
                }
            }
            for raw in [&b"raw block a"[..], b"raw block b"] {
                let cid = Cid::from_raw_data(raw);
                store.put(cid.clone(), Bytes::copy_from_slice(raw));
                roots.push(cid);
            }
            let mut blocks: Vec<(Cid, Bytes)> = Vec::new();
            let mut queue: VecDeque<Cid> = roots.iter().cloned().collect();
            while let Some(cid) = queue.pop_front() {
                if blocks.iter().any(|(c, _)| *c == cid) {
                    continue;
                }
                let data = store.get(&cid).unwrap();
                if cid.codec() == Multicodec::DagPb {
                    queue.extend(DagNode::decode(&data).unwrap().links.into_iter().map(|l| l.cid));
                }
                blocks.push((cid, data));
            }
            let peers = (0..PEERS as u64).map(|i| Keypair::from_seed(10 + i).peer_id()).collect();
            World { roots, blocks, peers }
        }

        /// Runs `ops` on the engine and the oracle side by side: every
        /// output stream must match, and the engine's indexes must match
        /// their definitions after every step.
        fn check_against_scan(&self, ops: impl Iterator<Item = Op>) {
            let peers = &self.peers;
            let mut engine = BitswapEngine::new();
            let mut oracle = ScanEngine::default();
            let mut store = MemoryBlockStore::new();
            let mut oracle_store = MemoryBlockStore::new();
            let mut handles: Vec<SessionHandle> = Vec::new();
            let mut clock = 0u64;
            for op in ops {
                match op {
                    Op::Start { root, peers: picks, dup, budget } => {
                        let cfg = SessionConfig {
                            duplicate_factor: if dup { 2 } else { 1 },
                            max_inflight_per_peer: budget,
                        };
                        let ids: Vec<PeerId> = picks.iter().map(|&i| peers[i].clone()).collect();
                        let root = self.roots[root % self.roots.len()].clone();
                        let (h, got) =
                            engine.start_session_with(root.clone(), ids.clone(), cfg, &mut store);
                        let (oh, want) =
                            oracle.start_session_with(root, ids, cfg, &mut oracle_store);
                        assert_eq!((h, got), (oh, want));
                        handles.push(h);
                    }
                    Op::AddPeer { session, peer } if !handles.is_empty() => {
                        let h = handles[session % handles.len()];
                        let got = engine.add_session_peer(h, peers[peer].clone(), &mut store);
                        assert_eq!(got, oracle.add_session_peer(h, peers[peer].clone()));
                    }
                    Op::Cancel { session } if !handles.is_empty() => {
                        let h = handles[session % handles.len()];
                        assert_eq!(engine.cancel_session(h), oracle.cancel_session(h));
                    }
                    Op::AddPeer { .. } | Op::Cancel { .. } => {}
                    Op::Have { peer, block }
                    | Op::DontHave { peer, block }
                    | Op::Block { peer, block, .. } => {
                        let (cid, data) = self.blocks[block % self.blocks.len()].clone();
                        let msg = match op {
                            Op::Have { .. } => Message::Have(cid),
                            Op::DontHave { .. } => Message::DontHave(cid),
                            Op::Block { corrupt: true, .. } => {
                                Message::Block { cid, data: Bytes::from_static(b"FORGED") }
                            }
                            _ => Message::Block { cid, data },
                        };
                        let from = &peers[peer];
                        let got = engine.handle_inbound(from, msg.clone(), &mut store);
                        assert_eq!(got, oracle.handle_inbound(from, msg, &mut oracle_store));
                    }
                    Op::Disconnect { peer } => {
                        let got = engine.peer_disconnected_by_session(&peers[peer]);
                        assert_eq!(got, oracle.peer_disconnected_by_session(&peers[peer]));
                    }
                    Op::Tick { nanos } => {
                        clock += nanos;
                        engine.set_clock(clock);
                        oracle.set_clock(clock);
                    }
                }
                assert_indexes(&engine);
            }
            for h in handles {
                let want = oracle.session(h);
                assert_eq!(engine.session_stats(h), want.map(|s| s.stats()));
                assert_eq!(
                    engine.session_state(h).map(|s| (s.outstanding, s.complete)),
                    want.map(|s| (s.outstanding(), s.is_complete()))
                );
                let responsive = want.map(|s| s.responsive_peers()).unwrap_or_default();
                assert_eq!(engine.responsive_session_peers(h), responsive);
            }
        }
    }
}
