//! The op lifecycle: publication (Figure 3, steps 1–3), retrieval (steps
//! 4–6) and IPNS publish/resolve (§3.3) as state machines driven by walk
//! outcomes, store settlements and session completions, each ending in a
//! phase-timed report.

use super::dht::Store;
use super::{IpfsNetwork, NetEvent, NodeId};
use crate::config::{BITSWAP_PROBE_TIMEOUT, FETCH_TIMEOUT};
use crate::ipns::IpnsRecord;
use crate::obs::{names, TraceEventKind};
use crate::ops::{
    IpnsPublishReport, IpnsResolveReport, OpId, PublishPhase, PublishReport, RetrievePhase,
    RetrieveReport,
};
use bitswap::SessionHandle;
use bytes::Bytes;
use kademlia::behaviour::QueryStats;
use kademlia::query::{QueryOutcome, QueryTarget};
use kademlia::routing::PeerInfo;
use kademlia::{Key, ProviderRecord};
use merkledag::node::DagNode;
use merkledag::BlockStore;
use multiformats::{Cid, Multicodec, PeerId};
use simnet::SimTime;
use std::collections::HashSet;
use std::sync::Arc;

/// Internal per-operation state.
pub(super) enum OpState {
    Publish {
        node: NodeId,
        cid: Cid,
        t0: SimTime,
        t_walk_end: Option<SimTime>,
        phase: PublishPhase,
        silent: bool,
        /// Final stats of the Closest walk (filled at QueryDone).
        walk_rpcs: u64,
        walk_failures: u64,
    },
    Retrieve {
        node: NodeId,
        cid: Cid,
        t0: SimTime,
        phase: RetrievePhase,
        t_bitswap_end: Option<SimTime>,
        t_provider_end: Option<SimTime>,
        t_peer_end: Option<SimTime>,
        t_fetch_start: Option<SimTime>,
        probe_session: Option<SessionHandle>,
        fetch_session: Option<SessionHandle>,
        via_bitswap: bool,
        addrbook_hit: bool,
        /// Peers that answered the opportunistic probe with HAVE (or
        /// blocks) but didn't finish the transfer in the window: they
        /// short-circuit into the fetch session's candidate set instead of
        /// being discarded with the probe.
        probe_havers: Vec<PeerId>,
        /// Every swarm member whose dial is under way: the fetch session
        /// is seeded with all of them at the first connect, so the
        /// WANT-HAVE round runs while the remaining connects finish
        /// (go-bitswap feeds discovered providers to the session the same
        /// way, ahead of their connections).
        fetch_candidates: Vec<PeerId>,
        /// Outstanding peer-record walks for secondary providers. The op
        /// fails on a failed walk only when nothing else is in flight.
        walks_outstanding: usize,
    },
    PublishIpns {
        node: NodeId,
        name: PeerId,
        value: Arc<[u8]>,
        t0: SimTime,
        t_walk_end: Option<SimTime>,
        outstanding: usize,
        stored: usize,
    },
    ResolveIpns {
        node: NodeId,
        name: PeerId,
        t0: SimTime,
    },
    /// One sweep batch: a Closest walk toward the batch's first key,
    /// then one batched ADD_PROVIDER per closest peer. Silent — sweep
    /// maintenance produces metrics, not publish reports.
    SweepBatch {
        node: NodeId,
        /// DHT keys of the CIDs in this keyspace neighborhood, in key
        /// order; shared with every batched store the walk fans out to.
        keys: Arc<[Key]>,
        /// Batched stores still in flight.
        outstanding: usize,
    },
}

/// Deferred action extracted from a borrow of the op table.
enum Action {
    Store { node: NodeId, store: Store, peers: Vec<Arc<PeerInfo>> },
    IpnsResolved { value: Option<Vec<u8>> },
    PeerWalk { node: NodeId, providers: Vec<PeerId> },
    Fetch { node: NodeId, providers: Vec<Arc<PeerInfo>> },
    JoinFetch { node: NodeId, provider: Arc<PeerInfo> },
    RetrieveFail,
    Nothing,
}

/// Bytes of `root`'s DAG held in `store`: the summed length of its
/// distinct blocks. A finished fetch verified every block against its CID,
/// so the walk only decodes links and never re-hashes.
fn dag_bytes(store: &mut impl BlockStore, root: &Cid) -> u64 {
    let mut seen = HashSet::new();
    let mut pending = vec![root.clone()];
    let mut total = 0;
    while let Some(cid) = pending.pop() {
        if !seen.insert(cid.clone()) {
            continue;
        }
        let Some(block) = store.get(&cid) else { continue };
        total += block.len() as u64;
        if cid.codec() == Multicodec::DagPb {
            if let Ok(node) = DagNode::decode(&block) {
                pending.extend(node.links.into_iter().map(|link| link.cid));
            }
        }
    }
    total
}

/// The peers a Closest walk found; empty when it found none or was not a
/// Closest walk.
fn closest_peers(outcome: QueryOutcome) -> Vec<Arc<PeerInfo>> {
    match outcome {
        QueryOutcome::Closest(peers) => peers,
        _ => Vec::new(),
    }
}

impl IpfsNetwork {
    /// Allocates the next op id.
    pub(super) fn new_op(&mut self) -> OpId {
        let op = OpId(self.next_op);
        self.next_op += 1;
        op
    }

    /// Imports content at a node (local, Figure 3 step 1) and returns the
    /// root CID.
    pub fn import_content(&mut self, id: NodeId, data: &Bytes) -> Cid {
        self.nodes[id].node.add_content(data).root
    }

    /// Starts publishing `cid` from `id` (Figure 3, steps 2–3). Returns the
    /// operation id; a [`PublishReport`] lands in
    /// [`IpfsNetwork::publish_reports`] when it completes.
    pub fn publish(&mut self, id: NodeId, cid: Cid) -> OpId {
        self.publish_inner(id, cid, false)
    }

    /// Publishes a signed IPNS record from `id` into the DHT: a Closest
    /// walk to the name's key, then a PUT_VALUE batch to the k closest
    /// servers (§3.3). Records are validated and arbitrated (by sequence
    /// number) at each storing node.
    pub fn publish_ipns(&mut self, id: NodeId, record: &IpnsRecord) -> OpId {
        let op = self.new_op();
        self.ops.insert(
            op,
            OpState::PublishIpns {
                node: id,
                name: record.name.clone(),
                value: record.encode().into(),
                t0: self.now(),
                t_walk_end: None,
                outstanding: 0,
                stored: 0,
            },
        );
        self.metrics.incr(names::IPNS_PUBLISH_OPS);
        self.start_traced_op(op, id, "ipns_publish", "walk");
        self.start_walk(id, op, Key::from_peer(&record.name), QueryTarget::Closest);
        op
    }

    /// Resolves an IPNS name from `id`: a Value walk that terminates on
    /// the first record found; the result is validated locally and cached
    /// in the node's IPNS store.
    pub fn resolve_ipns(&mut self, id: NodeId, name: &PeerId) -> OpId {
        let op = self.new_op();
        self.ops.insert(op, OpState::ResolveIpns { node: id, name: name.clone(), t0: self.now() });
        self.metrics.incr(names::IPNS_RESOLVE_OPS);
        self.start_traced_op(op, id, "ipns_resolve", "walk");
        self.start_walk(id, op, Key::from_peer(name), QueryTarget::Value);
        op
    }

    /// Opens `op`'s trace: its start and the phase it starts in.
    fn start_traced_op(&mut self, op: OpId, id: NodeId, kind: &'static str, phase: &'static str) {
        let t0 = self.now();
        self.tracer.start_op(op, id);
        self.tracer.record_with(op, t0, || TraceEventKind::OpStarted { kind });
        self.tracer.record_with(op, t0, || TraceEventKind::PhaseEntered { phase });
    }

    pub(super) fn publish_inner(&mut self, id: NodeId, cid: Cid, silent: bool) -> OpId {
        let op = self.new_op();
        let t0 = self.now();
        self.ops.insert(
            op,
            OpState::Publish {
                node: id,
                cid: cid.clone(),
                t0,
                t_walk_end: None,
                phase: PublishPhase::Walk,
                silent,
                walk_rpcs: 0,
                walk_failures: 0,
            },
        );
        if !silent {
            self.metrics.incr(names::PUBLISH_OPS);
        }
        self.start_traced_op(op, id, "publish", "walk");
        self.start_walk(id, op, Key::from_cid(&cid), QueryTarget::Closest);
        if self.cfg.auto_republish {
            self.arm_reprovide(id, cid);
        }
        op
    }

    /// Starts retrieving `cid` at `id` (Figure 3, steps 4–6). Returns the
    /// operation id; a [`RetrieveReport`] lands in
    /// [`IpfsNetwork::retrieve_reports`] when it completes.
    pub fn retrieve(&mut self, id: NodeId, cid: Cid) -> OpId {
        let op = self.new_op();
        let t0 = self.now();
        self.ops.insert(
            op,
            OpState::Retrieve {
                node: id,
                cid: cid.clone(),
                t0,
                phase: RetrievePhase::BitswapProbe,
                t_bitswap_end: None,
                t_provider_end: None,
                t_peer_end: None,
                t_fetch_start: None,
                probe_session: None,
                fetch_session: None,
                via_bitswap: false,
                addrbook_hit: false,
                probe_havers: Vec::new(),
                fetch_candidates: Vec::new(),
                walks_outstanding: 0,
            },
        );
        self.metrics.incr(names::RETRIEVE_OPS);
        self.start_traced_op(op, id, "retrieve", "bitswap_probe");
        // Opportunistic Bitswap: broadcast WANT-HAVE to connected peers
        // (§3.2, Figure 3 step 4). Idle connections expired first: the
        // connection manager would have closed them long ago, so they must
        // not feed the probe.
        self.expire_idle_connections(id, t0);
        let connected: Vec<PeerId> = self.nodes[id]
            .connections
            .peers()
            .map(|c| self.nodes[c].node.peer_id().clone())
            .collect();
        self.open_session(op, id, cid, connected, true);
        // The probe either already completed (content local) or runs
        // against the 1 s deadline.
        let still_probing = matches!(
            self.ops.get(&op),
            Some(OpState::Retrieve { phase: RetrievePhase::BitswapProbe, .. })
        );
        if still_probing {
            self.queue.schedule(BITSWAP_PROBE_TIMEOUT, NetEvent::BitswapProbeTimeout { op });
            self.tracer
                .record_with(op, t0, || TraceEventKind::TimerArmed { timer: "bitswap_probe" });
            if self.cfg.parallel_dht_and_bitswap {
                self.begin_provider_walk(op);
            }
        }
        op
    }

    pub(super) fn on_probe_timeout(&mut self, now: SimTime, op: OpId) {
        // The 1 s timeout bounds *discovery*: if a neighbour has already
        // started delivering blocks, the transfer continues rather than
        // being cancelled mid-flight.
        let Some(OpState::Retrieve { node, phase, probe_session, .. }) = self.ops.get(&op) else {
            return;
        };
        if *phase != RetrievePhase::BitswapProbe {
            return; // already advanced (e.g. satisfied via Bitswap)
        }
        let in_progress = probe_session
            .and_then(|s| self.nodes[*node].node.bitswap.session_state(s))
            .is_some_and(|st| st.received > 0);
        if in_progress {
            // Guard the continuing transfer like any fetch.
            self.queue.schedule(FETCH_TIMEOUT, NetEvent::FetchTimeout { op });
            return;
        }
        self.metrics.incr(names::BITSWAP_PROBE_TIMEOUTS);
        self.tracer.record_with(op, now, || TraceEventKind::TimerFired { timer: "bitswap_probe" });
        self.tracer
            .record_with(op, now, || TraceEventKind::PhaseEntered { phase: "provider_walk" });
        let Some(OpState::Retrieve {
            node, phase, probe_session, t_bitswap_end, probe_havers, ..
        }) = self.ops.get_mut(&op)
        else {
            return;
        };
        *t_bitswap_end = Some(now);
        *phase = RetrievePhase::ProviderWalk;
        let node = *node;
        if let Some(session) = probe_session.take() {
            // Don't discard what the probe learned: peers that answered
            // HAVE seed the fetch session's candidate set.
            *probe_havers = self.nodes[node].node.bitswap.responsive_session_peers(session);
            self.close_session(op, node, session, true);
        }
        if !self.cfg.parallel_dht_and_bitswap {
            self.begin_provider_walk(op);
        }
    }

    fn begin_provider_walk(&mut self, op: OpId) {
        let Some(OpState::Retrieve { node, cid, .. }) = self.ops.get(&op) else {
            return;
        };
        let (node, key) = (*node, Key::from_cid(cid));
        self.start_walk(node, op, key, QueryTarget::Providers);
    }

    /// A walk owned by `op` converged: advance the op's state machine.
    pub(super) fn on_query_done(&mut self, op: OpId, outcome: QueryOutcome, stats: QueryStats) {
        let now = self.now();
        self.tracer.record_with(op, now, || TraceEventKind::QueryConverged {
            rpcs: stats.rpcs_sent,
            responses: stats.responses,
            failures: stats.failures,
            hops: stats.max_hops,
        });
        self.metrics.observe_handle(self.hot.dht_walk_rpcs, stats.rpcs_sent as f64);
        // A probe session to cancel once the op-table borrow is released.
        let mut probe_cancel: Option<(NodeId, SessionHandle)> = None;
        // Phase 1: update op state under a scoped borrow, extract an action.
        let action = {
            let Some(state) = self.ops.get_mut(&op) else { return };
            match state {
                OpState::Publish {
                    node, cid, t_walk_end, phase, walk_rpcs, walk_failures, ..
                } => {
                    *t_walk_end = Some(now);
                    *walk_rpcs = stats.rpcs_sent;
                    *walk_failures = stats.failures;
                    let peers = closest_peers(outcome);
                    if !peers.is_empty() {
                        *phase = PublishPhase::RpcBatch { outstanding: peers.len(), stored: 0 };
                    }
                    let provider = Arc::clone(self.nodes[*node].node.info());
                    let store = Store::Provider { key: Key::from_cid(cid), provider };
                    Action::Store { node: *node, store, peers }
                }
                OpState::SweepBatch { node, keys, outstanding } => {
                    let peers = closest_peers(outcome);
                    *outstanding = peers.len();
                    // One batched ADD_PROVIDER per closest peer carries every
                    // CID in the neighborhood — k messages for the whole
                    // batch instead of k per CID.
                    let provider = Arc::clone(self.nodes[*node].node.info());
                    let store = Store::Batch { keys: Arc::clone(keys), provider };
                    Action::Store { node: *node, store, peers }
                }
                OpState::PublishIpns { node, name, value, t_walk_end, outstanding, .. } => {
                    *t_walk_end = Some(now);
                    let peers = closest_peers(outcome);
                    *outstanding = peers.len();
                    let store =
                        Store::Value { key: Key::from_peer(name), value: Arc::clone(value) };
                    Action::Store { node: *node, store, peers }
                }
                OpState::ResolveIpns { .. } => Action::IpnsResolved {
                    value: match outcome {
                        QueryOutcome::Value { value, .. } => Some(value),
                        _ => None,
                    },
                },
                OpState::Retrieve {
                    node,
                    phase,
                    t_bitswap_end,
                    t_provider_end,
                    t_peer_end,
                    probe_session,
                    probe_havers,
                    walks_outstanding,
                    ..
                } => match (&*phase, outcome) {
                    // A provider-walk result can arrive while still in the
                    // Bitswap probe when the parallel-lookup ablation is on
                    // (§6.4): the DHT won the race, so cancel the probe and
                    // proceed.
                    (
                        RetrievePhase::ProviderWalk | RetrievePhase::BitswapProbe,
                        QueryOutcome::Providers { records, .. },
                    ) => {
                        if *phase == RetrievePhase::BitswapProbe {
                            t_bitswap_end.get_or_insert(now);
                            if let Some(session) = probe_session.take() {
                                // Cancelled out-of-band below (phase 2 needs
                                // fresh borrows), carrying any peers the
                                // probe turned up into the fetch path.
                                *probe_havers = self.nodes[*node]
                                    .node
                                    .bitswap
                                    .responsive_session_peers(session);
                                probe_cancel = Some((*node, session));
                            }
                        }
                        *t_provider_end = Some(now);
                        // The whole provider set seeds the fetch swarm
                        // (deduped, order-preserving, capped) instead of
                        // just the first record.
                        let mut unique: Vec<&ProviderRecord> = Vec::new();
                        for r in &records {
                            if !unique.iter().any(|u| u.provider == r.provider) {
                                unique.push(r);
                            }
                        }
                        unique.truncate(self.cfg.max_fetch_providers.max(1));
                        let primary_carries =
                            self.cfg.provider_records_carry_addrs && !unique[0].addrs.is_empty();
                        if primary_carries {
                            *t_peer_end = Some(now);
                            *phase = RetrievePhase::Fetch;
                            let providers = unique
                                .iter()
                                .filter(|r| !r.addrs.is_empty())
                                .map(|r| {
                                    Arc::new(PeerInfo::new(r.provider.clone(), r.addrs.clone()))
                                })
                                .collect();
                            Action::Fetch { node: *node, providers }
                        } else {
                            // Defer the address-book lookups to phase 2
                            // (they need a different borrow); stash intent.
                            Action::PeerWalk {
                                node: *node,
                                providers: unique.iter().map(|r| r.provider.clone()).collect(),
                            }
                        }
                    }
                    (RetrievePhase::PeerWalk | RetrievePhase::Fetch, QueryOutcome::Peer(found)) => {
                        *walks_outstanding = walks_outstanding.saturating_sub(1);
                        match (found, *phase == RetrievePhase::PeerWalk) {
                            (Some(info), true) => {
                                *t_peer_end = Some(now);
                                *phase = RetrievePhase::Fetch;
                                Action::Fetch { node: *node, providers: vec![info] }
                            }
                            // A secondary provider's walk resolved after the
                            // swarm started: dial it into the running session.
                            (Some(info), _) => Action::JoinFetch { node: *node, provider: info },
                            (None, true) if *walks_outstanding == 0 => Action::RetrieveFail,
                            (None, _) => Action::Nothing,
                        }
                    }
                    _ => Action::RetrieveFail,
                },
            }
        };
        // Phase 2: perform the action with fresh borrows.
        if let Some((node, session)) = probe_cancel {
            self.close_session(op, node, session, true);
        }
        match action {
            Action::Store { peers, .. } if peers.is_empty() => self.finish_store_op(now, op, false),
            Action::Store { node, store, peers } => {
                // Sweep maintenance is silent; publications enter their
                // store batch.
                if !matches!(store, Store::Batch { .. }) {
                    self.tracer.record_with(op, now, || TraceEventKind::PhaseEntered {
                        phase: "rpc_batch",
                    });
                }
                for target in peers {
                    self.send_store(op, node, &target.peer, store.clone());
                }
            }
            Action::IpnsResolved { value } => self.finish_ipns_resolve(now, op, value),
            Action::PeerWalk { node, providers } => self.resolve_providers(op, node, providers),
            Action::Fetch { node, providers } => {
                for provider in &providers {
                    self.nodes[node].node.addr_book.insert_info(provider);
                }
                self.start_fetch(op, node, providers);
            }
            Action::JoinFetch { node, provider } => {
                self.nodes[node].node.addr_book.insert_info(&provider);
                self.join_fetch(op, node, provider);
            }
            Action::RetrieveFail => self.finish_retrieve(now, op, false),
            Action::Nothing => {}
        }
    }

    /// §3.2: check the address book before the second walk — for every
    /// provider in the swarm. Book hits dial now; misses get their own
    /// peer-record walks and join the fetch as they resolve.
    fn resolve_providers(&mut self, op: OpId, node: NodeId, providers: Vec<PeerId>) {
        let now = self.now();
        let mut dial_now: Vec<Arc<PeerInfo>> = Vec::new();
        let mut to_walk: Vec<PeerId> = Vec::new();
        let mut primary_hit = false;
        for (i, provider) in providers.into_iter().enumerate() {
            if let Some(addrs) = self.nodes[node].node.addr_book.lookup(&provider) {
                if i == 0 {
                    primary_hit = true;
                }
                dial_now.push(Arc::new(PeerInfo::new(provider, addrs)));
            } else {
                to_walk.push(provider);
            }
        }
        if !dial_now.is_empty() {
            if let Some(OpState::Retrieve {
                phase,
                t_peer_end,
                addrbook_hit,
                walks_outstanding,
                ..
            }) = self.ops.get_mut(&op)
            {
                *t_peer_end = Some(now);
                *phase = RetrievePhase::Fetch;
                *addrbook_hit = primary_hit;
                *walks_outstanding = to_walk.len();
            }
            self.metrics.incr(names::ADDR_BOOK_HITS);
            self.tracer.record_with(op, now, || TraceEventKind::AddrBookHit);
            self.start_fetch(op, node, dial_now);
        } else {
            if let Some(OpState::Retrieve { phase, walks_outstanding, .. }) = self.ops.get_mut(&op)
            {
                *phase = RetrievePhase::PeerWalk;
                *walks_outstanding = to_walk.len();
            }
            self.tracer
                .record_with(op, now, || TraceEventKind::PhaseEntered { phase: "peer_walk" });
        }
        for provider in to_walk {
            let key = Key::from_peer(&provider);
            self.start_walk(node, op, key, QueryTarget::Peer(provider));
        }
    }

    /// One store of `op` settled at the sender; the op ends when its last
    /// store settles.
    pub(super) fn on_store_settled(&mut self, now: SimTime, op: OpId, ok: bool) {
        let done = match self.ops.get_mut(&op) {
            Some(OpState::Publish {
                phase: PublishPhase::RpcBatch { outstanding, stored },
                ..
            })
            | Some(OpState::PublishIpns { outstanding, stored, .. }) => {
                *stored += usize::from(ok);
                *outstanding -= 1;
                *outstanding == 0
            }
            Some(OpState::SweepBatch { outstanding, .. }) => {
                *outstanding -= 1;
                *outstanding == 0
            }
            _ => false,
        };
        if done {
            self.finish_store_op(now, op, true);
        }
    }

    /// Ends a store op, once its last store settled or, with `settled`
    /// false, when its walk found nobody to store at. A publication
    /// reports; a sweep batch ends silently.
    fn finish_store_op(&mut self, now: SimTime, op: OpId, settled: bool) {
        match self.ops.get(&op) {
            Some(OpState::Publish { .. }) => self.finish_publish(now, op, settled),
            Some(OpState::PublishIpns { .. }) => self.finish_ipns_publish(now, op),
            Some(OpState::SweepBatch { .. }) => {
                if !settled {
                    // These CIDs miss this refresh round and retry at the
                    // next sweep (their records survive — expiry is 24 h
                    // against a 12 h sweep cadence).
                    self.metrics.incr(names::PROVIDER_SWEEP_BATCH_FAILED);
                }
                self.ops.remove(&op);
            }
            _ => {}
        }
    }

    pub(super) fn on_session_complete(&mut self, op: OpId, session: SessionHandle) {
        let now = self.now();
        let Some(OpState::Retrieve { phase, probe_session, via_bitswap, t_bitswap_end, .. }) =
            self.ops.get_mut(&op)
        else {
            return;
        };
        let finish = match phase {
            RetrievePhase::BitswapProbe if *probe_session == Some(session) => {
                // A neighbour had the content: resolved via Bitswap.
                *via_bitswap = true;
                *t_bitswap_end = Some(now);
                true
            }
            RetrievePhase::Fetch => true,
            _ => false,
        };
        if finish {
            self.finish_retrieve(now, op, true);
        }
    }

    fn finish_publish(&mut self, now: SimTime, op: OpId, success: bool) {
        let Some(OpState::Publish {
            node,
            cid,
            t0,
            t_walk_end,
            phase,
            silent,
            walk_rpcs,
            walk_failures,
        }) = self.ops.remove(&op)
        else {
            return;
        };
        if silent {
            return;
        }
        let t_walk = t_walk_end.unwrap_or(now);
        let stored = match phase {
            PublishPhase::RpcBatch { stored, .. } => stored,
            PublishPhase::Walk => 0,
        };
        let ok = success && stored > 0;
        self.metrics.incr(if ok { names::PUBLISH_SUCCESS } else { names::PUBLISH_FAILED });
        self.tracer.record_with(op, now, || TraceEventKind::OpFinished { success: ok });
        self.publish_reports.push(PublishReport {
            op,
            node,
            cid,
            started_at: t0,
            total: now - t0,
            dht_walk: t_walk - t0,
            rpc_batch: now - t_walk,
            records_stored: stored,
            walk_rpcs,
            walk_failures,
            success: ok,
        });
    }

    pub(super) fn finish_retrieve(&mut self, now: SimTime, op: OpId, success: bool) {
        let Some(OpState::Retrieve {
            node,
            cid,
            t0,
            t_bitswap_end,
            t_provider_end,
            t_peer_end,
            t_fetch_start,
            probe_session,
            fetch_session,
            via_bitswap,
            addrbook_hit,
            ..
        }) = self.ops.remove(&op)
        else {
            return;
        };
        for s in [probe_session, fetch_session].into_iter().flatten() {
            self.close_session(op, node, s, !success);
        }
        let t_bs = t_bitswap_end.unwrap_or(now);
        let t_prov = t_provider_end.unwrap_or(t_bs);
        let t_peer = t_peer_end.unwrap_or(t_prov);
        let t_fetch0 = t_fetch_start.unwrap_or(t_peer);
        let bytes = if success { dag_bytes(&mut self.nodes[node].node.store, &cid) } else { 0 };
        self.metrics.incr(if success { names::RETRIEVE_SUCCESS } else { names::RETRIEVE_FAILED });
        if success && via_bitswap {
            self.metrics.incr(names::RETRIEVE_VIA_BITSWAP);
        }
        self.tracer.record_with(op, now, || TraceEventKind::OpFinished { success });
        self.retrieve_reports.push(RetrieveReport {
            op,
            node,
            cid: cid.clone(),
            started_at: t0,
            total: now - t0,
            bitswap_probe: t_bs - t0,
            provider_walk: t_prov - t_bs,
            peer_walk: t_peer - t_prov,
            fetch: now - t_fetch0,
            bytes,
            success,
            via_bitswap,
            addrbook_hit,
        });
        self.tracer.finish_retrieval(op, node, success, t0, now);
        // §3.1: "any peer that later retrieves the data becomes a
        // temporary ... content provider themselves by publishing a
        // provider record".
        if success && self.cfg.retriever_becomes_provider {
            self.publish_inner(node, cid, true);
        }
    }

    fn finish_ipns_publish(&mut self, now: SimTime, op: OpId) {
        let Some(OpState::PublishIpns { node, name, t0, t_walk_end, stored, .. }) =
            self.ops.remove(&op)
        else {
            return;
        };
        let t_walk = t_walk_end.unwrap_or(now);
        let ok = stored > 0;
        let outcome = if ok { names::IPNS_PUBLISH_SUCCESS } else { names::IPNS_PUBLISH_FAILED };
        self.metrics.incr(outcome);
        self.tracer.record_with(op, now, || TraceEventKind::OpFinished { success: ok });
        self.ipns_publish_reports.push(IpnsPublishReport {
            op,
            node,
            name,
            total: now - t0,
            dht_walk: t_walk - t0,
            records_stored: stored,
            success: ok,
        });
    }

    fn finish_ipns_resolve(&mut self, now: SimTime, op: OpId, value: Option<Vec<u8>>) {
        let Some(OpState::ResolveIpns { node, name, t0 }) = self.ops.remove(&op) else {
            return;
        };
        // Validate the record locally (signature, name binding, expiry) —
        // the resolver never trusts the serving peer (§3.3).
        let record = value
            .and_then(|v| IpnsRecord::decode(&v))
            .filter(|r| r.name == name && r.validate(now).is_ok());
        if let Some(r) = &record {
            let _ = self.nodes[node].node.ipns.put(r.clone(), now);
        }
        let success = record.is_some();
        let outcome =
            if success { names::IPNS_RESOLVE_SUCCESS } else { names::IPNS_RESOLVE_FAILED };
        self.metrics.incr(outcome);
        self.tracer.record_with(op, now, || TraceEventKind::OpFinished { success });
        self.ipns_resolve_reports.push(IpnsResolveReport {
            op,
            node,
            name,
            total: now - t0,
            record,
            success,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::small_net;
    use super::*;

    #[test]
    fn retrieve_reports_the_size_of_its_own_dag() {
        let mut net = small_net(300, 12);
        let [provider, requester] = net.vantage_ids(2)[..] else { panic!() };
        // Non-repeating bytes, so no two leaves share a block.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut payload = |len: usize| {
            Bytes::from(
                (0..len)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x as u8
                    })
                    .collect::<Vec<u8>>(),
            )
        };
        let small = net.import_content(provider, &payload(100_000));
        let large = net.import_content(provider, &payload(700_000));
        for cid in [&small, &large] {
            net.publish(provider, cid.clone());
            net.run_until_quiet();
            net.retrieve(requester, cid.clone());
            net.run_until_quiet();
        }
        let dag_bytes = |net: &mut IpfsNetwork, cid: &Cid| -> u64 {
            let store = &mut net.node_mut(provider).store;
            let blocks = merkledag::Resolver::new(store).block_list(cid).unwrap();
            blocks.iter().map(|c| store.get(c).unwrap().len() as u64).sum()
        };
        let expected = dag_bytes(&mut net, &large);
        let [first, second] = &net.retrieve_reports[..] else { panic!() };
        assert!(first.success && second.success);
        // A raw single-block object is its own payload; the larger one
        // adds its root node to three leaves.
        assert_eq!(first.bytes, 100_000);
        assert_eq!(second.bytes, expected);
        assert!(second.bytes > 700_000);
    }
}
