//! The Bitswap driver: the opportunistic probe and fetch sessions
//! (§3.2), the swarm dials that feed a fetch, message delivery with
//! per-uplink serialization, and the disconnect fallout of a departing
//! peer.

use super::lifecycle::OpState;
use super::obs_hooks::bitswap_kind;
use super::verify::{Verdict, Verifier};
use super::{IpfsNetwork, NetEvent, NodeId};
use crate::config::FETCH_TIMEOUT;
use crate::obs::dtrace::TraceCtx;
use crate::obs::{names, TraceEventKind, TraceLevel};
use crate::ops::{OpId, RetrievePhase};
use bitswap::{EngineOutput, Message, SessionConfig, SessionHandle};
use bytes::Bytes;
use kademlia::routing::PeerInfo;
use multiformats::{Cid, PeerId};
use simnet::{SimDuration, SimTime};
use std::collections::HashMap;
use std::sync::Arc;

/// The Bitswap driver's state beyond the nodes' own engines.
pub(super) struct Exchange {
    /// Which operation owns each Bitswap session.
    session_owner: HashMap<(NodeId, SessionHandle), OpId>,
    /// When each node's uplink finishes serializing the blocks it has
    /// already committed to send. Concurrent BLOCK transfers from one
    /// sender queue behind each other here (`sample_transfer` prices each
    /// message in isolation), so a swarm's aggregate goodput scales with
    /// the number of uplinks it draws from — the physics the swarm bench
    /// measures. Control messages are negligible and skip the queue, and
    /// an isolated single block sees zero wait, keeping the
    /// single-provider path's timing (and RNG stream) unchanged.
    uplink_free_at: Vec<SimTime>,
    /// Hashes large BLOCKs on a second core while they are in flight.
    pub(super) verifier: Verifier,
}

impl Exchange {
    pub(super) fn new(nodes: usize) -> Exchange {
        Exchange {
            session_owner: HashMap::new(),
            uplink_free_at: vec![SimTime::ZERO; nodes],
            verifier: Verifier::new(),
        }
    }
}

impl IpfsNetwork {
    /// Starts a Bitswap session for `op` at `node` over `peers` and runs
    /// its first outputs. `probe` says whether it is the op's
    /// opportunistic probe or its fetch session.
    pub(super) fn open_session(
        &mut self,
        op: OpId,
        node: NodeId,
        cid: Cid,
        peers: Vec<PeerId>,
        probe: bool,
    ) {
        let session_cfg = SessionConfig {
            duplicate_factor: self.cfg.duplicate_factor,
            ..SessionConfig::default()
        };
        let now = self.now();
        let n = &mut self.nodes[node];
        n.node.bitswap.set_clock(now.as_nanos());
        let (session, outputs) =
            n.node.bitswap.start_session_with(cid, peers, session_cfg, &mut n.node.store);
        if let Some(OpState::Retrieve { probe_session, fetch_session, .. }) = self.ops.get_mut(&op)
        {
            let slot = if probe { probe_session } else { fetch_session };
            *slot = Some(session);
        }
        self.exchange.session_owner.insert((node, session), op);
        let ctx = self.op_ctx(node, op);
        self.process_bitswap_outputs(node, outputs, ctx);
    }

    /// Ends `op`'s `session` at `node`: exports its counters and, when
    /// `cancel` is set, CANCELs everything still in flight and drops it,
    /// so a later disconnect can't resurrect a dead op's wants.
    pub(super) fn close_session(
        &mut self,
        op: OpId,
        node: NodeId,
        session: SessionHandle,
        cancel: bool,
    ) {
        self.exchange.session_owner.remove(&(node, session));
        self.drain_session_obs(node, session);
        if cancel {
            let outputs = self.nodes[node].node.bitswap.cancel_session(session);
            let ctx = self.op_ctx(node, op);
            self.process_bitswap_outputs(node, outputs, ctx);
        }
    }

    /// Exports a session's counters and per-peer latency samples into the
    /// metrics registry through pre-resolved handles. Called exactly once
    /// per session, right before it is cancelled or its op finishes.
    fn drain_session_obs(&mut self, node: NodeId, session: SessionHandle) {
        if let Some(stats) = self.nodes[node].node.bitswap.session_stats(session) {
            self.metrics.add_handle(self.hot.session_wants_sent, stats.wants_sent);
            self.metrics.add_handle(self.hot.session_reroutes, stats.reroutes);
        }
        let samples = self.nodes[node].node.bitswap.take_latency_samples(session);
        for (_peer, nanos) in samples {
            self.metrics.observe_handle(self.hot.peer_latency_ms, nanos as f64 / 1e6);
        }
    }

    /// Dials every provider of the swarm concurrently. The first
    /// connection to come up creates the fetch session; later ones join it
    /// ([`IpfsNetwork::on_fetch_connected`]). One guard timer covers the
    /// whole fetch.
    pub(super) fn start_fetch(&mut self, op: OpId, node: NodeId, providers: Vec<Arc<PeerInfo>>) {
        let now = self.now();
        if let Some(OpState::Retrieve { t_fetch_start, .. }) = self.ops.get_mut(&op) {
            *t_fetch_start = Some(now);
        }
        self.tracer.record_with(op, now, || TraceEventKind::PhaseEntered { phase: "fetch" });
        let mut guard_armed = false;
        let mut fail_delays: Vec<SimDuration> = Vec::new();
        for provider in providers {
            match self.dial_provider(op, node, &provider.peer, now) {
                Ok(()) if !guard_armed => {
                    self.queue.schedule(FETCH_TIMEOUT, NetEvent::FetchTimeout { op });
                    self.tracer.record_with(op, now, || TraceEventKind::TimerArmed {
                        timer: "fetch_guard",
                    });
                    guard_armed = true;
                }
                Ok(()) => {}
                Err(delay) => fail_delays.push(delay),
            }
        }
        if !guard_armed {
            // Every provider unreachable: the retrieval fails once the
            // slowest dial timeout has burned.
            let delay = fail_delays.into_iter().max().unwrap_or(FETCH_TIMEOUT);
            self.queue.schedule(delay, NetEvent::FetchTimeout { op });
        }
    }

    /// Dials one extra provider for an already-running fetch (a secondary
    /// peer-record walk resolved after the swarm started). Dial failures
    /// are simply dropped — the running session carries the transfer.
    pub(super) fn join_fetch(&mut self, op: OpId, node: NodeId, provider: Arc<PeerInfo>) {
        let now = self.now();
        let _ = self.dial_provider(op, node, &provider.peer, now);
    }

    /// Dials one swarm member for `op`. A dial that succeeds adds the peer
    /// to the op's fetch candidates and schedules its `FetchConnected`; a
    /// dial that fails returns the delay it burned.
    fn dial_provider(
        &mut self,
        op: OpId,
        node: NodeId,
        provider: &PeerId,
        now: SimTime,
    ) -> Result<(), SimDuration> {
        let peer = self.trace_peer(provider);
        self.tracer.record_with(op, now, || TraceEventKind::DialStarted { peer });
        match self.dial(node, provider) {
            Some((_, connect_delay)) => {
                let warm = connect_delay == SimDuration::ZERO;
                self.tracer.record_with(op, now, || TraceEventKind::DialOk { peer, warm });
                if let Some(OpState::Retrieve { fetch_candidates, .. }) = self.ops.get_mut(&op) {
                    if !fetch_candidates.contains(provider) {
                        fetch_candidates.push(provider.clone());
                    }
                }
                self.queue.schedule(
                    connect_delay,
                    NetEvent::FetchConnected { op, provider: provider.clone() },
                );
                Ok(())
            }
            None => {
                let (delay, class) = self.sample_fail_delay();
                self.tracer.record_with(op, now, || TraceEventKind::DialFailed { peer, class });
                Err(delay)
            }
        }
    }

    pub(super) fn on_fetch_connected(&mut self, op: OpId, provider: PeerId) {
        let Some(OpState::Retrieve {
            node,
            cid,
            fetch_session,
            probe_havers,
            fetch_candidates,
            ..
        }) = self.ops.get(&op)
        else {
            return;
        };
        let (node, cid, existing, havers, candidates) =
            (*node, cid.clone(), *fetch_session, probe_havers.clone(), fetch_candidates.clone());
        let now = self.now();
        if self.tracer.records(TraceLevel::OpLog) {
            // The dial component of the §6.2 split ends here: the
            // connection to the provider is up (instantly for warm
            // reuse) and the Bitswap exchange begins.
            let peer = self.trace_peer(&provider);
            self.tracer.record_with(op, now, || TraceEventKind::DialCompleted { peer });
        }
        if let Some(session) = existing {
            // A later swarm member came up: join the running session.
            let n = &mut self.nodes[node];
            n.node.bitswap.set_clock(now.as_nanos());
            let outputs = n.node.bitswap.add_session_peer(session, provider, &mut n.node.store);
            let ctx = self.op_ctx(node, op);
            self.process_bitswap_outputs(node, outputs, ctx);
            return;
        }
        // First connection up: create the session. Every swarm member
        // whose dial is still completing joins the candidate set now (the
        // WANT-HAVE round overlaps their connects), and peers that
        // answered the opportunistic probe with HAVE short-circuit in —
        // they already proved they hold (part of) the content.
        let mut peers = vec![provider];
        for candidate in candidates.into_iter().chain(havers) {
            if !peers.contains(&candidate) {
                peers.push(candidate);
            }
        }
        self.open_session(op, node, cid, peers, false);
    }

    pub(super) fn on_bitswap_arrive(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        message: Message,
        verdict: Option<Arc<Verdict>>,
        ctx: TraceCtx,
    ) {
        if !self.online[to] || self.cut_in_flight(from, to) {
            return; // dropped; guard timers handle the fallout
        }
        self.metrics.incr_handle(self.hot.bitswap_recv[bitswap_kind(&message)]);
        let from_peer = self.nodes[from].node.peer_id().clone();
        let n = &mut self.nodes[to];
        n.node.bitswap.set_clock(now.as_nanos());
        let verify = |cid: &Cid, data: &Bytes| match &verdict {
            Some(verdict) => verdict.check(cid, data),
            None => cid.hash().verify(data),
        };
        let outputs =
            n.node.bitswap.handle_inbound_with(&from_peer, message, &mut n.node.store, verify);
        // Replies echo the inbound causal context: a responder's BLOCK
        // carries the op's trace id even though the responder owns no
        // session for it.
        self.process_bitswap_outputs(to, outputs, ctx);
    }

    /// Drops every connection of a departing node. Each neighbour's
    /// sessions re-queue wants that were in flight at the dead peer onto
    /// their surviving candidates (§3.2 swarm resilience). A no-op (zero
    /// messages, zero RNG draws) for neighbours with no live session
    /// touching this peer, so runs without fetch-phase faults are
    /// byte-identical.
    pub(super) fn drop_connections(&mut self, id: NodeId) {
        let dead_peer = self.nodes[id].node.peer_id().clone();
        let now = self.now();
        for p in self.nodes[id].connections.drain() {
            self.nodes[p].connections.remove(id);
            self.nodes[p].node.bitswap.set_clock(now.as_nanos());
            // Per-session grouping keeps each re-routed want attributed
            // to the op that owns the session, so the flight recorder
            // can name exactly which wants moved where and why.
            let grouped = self.nodes[p].node.bitswap.peer_disconnected_by_session(&dead_peer);
            for (session, outputs) in grouped {
                let op = self.exchange.session_owner.get(&(p, session)).copied();
                let ctx = op.map(|o| self.op_ctx(p, o)).unwrap_or(TraceCtx::NONE);
                if self.tracer.records(TraceLevel::Stitch) {
                    if let Some(op) = op {
                        self.tracer.flag(op);
                        self.record_reroute_fragments(op, p, id, &outputs, now);
                    }
                }
                self.process_bitswap_outputs(p, outputs, ctx);
            }
        }
    }

    fn process_bitswap_outputs(&mut self, id: NodeId, outputs: Vec<EngineOutput>, ctx: TraceCtx) {
        for output in outputs {
            match output {
                EngineOutput::Send { to, message } => {
                    let Some(target) = self.resolve(&to) else { continue };
                    // The Bitswap engine tracks session peers on its own;
                    // a partition that severed the connection set must
                    // also stop sends the engine still believes possible.
                    if self.cut_in_flight(id, target) || self.degraded_loss(id, target) {
                        continue; // session guard timers handle the fallout
                    }
                    self.metrics.incr_handle(self.hot.bitswap_sent[bitswap_kind(&message)]);
                    let delay = self.message_delay(id, target, &message, ctx);
                    let verdict = match &message {
                        Message::Block { cid, data } => self.exchange.verifier.enqueue(cid, data),
                        _ => None,
                    };
                    self.queue.schedule(
                        delay,
                        NetEvent::BitswapArrive {
                            from: id,
                            to: target,
                            message: Box::new(message),
                            verdict,
                            ctx,
                        },
                    );
                }
                EngineOutput::SessionComplete { session } => {
                    if let Some(op) = self.exchange.session_owner.remove(&(id, session)) {
                        self.on_session_complete(op, session);
                    }
                }
                EngineOutput::BlockStored { session, .. } => {
                    self.metrics.incr(names::BITSWAP_BLOCKS_STORED);
                    self.metrics.incr_handle(self.hot.session_blocks_received);
                    if self.tracer.records(TraceLevel::OpLog) {
                        if let Some(&op) = self.exchange.session_owner.get(&(id, session)) {
                            let now = self.now();
                            self.tracer.record_with(op, now, || TraceEventKind::BlockReceived);
                        }
                    }
                }
                EngineOutput::DuplicateBlock { .. } => {
                    // A duplicate-factor race (or re-routed want) delivered
                    // the same block twice: wasted bytes, counted.
                    self.metrics.incr_handle(self.hot.session_dup_blocks);
                }
                EngineOutput::WantFailed { session, .. } => {
                    // Expected during the probe phase (neighbours lack the
                    // content); fatal during a fetch (provider reneged).
                    let Some(&op) = self.exchange.session_owner.get(&(id, session)) else {
                        continue;
                    };
                    if matches!(
                        self.ops.get(&op),
                        Some(OpState::Retrieve { phase: RetrievePhase::Fetch, .. })
                    ) {
                        self.exchange.session_owner.remove(&(id, session));
                        self.finish_retrieve(self.now(), op, false);
                    }
                }
            }
        }
    }

    /// The delivery delay of one Bitswap message from `id` to `target`:
    /// the sampled transfer time, plus, for a BLOCK, the wait behind
    /// blocks already committed to the sender's uplink.
    fn message_delay(
        &mut self,
        id: NodeId,
        target: NodeId,
        message: &Message,
        ctx: TraceCtx,
    ) -> SimDuration {
        let (from, to) = (&self.nodes[id], &self.nodes[target]);
        let (from_region, from_bw) = (from.region, from.bandwidth);
        let (to_region, to_bw) = (to.region, to.bandwidth);
        let delay = self.latency.sample_transfer(
            &mut self.rng,
            message.wire_size(),
            from_region,
            from_bw,
            to_region,
            to_bw,
        );
        let delay = self.inflate_latency(delay, from_region, to_region);
        let Message::Block { data, .. } = message else { return delay };
        // BLOCK payloads serialize at the sender's uplink: concurrent
        // transfers queue behind each other (zero wait for an isolated
        // block, so single-provider timings are untouched).
        // `sample_transfer` already prices this block's own serialization;
        // the queue adds only the wait for earlier committed blocks.
        let now = self.now();
        let start = self.exchange.uplink_free_at[id].max(now);
        let tx = SimDuration::from_secs_f64((data.len() as f64 * 8.0) / from_bw.up_bps() as f64);
        self.exchange.uplink_free_at[id] = start + tx;
        // The serve span a remote peer contributes to the requester's
        // trace: this block's serialization at the sender's uplink, with
        // the queue wait behind earlier blocks kept in `b`.
        self.tracer.record_span(
            ctx,
            id,
            Some(target),
            "bs",
            "block_serve",
            data.len() as u64,
            start.since(now).as_nanos(),
            start,
            start + tx,
        );
        delay + start.since(now)
    }
}
