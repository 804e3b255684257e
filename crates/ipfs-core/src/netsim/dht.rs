//! The DHT driver: the oracle bootstrap and join-time announcements that
//! stand in for self-lookups, periodic table refresh, query RPCs with
//! their guard timeouts, and the fire-and-forget stores that publication
//! (§3.1) and IPNS (§3.3) end with.

use super::obs_hooks::request_kind;
use super::{IpfsNetwork, NetEvent, NodeId, SimNode};
use crate::config::{
    BOOTSTRAP_NEAR_PEERS, BOOTSTRAP_RANDOM_PEERS, RPC_TIMEOUT, SERVER_PROCESSING, STALE_DIAL_PROB,
};
use crate::obs::dtrace::TraceCtx;
use crate::obs::{names, TraceEventKind, TraceLevel};
use crate::ops::OpId;
use kademlia::behaviour::{DhtOutput, QueryId};
use kademlia::query::QueryTarget;
use kademlia::routing::PeerInfo;
use kademlia::rpc::{Request, Response};
use kademlia::Key;
use multiformats::{Cid, PeerId};
use rand::Rng;
use simnet::{SimDuration, SimTime};
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::Arc;

/// The DHT driver's state beyond the nodes' own behaviours.
#[derive(Default)]
pub(super) struct DhtState {
    /// Which operation owns each outstanding query.
    query_owner: HashMap<(NodeId, QueryId), OpId>,
    /// Outstanding query RPCs by (requester, query, target DHT key), for
    /// stale-timeout suppression.
    pending_rpcs: HashSet<(NodeId, QueryId, Key)>,
    /// All DHT servers sorted by key, online or not — used by the
    /// join-time announcement (each churn-online event re-inserts the peer
    /// near its key, the effect a real node's bootstrap self-lookup has)
    /// and by catalog seeding.
    sorted_servers: ServerIndex,
    /// The neighbourhood kernel's scratch buffer, reused by every join
    /// and every seeded record.
    nearby: Vec<(u64, u32)>,
}

/// Peers sorted by key, as parallel columns: the neighbourhood kernel
/// scans the dense keys, and a peer's shared identity (the same `Arc` as
/// its node's `info()`) is read only when a table stores it.
#[derive(Default)]
struct ServerIndex {
    keys: Vec<Key>,
    ids: Vec<NodeId>,
    infos: Vec<Arc<PeerInfo>>,
}

impl ServerIndex {
    /// The nodes `pick` accepts, sorted by key (`keys[i]` is node `i`'s).
    fn build(
        nodes: &[SimNode],
        keys: &[Key],
        mut pick: impl FnMut(NodeId, &SimNode) -> bool,
    ) -> ServerIndex {
        let mut sorted: Vec<(Key, NodeId)> =
            (0..nodes.len()).filter(|&i| pick(i, &nodes[i])).map(|i| (keys[i], i)).collect();
        // Ties on the key (impossible for SHA-256 keys) fall back to the
        // node id, so this equals a stable sort by key.
        sorted.sort_unstable();
        let infos = sorted.iter().map(|&(_, i)| Arc::clone(nodes[i].node.info())).collect();
        let (keys, ids) = sorted.into_iter().unzip();
        ServerIndex { keys, ids, infos }
    }
}

/// The top 64 bits of the XOR distance between `a` and `b`.
fn distance_prefix(a: &Key, b: &Key) -> u64 {
    let head = |k: &Key| u64::from_be_bytes(k.0[..8].try_into().expect("a key has 32 bytes"));
    head(a) ^ head(b)
}

/// The `width` entries of `keys` (sorted) on either side of `target`'s
/// position: XOR-near implies a shared prefix implies numeric adjacency.
fn window(keys: &[Key], target: &Key, width: usize) -> Range<usize> {
    let pos = keys.partition_point(|k| k < target);
    pos.saturating_sub(width)..(pos + width).min(keys.len())
}

/// The smallest subtree of the key space around `target` that holds at
/// least `k` of `keys` (sorted), as a range of `keys`; all of `keys` if
/// it holds fewer. Every key inside the subtree is XOR-closer to `target`
/// than every key outside it, so the `k` nearest lie within. Each step
/// halves the range by the next bit of `target`: the keys in range share
/// all bits above it with `target`, so they are sorted by that bit.
fn subtree(keys: &[Key], target: &Key, k: usize) -> Range<usize> {
    let bit = |key: &Key, i: usize| key.0[i / 8] >> (7 - i % 8) & 1 == 1;
    let mut range = 0..keys.len();
    for i in 0..256 {
        let mid = range.start + keys[range.clone()].partition_point(|key| !bit(key, i));
        let half = if bit(target, i) { mid..range.end } else { range.start..mid };
        if half.len() < k {
            break;
        }
        range = half;
    }
    range
}

/// The neighbourhood kernel: leaves in `near` the `count` entries of
/// `keys[range]` (`keys` sorted) XOR-closest to `target` among those
/// `keep` accepts, nearest first, as (top 64 bits of the distance, index
/// into `keys`). One buffer serves every query, so nothing is allocated
/// once it has grown. The order is exactly a stable sort by distance:
/// the 64-bit prefix decides unless two prefixes tie, the full 256-bit
/// distance decides those, and only equal keys fall back to the index,
/// which is the stable sort's own tie-break.
fn nearest(
    keys: &[Key],
    range: Range<usize>,
    target: &Key,
    count: usize,
    mut keep: impl FnMut(usize) -> bool,
    near: &mut Vec<(u64, u32)>,
) {
    assert!(u32::try_from(keys.len()).is_ok(), "a key index fits the buffer's u32");
    near.clear();
    near.extend(range.filter(|&j| keep(j)).map(|j| (distance_prefix(&keys[j], target), j as u32)));
    let closer = |a: &(u64, u32), b: &(u64, u32)| {
        a.0.cmp(&b.0)
            .then_with(|| {
                keys[a.1 as usize].distance(target).cmp(&keys[b.1 as usize].distance(target))
            })
            .then(a.1.cmp(&b.1))
    };
    if near.len() > count {
        if count > 0 {
            near.select_nth_unstable_by(count - 1, closer);
        }
        near.truncate(count);
    }
    near.sort_unstable_by(closer);
}

/// What a fire-and-forget store RPC carries to its target. The sender
/// settles its item when the send completes; nothing answers.
#[derive(Debug, Clone)]
pub(super) enum Store {
    /// One ADD_PROVIDER (§3.1).
    Provider { key: Key, provider: Arc<PeerInfo> },
    /// A reprovide-sweep ADD_PROVIDER carrying every key of one keyspace
    /// neighbourhood. The keys stay shared by all of the batch's stores,
    /// and by the record stores they reach.
    Batch { keys: Arc<[Key]>, provider: Arc<PeerInfo> },
    /// One PUT_VALUE of an IPNS record (§3.3), shared by all of the
    /// publish's stores.
    Value { key: Key, value: Arc<[u8]> },
}

impl IpfsNetwork {
    /// Fills every node's routing table the way a converged network would
    /// have it: the k XOR-nearest servers (found via a numeric-neighbour
    /// window) plus random far servers to populate the top buckets.
    /// Each server is also inserted into the tables of the servers nearest
    /// to *its* key — the effect a real node's join-time self-lookup has —
    /// so peer walks (§3.2) can resolve PeerIDs to addresses.
    pub(super) fn oracle_bootstrap(&mut self) {
        let near = BOOTSTRAP_NEAR_PEERS;
        let keys: Vec<Key> = self.nodes.iter().map(|n| n.node.info().key()).collect();
        // The full server list, independent of t=0 online status, serves
        // join-time announcements and catalog seeding during the run —
        // also in a world where no server is online yet.
        self.dht.sorted_servers = ServerIndex::build(&self.nodes, &keys, |_, n| n.is_server);
        // Which peers may appear in routing tables: servers only (§2.3),
        // unless the client/server-split ablation is on.
        let include_clients = self.cfg.clients_in_routing_tables;
        // Only peers online at t=0 seed the tables: a converged live
        // network's tables are kept fresh by query traffic and failure
        // eviction, so at any instant they are dominated by live peers.
        // Staleness then accumulates realistically as peers churn off.
        let online = &self.online;
        let seeds = ServerIndex::build(&self.nodes, &keys, |i, n| {
            (n.is_server || include_clients) && online[i]
        });
        if seeds.keys.is_empty() {
            return;
        }

        let mut nearby = Vec::new();
        for (id, own_key) in keys.iter().enumerate() {
            let range = window(&seeds.keys, own_key, 3 * near);
            nearest(&seeds.keys, range, own_key, near, |j| seeds.ids[j] != id, &mut nearby);
            let dht = &mut self.nodes[id].node.dht;
            for &(_, j) in &nearby {
                dht.add_server(seeds.keys[j as usize], &seeds.infos[j as usize]);
            }
            for _ in 0..BOOTSTRAP_RANDOM_PEERS {
                let j = self.rng.random_range(0..seeds.keys.len());
                if seeds.ids[j] != id {
                    dht.add_server(seeds.keys[j], &seeds.infos[j]);
                }
            }
        }

        // Reverse direction: make each server known (with addresses) to the
        // servers closest to its own key.
        for (j, key) in seeds.keys.iter().enumerate() {
            let id = seeds.ids[j];
            let range = window(&seeds.keys, key, 2 * near);
            nearest(&seeds.keys, range, key, near, |h| seeds.ids[h] != id, &mut nearby);
            for &(_, h) in &nearby {
                let host = &mut self.nodes[seeds.ids[h as usize]];
                if host.is_server {
                    host.node.dht.add_server(*key, &seeds.infos[j]);
                }
            }
        }
    }

    /// Join-time announcement: when a peer comes online it performs a
    /// self-lookup, which (a) makes the servers nearest its key learn its
    /// address — so peer walks can resolve it — and (b) refreshes its own
    /// routing table with currently-online peers. Modeled as an oracle
    /// shortcut (the walk itself adds no information at this fidelity).
    pub(super) fn announce_join(&mut self, id: NodeId) {
        if self.dht.sorted_servers.keys.is_empty() {
            return;
        }
        let near = BOOTSTRAP_NEAR_PEERS;
        let info = Arc::clone(self.nodes[id].node.info());
        // The cached SHA-256 of the PeerID.
        let own_key = info.key();
        // The self-lookup this models is ordinary DHT traffic: it cannot
        // cross an active partition, so neither may the oracle shortcut.
        // Regions are read only while a fault is active: a fault-free
        // filter touches the dense liveness vector alone.
        let faulty = self.faults.has_active_faults();
        let own_region = self.nodes[id].region;
        let reachable = |net: &Self, sid: NodeId| {
            sid != id
                && net.online[sid]
                && !(faulty && net.faults.blocked(own_region, net.nodes[sid].region))
        };
        // Both halves of the announcement see the same neighbourhood: the
        // `near` reachable servers closest to the joiner's key.
        let mut nearby = std::mem::take(&mut self.dht.nearby);
        let servers = &self.dht.sorted_servers;
        let range = window(&servers.keys, &own_key, 3 * near);
        let keep = |j: usize| reachable(self, servers.ids[j]);
        nearest(&servers.keys, range, &own_key, near, keep, &mut nearby);
        // (a) A joining server enters its neighbours' tables; (b) its own
        // table is refreshed with them, then with random reachable servers.
        let is_server = self.nodes[id].is_server;
        for &(_, j) in &nearby {
            let j = j as usize;
            if is_server {
                self.nodes[servers.ids[j]].node.dht.add_server(own_key, &info);
            }
            self.nodes[id].node.dht.add_server(servers.keys[j], &servers.infos[j]);
        }
        self.dht.nearby = nearby;
        for _ in 0..BOOTSTRAP_RANDOM_PEERS / 3 {
            let j = self.rng.random_range(0..self.dht.sorted_servers.keys.len());
            if reachable(self, self.dht.sorted_servers.ids[j]) {
                let servers = &self.dht.sorted_servers;
                self.nodes[id].node.dht.add_server(servers.keys[j], &servers.infos[j]);
            }
        }
    }

    /// Arms the periodic table refresh, staggered per node to avoid a
    /// thundering herd of simultaneous refresh events. Only online nodes
    /// are armed: a node that starts (or goes) offline gets its chain
    /// armed at the churn-online transition instead, so dead timers never
    /// sit in the scheduler.
    pub(super) fn arm_refresh_chains(&mut self) {
        let Some(interval) = self.cfg.table_refresh_interval else { return };
        for id in 0..self.nodes.len() {
            if self.online[id] {
                let stagger = interval.as_nanos() * (id as u64 % 64) / 64;
                self.schedule_refresh(id, SimDuration::from_nanos(stagger));
            }
        }
    }

    /// Restarts the refresh chain a node dropped when it went offline
    /// (armed lazily here rather than ticking while dead).
    pub(super) fn resume_refresh(&mut self, id: NodeId) {
        if let Some(interval) = self.cfg.table_refresh_interval {
            if self.nodes[id].refresh_timer.is_none() {
                self.schedule_refresh(id, interval);
            }
        }
    }

    /// Stops a departing node's refresh chain.
    pub(super) fn stop_refresh(&mut self, id: NodeId) {
        if let Some(t) = self.nodes[id].refresh_timer.take() {
            self.queue.cancel(t);
        }
    }

    fn schedule_refresh(&mut self, node: NodeId, after: SimDuration) {
        let timer = self.queue.schedule_cancellable(after, NetEvent::RefreshTable { node });
        self.nodes[node].refresh_timer = Some(timer);
    }

    /// One refresh tick: re-announce, expire provider records and re-arm.
    /// Offline nodes stop re-arming; churn-online restarts the chain so a
    /// dead node never keeps timers in the scheduler.
    pub(super) fn on_refresh(&mut self, now: SimTime, node: NodeId) {
        self.nodes[node].refresh_timer = None;
        if !self.online[node] {
            return;
        }
        self.announce_join(node);
        // Refresh doubles as the store's GC tick: drop provider records
        // past the 24 h expiry (§3.1).
        let expired = self.nodes[node].node.dht.expire_records(now);
        self.metrics.add(names::PROVIDER_RECORDS_EXPIRED, expired as u64);
        if let Some(interval) = self.cfg.table_refresh_interval {
            self.schedule_refresh(node, interval);
        }
    }

    /// Starts a walk toward `key` at `node` on behalf of `op`; its
    /// outcome comes back through [`IpfsNetwork::on_query_done`].
    pub(super) fn start_walk(&mut self, node: NodeId, op: OpId, key: Key, target: QueryTarget) {
        let (qid, outputs) = self.nodes[node].node.dht.start_query(key, target);
        self.dht.query_owner.insert((node, qid), op);
        self.process_dht_outputs(node, outputs);
    }

    fn process_dht_outputs(&mut self, id: NodeId, outputs: Vec<DhtOutput>) {
        for output in outputs {
            match output {
                DhtOutput::SendRequest { query, to, request } => {
                    self.send_query_rpc(id, query, to, request);
                }
                DhtOutput::QueryDone { query, outcome, stats } => {
                    if let Some(op) = self.dht.query_owner.remove(&(id, query)) {
                        self.on_query_done(op, outcome, stats);
                    }
                }
            }
        }
    }

    /// The op that owns `query` at `node`, looked up only while the tracer
    /// records op logs.
    fn traced_query_op(&self, node: NodeId, query: QueryId) -> Option<OpId> {
        if !self.tracer.records(TraceLevel::OpLog) {
            return None;
        }
        self.dht.query_owner.get(&(node, query)).copied()
    }

    fn send_query_rpc(
        &mut self,
        from: NodeId,
        query: QueryId,
        to: Arc<PeerInfo>,
        request: Request,
    ) {
        self.dht.pending_rpcs.insert((from, query, to.key()));
        self.metrics.incr_handle(self.hot.rpc_sent[request_kind(&request)]);
        let mut ctx = TraceCtx::NONE;
        if let Some(op) = self.traced_query_op(from, query) {
            let peer = self.trace_peer(&to.peer);
            ctx = self.tracer.rpc_sent(op, self.now(), request.name(), peer);
        }
        match self.dial(from, &to.peer) {
            Some((target, connect_delay)) => {
                let delay = connect_delay + self.one_way(from, target);
                if !self.degraded_loss(from, target) {
                    self.queue.schedule(
                        delay,
                        NetEvent::RpcArrive {
                            from,
                            to: target,
                            query,
                            request: Box::new(request),
                            ctx,
                        },
                    );
                }
                // Guard in case the target churns offline before arrival
                // (or the request was lost to a degraded link).
                self.queue.schedule(RPC_TIMEOUT, NetEvent::RpcFail { node: from, query, peer: to });
            }
            None => {
                let (delay, class) = self.sample_fail_delay();
                if let Some(op) = self.traced_query_op(from, query) {
                    let now = self.now();
                    let peer = self.trace_peer(&to.peer);
                    self.tracer.record_with(op, now, || TraceEventKind::DialFailed { peer, class });
                }
                self.queue.schedule(delay, NetEvent::RpcFail { node: from, query, peer: to });
            }
        }
    }

    pub(super) fn on_rpc_arrive(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        query: QueryId,
        request: Request,
        ctx: TraceCtx,
    ) {
        if self.cut_in_flight(from, to) || !self.online[to] {
            return; // requester's guard timeout will fire
        }
        self.metrics.incr_handle(self.hot.rpc_recv[request_kind(&request)]);
        let from_info = self.nodes[from].node.info().clone();
        let from_is_server = self.nodes[from].is_server;
        let req_name = request.name();
        let response =
            self.nodes[to].node.dht.handle_request(&from_info, from_is_server, request, now);
        if let Some(response) = response {
            if !ctx.is_none() {
                // The server's own view of the request — handler time plus
                // the walk fan-out it computed — recorded as a child of the
                // requester's rpc span, even if the response is later lost.
                let (hops, end) = (response.forwarded_hops(), now + SERVER_PROCESSING);
                self.tracer.record_span(ctx, to, Some(from), "srv", req_name, hops, 0, now, end);
            }
            let delay = SERVER_PROCESSING + self.one_way(to, from);
            if self.degraded_loss(to, from) {
                return; // requester's guard timeout will fire
            }
            let responder = Arc::clone(self.nodes[to].node.info());
            self.queue.schedule(
                delay,
                NetEvent::RpcResponse {
                    to: from,
                    query,
                    from: responder,
                    response: Box::new(response),
                },
            );
        }
    }

    pub(super) fn on_rpc_response(
        &mut self,
        now: SimTime,
        to: NodeId,
        query: QueryId,
        from: Arc<PeerInfo>,
        response: Response,
    ) {
        // Resolving the responder's node id costs a `PeerId` hash: only a
        // partition check or the tracer needs it.
        if self.faults.has_active_faults() {
            if let Some(responder) = self.resolve(&from.peer) {
                if self.cut_in_flight(responder, to) {
                    return; // requester's guard timeout will fire
                }
            }
        }
        self.dht.pending_rpcs.remove(&(to, query, from.key()));
        self.metrics.incr_handle(self.hot.dht_rpc_ok);
        if let Some(op) = self.traced_query_op(to, query) {
            let peer = self.trace_peer(&from.peer);
            self.tracer.record_with(op, now, || TraceEventKind::RpcOk { peer });
        }
        let outputs = self.nodes[to].node.dht.on_response(query, &from, &response);
        // Remember responder addresses (§3.2 address book).
        for info in response.closer() {
            self.nodes[to].node.addr_book.insert_info(info);
        }
        self.process_dht_outputs(to, outputs);
    }

    pub(super) fn on_rpc_fail(
        &mut self,
        now: SimTime,
        node: NodeId,
        query: QueryId,
        peer: Arc<PeerInfo>,
    ) {
        if !self.dht.pending_rpcs.remove(&(node, query, peer.key())) {
            return; // answered in time: a stale guard
        }
        self.metrics.incr_handle(self.hot.dht_rpc_failed);
        if let Some(op) = self.traced_query_op(node, query) {
            let p = self.trace_peer(&peer.peer);
            self.tracer.record_with(op, now, || TraceEventKind::RpcFailed { peer: p });
        }
        let outputs = self.nodes[node].node.dht.on_failure(query, &peer);
        self.process_dht_outputs(node, outputs);
    }

    /// Sends one fire-and-forget store from `from` to `to` on behalf of
    /// `op`, whose item settles when the send completes. The connection
    /// from the walk may already be gone (conn-manager pruning / churn
    /// between response and store): the re-dial then burns a transport
    /// timeout — the source of Figure 9c's spikes. The stale-connection
    /// draw comes before the dial, which always runs.
    pub(super) fn send_store(&mut self, op: OpId, from: NodeId, to: &PeerId, store: Store) {
        let stale = self.rng.random_range(0.0..1.0) < STALE_DIAL_PROB;
        match (stale, self.dial(from, to)) {
            (false, Some((target, connect_delay))) => {
                let delay = connect_delay + self.one_way(from, target);
                let ok = !self.degraded_loss(from, target);
                if ok {
                    self.queue.schedule(delay, NetEvent::StoreArrive { from, to: target, store });
                }
                self.queue.schedule(delay, NetEvent::StoreSettled { op, ok });
            }
            _ => {
                let (delay, _) = self.sample_fail_delay();
                self.queue.schedule(delay, NetEvent::StoreSettled { op, ok: false });
            }
        }
    }

    /// A store reaches its target, which files the record(s). A store cut
    /// in flight is simply lost: the sender settled it already.
    pub(super) fn on_store_arrive(&mut self, now: SimTime, from: NodeId, to: NodeId, store: Store) {
        if self.cut_in_flight(from, to) || !self.online[to] {
            return;
        }
        let from_info = self.nodes[from].node.info().clone();
        let from_is_server = self.nodes[from].is_server;
        let (request, records) = match store {
            Store::Provider { key, provider } => (Request::AddProvider { key, provider }, 1),
            Store::Batch { keys, provider } => {
                let records = keys.len() as u64;
                (Request::AddProviderBatch { keys, provider }, records)
            }
            Store::Value { key, value } => (Request::PutValue { key, value: value.to_vec() }, 1),
        };
        self.metrics.incr_handle(self.hot.rpc_recv[request_kind(&request)]);
        if matches!(request, Request::PutValue { .. }) {
            self.metrics.incr(names::IPNS_RECORDS_STORED);
        } else {
            self.metrics.add_handle(self.hot.provider_records_stored, records);
        }
        self.nodes[to].node.dht.handle_request(&from_info, from_is_server, request, now);
    }

    /// Oracle setup helper: instantly stores provider records for `cid`
    /// (pointing at `provider`) on the k closest servers, without
    /// consuming virtual time. Used to pre-seed large content catalogs
    /// (e.g. the gateway workload) where simulating thousands of full
    /// publication walks would only burn events, not add fidelity. Not
    /// used by any timed experiment.
    pub fn seed_provider_record(&mut self, provider: NodeId, cid: &Cid) {
        let key = Key::from_cid(cid);
        let provider_info = self.nodes[provider].node.info().clone();
        let now = self.now();
        self.select_seed_targets(&key, self.cfg.node.replication);
        for &(_, j) in &self.dht.nearby {
            let id = self.dht.sorted_servers.ids[j as usize];
            let request = Request::AddProvider { key, provider: Arc::clone(&provider_info) };
            self.nodes[id].node.dht.handle_request(&provider_info, true, request, now);
        }
    }

    /// Leaves in the kernel's buffer the `k` servers XOR-closest to `key`,
    /// online or not, nearest first: a select inside the smallest key-space
    /// subtree that holds `k` of them.
    fn select_seed_targets(&mut self, key: &Key, k: usize) {
        let keys = &self.dht.sorted_servers.keys;
        nearest(keys, subtree(keys, key, k), key, k, |_| true, &mut self.dht.nearby);
    }

    /// Whether any online node currently holds an unexpired provider
    /// record for `cid` — record availability as an omniscient DHT-state
    /// probe (no walks run, no virtual time spent).
    pub fn provider_record_available(&self, cid: &Cid) -> bool {
        let key = Key::from_cid(cid);
        let now = self.now();
        self.nodes
            .iter()
            .zip(&self.online)
            .any(|(n, &online)| online && n.node.dht.store().has_provider(&key, now))
    }

    /// Total provider-record entries across every node's store (expired
    /// entries not yet swept are included — this is resident state).
    pub fn provider_records_total(&self) -> u64 {
        self.nodes.iter().map(|n| n.node.dht.store().provider_entry_count() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::super::lifecycle::OpState;
    use super::super::tests::{lifecycle_net, small_net};
    use super::super::NetworkConfig;
    use super::*;
    use crate::ops::PublishPhase;
    use bytes::Bytes;
    use faultsim::FaultPlan;
    use kademlia::Distance;
    use simnet::latency::{Region, VantagePoint};
    use simnet::{Population, PopulationConfig};

    /// The store counters and the inbound DHT RPC count of every request
    /// type, in a fixed order.
    fn store_path_counters(net: &IpfsNetwork) -> Vec<(&'static str, u64)> {
        [
            names::DHT_RPC_RECV_FIND_NODE,
            names::DHT_RPC_RECV_GET_PROVIDERS,
            names::DHT_RPC_RECV_ADD_PROVIDER,
            names::DHT_RPC_RECV_ADD_PROVIDER_BATCH,
            names::DHT_RPC_RECV_PUT_PEER_RECORD,
            names::DHT_RPC_RECV_PUT_VALUE,
            names::DHT_RPC_RECV_GET_VALUE,
            names::PROVIDER_RECORDS_STORED,
            names::IPNS_RECORDS_STORED,
            names::FAULT_MESSAGES_CUT,
        ]
        .into_iter()
        .map(|name| (name, net.metrics.get(name)))
        .collect()
    }

    /// Runs in 1 ms steps from `*t` until `in_flight` holds, then cuts the
    /// publisher's region off for two seconds starting 1 ns later: every
    /// cross-region store still in flight dies at delivery.
    fn partition_stores_in_flight(
        net: &mut IpfsNetwork,
        t: &mut SimTime,
        region: Region,
        in_flight: impl Fn(&IpfsNetwork) -> bool,
    ) {
        while !in_flight(net) {
            *t += SimDuration::from_millis(1);
            net.run_until(*t);
        }
        let mut plan = FaultPlan::new();
        plan.region_outage(*t + SimDuration::from_nanos(1), SimDuration::from_secs(2), region);
        net.install_fault_plan(plan);
    }

    /// Pins the fire-and-forget store paths that no benchmark digest or
    /// paper artifact covers: IPNS PUT_VALUE, and stores of every kind cut
    /// in flight by a partition. The literals were recorded on the code
    /// before these paths were refactored; a change that moves one changed
    /// simulated behaviour and must not re-record it.
    #[test]
    fn fire_and_forget_stores_are_pinned() {
        use crate::ipns::{IpnsRecord, IPNS_VALIDITY};
        // Part one: an IPNS publish and resolve, which no benchmark
        // workload or paper artifact runs.
        let mut net = small_net(300, 51);
        let [publisher, resolver] = net.vantage_ids(2)[..] else { panic!() };
        let keypair = net.node(publisher).keypair().clone();
        let record =
            IpnsRecord::sign(&keypair, Cid::from_raw_data(b"pinned"), 1, net.now(), IPNS_VALIDITY);
        net.publish_ipns(publisher, &record);
        net.run_until_quiet();
        net.resolve_ipns(resolver, &keypair.peer_id());
        net.run_until_quiet();
        let pr = net.ipns_publish_reports[0].clone();
        let rr = net.ipns_resolve_reports[0].clone();
        assert_eq!(net.events_processed, 211);
        assert_eq!(
            store_path_counters(&net),
            [
                ("dht_rpc_recv_find_node", 22),
                ("dht_rpc_recv_get_providers", 0),
                ("dht_rpc_recv_add_provider", 0),
                ("dht_rpc_recv_add_provider_batch", 0),
                ("dht_rpc_recv_put_peer_record", 0),
                ("dht_rpc_recv_put_value", 19),
                ("dht_rpc_recv_get_value", 2),
                ("provider_records_stored", 0),
                ("ipns_records_stored", 19),
                ("fault_messages_cut", 0),
            ]
        );
        assert!(pr.success && rr.success);
        assert_eq!(
            (pr.total.as_nanos(), pr.dht_walk.as_nanos(), pr.records_stored),
            (8_073_140_134, 2_853_140_134, 19)
        );
        assert_eq!(rr.total.as_nanos(), 346_992_512);

        // Part two: a provider publish, an IPNS publish and a reprovide
        // sweep, each cut by a partition while its stores are in flight,
        // so every store kind is dropped at delivery at least once.
        let mut net = lifecycle_net(true);
        let [provider] = net.vantage_ids(1)[..] else { panic!() };
        let region = net.region(provider);
        let mut t = net.now();
        let cid = net.import_content(provider, &Bytes::from(vec![0x77; 300_000]));
        let publish = net.publish(provider, cid);
        partition_stores_in_flight(&mut net, &mut t, region, |net| {
            matches!(
                net.ops.get(&publish),
                Some(OpState::Publish { phase: PublishPhase::RpcBatch { .. }, .. })
            )
        });
        net.run_until_quiet();
        let cut_publish = net.metrics.get(names::FAULT_MESSAGES_CUT);

        let keypair = net.node(provider).keypair().clone();
        let record =
            IpnsRecord::sign(&keypair, Cid::from_raw_data(b"cut"), 1, net.now(), IPNS_VALIDITY);
        let ipns = net.publish_ipns(provider, &record);
        t = net.now();
        partition_stores_in_flight(
            &mut net,
            &mut t,
            region,
            |net| matches!(net.ops.get(&ipns), Some(OpState::PublishIpns { outstanding, .. }) if *outstanding > 0),
        );
        net.run_until_quiet();
        let cut_ipns = net.metrics.get(names::FAULT_MESSAGES_CUT) - cut_publish;

        // The sweep timer fires one republish interval after the publish.
        t = SimTime::ZERO + SimDuration::from_mins(59);
        net.run_until(t);
        partition_stores_in_flight(&mut net, &mut t, region, |net| {
            net.ops
                .values()
                .any(|op| matches!(op, OpState::SweepBatch { outstanding, .. } if *outstanding > 0))
        });
        net.run_until_quiet();
        let cut_sweep = net.metrics.get(names::FAULT_MESSAGES_CUT) - cut_publish - cut_ipns;
        let pr = net.publish_reports[0].clone();
        let ir = net.ipns_publish_reports[0].clone();
        assert_eq!(net.metrics.get(names::PROVIDER_SWEEP_RUNS), 1);
        assert_eq!(net.events_processed, 465);
        assert_eq!(
            store_path_counters(&net),
            [
                ("dht_rpc_recv_find_node", 55),
                ("dht_rpc_recv_get_providers", 0),
                ("dht_rpc_recv_add_provider", 2),
                ("dht_rpc_recv_add_provider_batch", 1),
                ("dht_rpc_recv_put_peer_record", 0),
                ("dht_rpc_recv_put_value", 3),
                ("dht_rpc_recv_get_value", 0),
                ("provider_records_stored", 3),
                ("ipns_records_stored", 3),
                ("fault_messages_cut", 47),
            ]
        );
        assert_eq!((cut_publish, cut_ipns, cut_sweep), (18, 16, 13));
        assert!(pr.success && ir.success);
        assert_eq!(
            (pr.total.as_nanos(), pr.dht_walk.as_nanos(), pr.rpc_batch.as_nanos()),
            (3_485_790_233, 3_367_029_431, 118_760_802)
        );
        assert_eq!(pr.records_stored, 20);
        assert_eq!(
            (ir.total.as_nanos(), ir.dht_walk.as_nanos(), ir.records_stored),
            (8_749_044_931, 8_184_044_931, 17)
        );
        assert_eq!(net.now().as_nanos(), 3_656_926_093_197);
    }

    /// The sort-based window select the kernel replaced, kept as its
    /// oracle: collect the window, drop `id` and what `keep` rejects,
    /// stable-sort by full distance, take `count`.
    fn nearest_in_window_by_sort(
        servers: &[(Key, NodeId)],
        key: &Key,
        id: NodeId,
        window: usize,
        count: usize,
        keep: impl Fn(NodeId) -> bool,
    ) -> Vec<NodeId> {
        let pos = servers.partition_point(|(k, _)| k.0 < key.0);
        let (lo, hi) = (pos.saturating_sub(window), (pos + window).min(servers.len()));
        let mut near: Vec<(Distance, NodeId)> = servers[lo..hi]
            .iter()
            .filter(|&&(_, sid)| sid != id && keep(sid))
            .map(|(k, sid)| (k.distance(key), *sid))
            .collect();
        near.sort_by_key(|a| a.0);
        near.into_iter().take(count).map(|(_, sid)| sid).collect()
    }

    /// The full-population sort catalog seeding replaced, kept as its
    /// oracle: the `k` servers, online or not, XOR-closest to `key`.
    fn seed_targets_by_sort(net: &IpfsNetwork, key: &Key, k: usize) -> Vec<NodeId> {
        let mut targets: Vec<(Distance, NodeId)> = net
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.is_server)
            .map(|(i, n)| (n.node.info().key().distance(key), i))
            .collect();
        targets.sort_by_key(|a| a.0);
        targets.into_iter().take(k).map(|(_, id)| id).collect()
    }

    /// The bootstrap the kernel replaced, kept as its oracle: the same
    /// passes and RNG draws, each neighbourhood by a sort of its window
    /// and each insert through `add_peer`.
    fn oracle_bootstrap_by_sort(net: &mut IpfsNetwork) {
        let near = BOOTSTRAP_NEAR_PEERS;
        let include_clients = net.cfg.clients_in_routing_tables;
        let mut servers: Vec<(Key, NodeId)> = net
            .nodes
            .iter()
            .enumerate()
            .filter(|&(i, n)| (n.is_server || include_clients) && net.online[i])
            .map(|(i, n)| (n.node.info().key(), i))
            .collect();
        servers.sort_by_key(|a| a.0 .0);
        if servers.is_empty() {
            return;
        }
        let infos: Vec<Arc<PeerInfo>> =
            net.nodes.iter().map(|n| Arc::clone(n.node.info())).collect();
        for id in 0..net.nodes.len() {
            let own_key = net.nodes[id].node.info().key();
            for sid in nearest_in_window_by_sort(&servers, &own_key, id, 3 * near, near, |_| true) {
                net.nodes[id].node.dht.add_peer(infos[sid].clone(), true);
            }
            for _ in 0..BOOTSTRAP_RANDOM_PEERS {
                let (_, sid) = servers[net.rng.random_range(0..servers.len())];
                if sid != id {
                    net.nodes[id].node.dht.add_peer(infos[sid].clone(), true);
                }
            }
        }
        for &(key, id) in &servers {
            for host in nearest_in_window_by_sort(&servers, &key, id, 2 * near, near, |_| true) {
                if net.nodes[host].is_server {
                    net.nodes[host].node.dht.add_peer(infos[id].clone(), true);
                }
            }
        }
    }

    /// A key whose first eight bytes are one of four fixed prefixes when
    /// `tie` is set, so that many keys share them and the kernel's
    /// full-distance tie-break runs (SHA-256 keys never reach it).
    fn crafted_key(tie: bool, (class, a, b): (u64, u64, u64)) -> Key {
        const PREFIXES: [u64; 4] = [0, 0x5555_5555_5555_5555, 0xAAAA_AAAA_AAAA_AAAA, u64::MAX];
        let head = if tie { PREFIXES[class as usize % 4] } else { a };
        let mut bytes = [0u8; 32];
        for (chunk, word) in bytes.chunks_mut(8).zip([head, b, a, b.rotate_left(17)]) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        Key(bytes)
    }

    /// The kernel against the sort-based oracles, over random sorted key
    /// sets: windows clipped at either end, `count` beyond the candidate
    /// set, `id` excluded, a filter, and keys sharing their first eight
    /// bytes. The subtree select must equal a full sort's first `count`.
    #[test]
    fn proptest_kernel_matches_sort_oracles() {
        use proptest::prelude::*;
        let mut ties = 0;
        proptest!(ProptestConfig::with_cases(256), |(
            raw in proptest::collection::vec((0u64..4, any::<u64>(), any::<u64>()), 0..160),
            tie in 0u8..2,
            (mode, pick, ta, tb) in (0u8..4, any::<u64>(), any::<u64>(), any::<u64>()),
            (excluded, w, count) in (0usize..200, 0usize..100, 0usize..100),
            (filtered, mask) in (0u8..2, any::<u64>()),
        )| {
            let mut pairs: Vec<(Key, NodeId)> =
                raw.iter().enumerate().map(|(i, &r)| (crafted_key(tie == 1, r), i)).collect();
            pairs.sort_by_key(|p| p.0);
            pairs.dedup_by_key(|p| p.0);
            let (keys, ids): (Vec<Key>, Vec<NodeId>) = pairs.iter().copied().unzip();
            let target = match mode {
                0 if !keys.is_empty() => keys[pick as usize % keys.len()],
                0 | 1 => crafted_key(tie == 1, (pick, ta, tb)),
                2 => Key([0; 32]),
                _ => Key([0xFF; 32]),
            };
            let keep = |sid: NodeId| filtered == 0 || mask >> (sid % 64) & 1 == 1;
            let mut near = Vec::new();
            let range = window(&keys, &target, w);
            nearest(&keys, range, &target, count, |j| ids[j] != excluded && keep(ids[j]), &mut near);
            ties += near.windows(2).filter(|p| p[0].0 == p[1].0).count();
            let got: Vec<NodeId> = near.iter().map(|&(_, j)| ids[j as usize]).collect();
            let want = nearest_in_window_by_sort(&pairs, &target, excluded, w, count, keep);
            prop_assert_eq!(got, want);

            nearest(&keys, subtree(&keys, &target, count), &target, count, |_| true, &mut near);
            let got: Vec<NodeId> = near.iter().map(|&(_, j)| ids[j as usize]).collect();
            let mut all: Vec<(Distance, NodeId)> =
                pairs.iter().map(|(k, id)| (k.distance(&target), *id)).collect();
            all.sort_by_key(|a| a.0);
            let want: Vec<NodeId> = all.into_iter().take(count).map(|(_, id)| id).collect();
            prop_assert_eq!(got, want);
        });
        assert!(ties > 0, "no case reached the full-distance tie-break");
    }

    fn world(size: usize, vantages: &[VantagePoint], cfg: NetworkConfig, seed: u64) -> IpfsNetwork {
        let pop = Population::generate(
            PopulationConfig { size, nat_fraction: 0.455, horizon: SimDuration::from_hours(6) },
            seed,
        );
        IpfsNetwork::from_population(&pop, vantages, cfg, seed)
    }

    /// Catalog seeding picks the full-population sort's targets in its
    /// order, with fewer than k, exactly k and many servers, offline ones
    /// included, and files the record on exactly those nodes.
    #[test]
    fn seed_targets_match_full_sort() {
        for (size, seed) in [(12, 5), (600, 6)] {
            let mut net = world(size, &[], NetworkConfig::default(), seed);
            let servers = net.nodes.iter().filter(|n| n.is_server).count();
            let offline = (0..net.len()).filter(|&i| net.nodes[i].is_server && !net.online[i]);
            assert!(offline.count() > 0, "a world of {size} has no offline server");
            let provider = (0..net.len()).find(|&i| net.nodes[i].is_server).unwrap();
            for k in [servers + 3, servers, 1, 20] {
                net.cfg.node.replication = k;
                for i in 0..40u64 {
                    let cid = Cid::from_raw_data(&(seed ^ (i << 8) ^ k as u64).to_le_bytes());
                    let key = Key::from_cid(&cid);
                    net.select_seed_targets(&key, k);
                    let ids = &net.dht.sorted_servers.ids;
                    let got: Vec<NodeId> =
                        net.dht.nearby.iter().map(|&(_, j)| ids[j as usize]).collect();
                    let want = seed_targets_by_sort(&net, &key, k);
                    assert_eq!(got, want, "world {size}, k {k}, cid {i}");

                    net.seed_provider_record(provider, &cid);
                    let now = net.now();
                    let mut holders: Vec<NodeId> = (0..net.len())
                        .filter(|&n| net.nodes[n].node.dht.store().has_provider(&key, now))
                        .collect();
                    let mut want = want;
                    want.sort_unstable();
                    holders.sort_unstable();
                    assert_eq!(holders, want, "world {size}, k {k}, cid {i}");
                }
            }
        }
    }

    /// The kernel-built routing tables of a 2k-node world (and of a
    /// smaller one with clients in the tables) equal the sort-built
    /// oracle's, node by node in `all_peers()` order, and both leave the
    /// RNG in the same state.
    #[test]
    fn bootstrap_tables_match_sort_oracle() {
        let ablation = NetworkConfig { clients_in_routing_tables: true, ..Default::default() };
        for (size, cfg) in [(2_000, NetworkConfig::default()), (300, ablation)] {
            let pop = Population::generate(
                PopulationConfig { size, nat_fraction: 0.455, horizon: SimDuration::from_hours(6) },
                9,
            );
            let vantages = [VantagePoint::EuCentral1, VantagePoint::UsWest1];
            let mut net = IpfsNetwork::from_population(&pop, &vantages, cfg, 9);
            let mut oracle = IpfsNetwork::without_tables(&pop, &vantages, cfg, 9);
            oracle_bootstrap_by_sort(&mut oracle);
            for id in 0..net.len() {
                let keys = |n: &IpfsNetwork| -> Vec<Key> {
                    n.nodes[id].node.dht.routing().all_peers().iter().map(|p| p.key()).collect()
                };
                assert_eq!(keys(&net), keys(&oracle), "node {id} of {size}");
            }
            let draw = |n: &mut IpfsNetwork| n.rng.random_range(0..u64::MAX);
            assert_eq!(draw(&mut net), draw(&mut oracle));
        }
    }

    /// A world whose servers all start offline, with no vantage node,
    /// still keeps its server index: when the second server comes online
    /// while the first is up, each one's table learns the other. Before
    /// the index was persisted ahead of the empty-world return, every
    /// join in such a world was a silent no-op.
    #[test]
    fn joins_announce_when_no_server_starts_online() {
        let mut pop = Population::generate(
            PopulationConfig { size: 60, nat_fraction: 0.3, horizon: SimDuration::from_hours(6) },
            7,
        );
        for p in &mut pop.peers {
            p.schedule.sessions.retain(|&(start, _)| start > SimTime::ZERO);
        }
        let mut net = IpfsNetwork::from_population(&pop, &[], NetworkConfig::default(), 7);
        assert!(!net.online.contains(&true));
        let mut joins: Vec<(SimTime, NodeId)> = (0..pop.peers.len())
            .filter(|&i| net.nodes[i].is_server)
            .flat_map(|i| pop.peers[i].schedule.sessions.iter().map(move |&(start, _)| (start, i)))
            .collect();
        joins.sort_unstable();
        let [(_, first), (t, second), ..] = joins[..] else { panic!("fewer than two joins") };
        assert!(first != second && pop.peers[first].schedule.online_at(t));
        net.run_until(t + SimDuration::from_millis(1));
        let holds = |host: NodeId, peer: NodeId| {
            net.nodes[host].node.dht.routing().contains(net.nodes[peer].node.peer_id())
        };
        assert!(holds(first, second) && holds(second, first));
    }
}
