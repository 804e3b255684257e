//! The DHT driver: the oracle bootstrap and join-time announcements that
//! stand in for self-lookups, periodic table refresh, query RPCs with
//! their guard timeouts, and the fire-and-forget stores that publication
//! (§3.1) and IPNS (§3.3) end with.

use super::obs_hooks::request_kind;
use super::{IpfsNetwork, NetEvent, NodeId};
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
use kademlia::{Distance, Key};
use multiformats::{Cid, PeerId};
use rand::Rng;
use simnet::{SimDuration, SimTime};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// The DHT driver's state beyond the nodes' own behaviours.
#[derive(Default)]
pub(super) struct DhtState {
    /// Which operation owns each outstanding query.
    query_owner: HashMap<(NodeId, QueryId), OpId>,
    /// Outstanding query RPCs by (requester, query, target DHT key), for
    /// stale-timeout suppression.
    pending_rpcs: HashSet<(NodeId, QueryId, Key)>,
    /// All DHT servers sorted by key, each with its shared identity (the
    /// same `Arc` as its node's `info()`) — used by the join-time
    /// announcement (each churn-online event re-inserts the peer near its
    /// key, the effect a real node's bootstrap self-lookup has).
    sorted_servers: Vec<(Key, NodeId, Arc<PeerInfo>)>,
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

/// The `count` servers XOR-closest to `key` among the `window` entries on
/// either side of its position in `servers` (sorted by key), skipping `id`.
fn nearest_in_window(
    servers: &[(Key, NodeId)],
    key: &Key,
    id: NodeId,
    window: usize,
    count: usize,
) -> impl Iterator<Item = NodeId> {
    let pos = servers.partition_point(|(k, _)| k.0 < key.0);
    let (lo, hi) = (pos.saturating_sub(window), (pos + window).min(servers.len()));
    let mut near: Vec<(Distance, NodeId)> = servers[lo..hi]
        .iter()
        .filter(|(_, sid)| *sid != id)
        .map(|(k, sid)| (k.distance(key), *sid))
        .collect();
    near.sort_by_key(|a| a.0);
    near.into_iter().take(count).map(|(_, sid)| sid)
}

impl IpfsNetwork {
    /// Fills every node's routing table the way a converged network would
    /// have it: the k XOR-nearest servers (found via a numeric-neighbour
    /// window, since XOR-near implies a shared prefix implies numeric
    /// adjacency) plus random far servers to populate the top buckets.
    /// Each server is also inserted into the tables of the servers nearest
    /// to *its* key — the effect a real node's join-time self-lookup has —
    /// so peer walks (§3.2) can resolve PeerIDs to addresses.
    pub(super) fn oracle_bootstrap(&mut self) {
        let near = BOOTSTRAP_NEAR_PEERS;
        // Which peers may appear in routing tables: servers only (§2.3),
        // unless the client/server-split ablation is on.
        let include_clients = self.cfg.clients_in_routing_tables;
        // Only peers online at t=0 seed the tables: a converged live
        // network's tables are kept fresh by query traffic and failure
        // eviction, so at any instant they are dominated by live peers.
        // Staleness then accumulates realistically as peers churn off.
        let mut servers: Vec<(Key, NodeId)> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|&(i, n)| (n.is_server || include_clients) && self.online[i])
            .map(|(i, n)| (n.node.info().key(), i))
            .collect();
        servers.sort_by_key(|a| a.0 .0);
        if servers.is_empty() {
            return;
        }
        // Shared handles only — bumping a refcount per node instead of
        // deep-copying every identity and address list up front.
        let infos: Vec<Arc<PeerInfo>> =
            self.nodes.iter().map(|n| Arc::clone(n.node.info())).collect();

        for id in 0..self.nodes.len() {
            let own_key = self.nodes[id].node.info().key();
            for sid in nearest_in_window(&servers, &own_key, id, 3 * near, near) {
                self.nodes[id].node.dht.add_peer(infos[sid].clone(), true);
            }
            for _ in 0..BOOTSTRAP_RANDOM_PEERS {
                let (_, sid) = servers[self.rng.random_range(0..servers.len())];
                if sid != id {
                    self.nodes[id].node.dht.add_peer(infos[sid].clone(), true);
                }
            }
        }

        // Persist the full server list (independent of t=0 online status)
        // for join-time announcements during the run.
        let mut all_servers: Vec<(Key, NodeId, Arc<PeerInfo>)> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.is_server)
            .map(|(i, n)| (n.node.info().key(), i, Arc::clone(n.node.info())))
            .collect();
        all_servers.sort_by_key(|a| a.0 .0);
        self.dht.sorted_servers = all_servers;

        // Reverse direction: make each server known (with addresses) to the
        // servers closest to its own key.
        for &(key, id) in &servers {
            for host in nearest_in_window(&servers, &key, id, 2 * near, near) {
                if self.nodes[host].is_server {
                    self.nodes[host].node.dht.add_peer(infos[id].clone(), true);
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
        let servers = &self.dht.sorted_servers;
        if servers.is_empty() {
            return;
        }
        let near = BOOTSTRAP_NEAR_PEERS;
        let info = Arc::clone(self.nodes[id].node.info());
        let own_key = info.key(); // cached SHA-256 of the PeerID
        let pos = servers.partition_point(|(k, ..)| k.0 < own_key.0);
        let window = 3 * near;
        let lo = pos.saturating_sub(window);
        let hi = (pos + window).min(servers.len());
        // The self-lookup this models is ordinary DHT traffic: it cannot
        // cross an active partition, so neither may the oracle shortcut.
        // Regions are read only while a fault is active: a fault-free
        // filter touches the dense liveness vector alone.
        let faulty = self.faults.has_active_faults();
        let own_region = self.nodes[id].region;
        let reachable = |net: &Self, sid: NodeId| {
            net.online[sid] && !(faulty && net.faults.blocked(own_region, net.nodes[sid].region))
        };
        // Both halves of the announcement see the same neighbourhood — the
        // `near` reachable servers closest to the joiner's key — so compute
        // the candidate list once, as (distance, index into
        // `sorted_servers`). Distances are unique (SHA-256 keys), so the
        // index never breaks a tie and select-then-sort matches a full
        // stable sort's first `near`.
        let mut nearby: Vec<(Distance, usize)> = Vec::with_capacity(hi - lo);
        nearby.extend(
            (lo..hi)
                .filter(|&j| {
                    let sid = servers[j].1;
                    sid != id && reachable(self, sid)
                })
                .map(|j| (servers[j].0.distance(&own_key), j)),
        );
        if nearby.len() > near {
            nearby.select_nth_unstable(near - 1);
            nearby.truncate(near);
        }
        nearby.sort_unstable();
        // (a) Insert self into nearby online servers' tables.
        if self.nodes[id].is_server {
            for &(_, j) in &nearby {
                let host = self.dht.sorted_servers[j].1;
                self.nodes[host].node.dht.add_server(own_key, &info);
            }
        }
        // (b) Refresh own table: nearby + random online servers.
        let mut to_add: Vec<usize> = nearby.into_iter().map(|(_, j)| j).collect();
        for _ in 0..BOOTSTRAP_RANDOM_PEERS / 3 {
            let j = self.rng.random_range(0..self.dht.sorted_servers.len());
            let sid = self.dht.sorted_servers[j].1;
            if sid != id && reachable(self, sid) {
                to_add.push(j);
            }
        }
        for j in to_add {
            let (key, _, peer) = &self.dht.sorted_servers[j];
            self.nodes[id].node.dht.add_server(*key, peer);
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
        let outputs = self.nodes[to].node.dht.on_response(query, &from.peer, &response);
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
        let outputs = self.nodes[node].node.dht.on_failure(query, &peer.peer);
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
        let k = self.cfg.node.replication;
        let mut targets: Vec<(Distance, NodeId)> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.is_server)
            .map(|(i, n)| (n.node.info().key().distance(&key), i))
            .collect();
        targets.sort_by_key(|a| a.0);
        for (_, id) in targets.into_iter().take(k) {
            let request = Request::AddProvider { key, provider: Arc::clone(&provider_info) };
            self.nodes[id].node.dht.handle_request(&provider_info, true, request, now);
        }
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
    use super::*;
    use crate::ops::PublishPhase;
    use bytes::Bytes;
    use faultsim::FaultPlan;
    use simnet::latency::Region;

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
}
