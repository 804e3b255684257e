//! The network simulation driver.
//!
//! Composes every node's sans-io protocol machines with the `simnet`
//! substrate: RPCs and Bitswap messages travel with geo latency and
//! bandwidth costs, dials to NAT'ed/offline peers burn the transport
//! timeouts of §6.1 (5 s TCP/QUIC, 45 s WebSocket), peers churn per their
//! population schedules, and every publish/retrieve produces a
//! phase-timed report ([`crate::ops`]).
//!
//! This module is the substitute for the live IPFS network the paper
//! measures (see DESIGN.md §2): the protocol code above it is identical in
//! structure to what would run on a real transport.
//!
//! The driver follows the paper's protocol stack, one file per layer:
//! - `transport` — dials, one-way latency, fail delays, the connection
//!   manager, DCUtR and AutoNAT (§2.3, §3.1, §6.1);
//! - `dht` — bootstrap, join announcements, table refresh, query RPCs and
//!   the fire-and-forget stores (§3.1, §3.3);
//! - `exchange` — the Bitswap probe and fetch sessions and the uplink
//!   queue (§3.2);
//! - `reprovide` — per-CID republish chains and the keyspace sweep (§3.1);
//! - `faults` — scripted partitions, degradations and crash waves;
//! - `lifecycle` — publish, retrieve and IPNS operations and their
//!   reports (Figure 3);
//! - `obs_hooks` — hot metric handles and the tracer glue.
//!
//! This file holds the configuration, the network's state, construction,
//! the run loops and the event dispatch that hands each event to its layer.

mod dht;
mod exchange;
mod faults;
mod lifecycle;
mod obs_hooks;
mod reprovide;
#[cfg(test)]
mod tests;
mod transport;

use crate::config::{NodeConfig, TimeoutModel};
use crate::conn::ConnSet;
use crate::node::IpfsNode;
use crate::obs::dtrace::TraceCtx;
use crate::obs::{MetricsRegistry, Tracer};
use crate::ops::{IpnsPublishReport, IpnsResolveReport, OpId, PublishReport, RetrieveReport};
use bitswap::Message;
use dht::{DhtState, Store};
use exchange::Exchange;
use faultsim::FaultOracle;
use kademlia::behaviour::{DhtMode, QueryId};
use kademlia::routing::PeerInfo;
use kademlia::rpc::{Request, Response};
use kademlia::Key;
use lifecycle::OpState;
use multiformats::{Cid, Keypair, Multiaddr, PeerId};
use obs_hooks::HotMetrics;
use rand::rngs::StdRng;
use rand::SeedableRng;
use reprovide::ProvidedEntry;
use simnet::latency::{BandwidthClass, LatencyModel, Region, VantagePoint};
use simnet::{EventQueue, Population, SimDuration, SimTime, TimerId};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Dense node identifier within one simulation.
pub type NodeId = usize;

/// Key-seed base for vantage-node identities, outside the population's
/// seed-derived range.
const VANTAGE_KEY_BASE: u64 = 0xFFFF_0000_0000_0000;

/// Simulation-level configuration.
#[derive(Debug, Clone, Copy)]
pub struct NetworkConfig {
    /// Per-node protocol configuration.
    pub node: NodeConfig,
    /// Transport timeout model (drives the Figure 9c spikes).
    pub timeouts: TimeoutModel,
    /// Geo latency/bandwidth model.
    pub latency: LatencyModel,
    /// Server-side request processing time.
    pub server_processing: SimDuration,
    /// Whether provider records carry fresh addresses. go-ipfs v0.10
    /// expires provider addresses quickly, so the paper observed two DHT
    /// walks per retrieval (Figure 9e); `false` reproduces that.
    pub provider_records_carry_addrs: bool,
    /// Whether a successful retriever publishes a provider record itself
    /// (§3.1: retrieving peers become temporary providers).
    pub retriever_becomes_provider: bool,
    /// Ablation (§6.4): launch the DHT walk in parallel with the
    /// opportunistic Bitswap probe instead of waiting out the 1 s timeout.
    pub parallel_dht_and_bitswap: bool,
    /// Oracle-bootstrap: number of numerically-near peers per table.
    pub bootstrap_near_peers: usize,
    /// Oracle-bootstrap: number of random far peers per table.
    pub bootstrap_random_peers: usize,
    /// Republish provider records every 12 h (§3.1).
    pub auto_republish: bool,
    /// Keyspace-ordered reprovide sweep (go-ipfs's accelerated DHT
    /// client): instead of one timer chain and one Closest walk per
    /// published CID, a single per-node sweep timer walks the node's
    /// provided CIDs in DHT-key order, amortizing one FIND_NODE walk
    /// across every CID whose key lands in the same closest-peer
    /// neighborhood and carrying the stores as batched ADD_PROVIDER
    /// RPCs. Only consulted when `auto_republish` is on; `false` keeps
    /// the per-CID chains (the reference path the lifecycle bench and
    /// proptests compare against).
    pub reprovide_sweep: bool,
    /// Keyspace granularity of one sweep batch: provided CIDs are
    /// grouped by the top `reprovide_batch_bits` bits of their DHT key,
    /// one Closest walk per non-empty group. 8 bits ≈ 256 neighborhoods
    /// across the keyspace — coarser (fewer bits) amortizes more CIDs
    /// per walk but targets each store set less precisely.
    pub reprovide_batch_bits: u8,
    /// Ablation (§6.4): disable the DHT client/server split — NAT'ed
    /// clients enter routing tables as if they were servers (pre-v0.5
    /// behaviour), so walks waste time dialing unreachable peers.
    pub clients_in_routing_tables: bool,
    /// Guard timeout for a content fetch.
    pub fetch_timeout: SimDuration,
    /// The opportunistic-Bitswap probe window (§3.2's 1 s timeout before
    /// falling back to the DHT). A knob rather than a constant so the
    /// probe/DHT trade-off is explorable.
    pub bitswap_probe_timeout: SimDuration,
    /// Session duplicate factor: how many peers a live want is raced
    /// across as WANT-BLOCK. 1 fetches each block exactly once (no
    /// redundancy, go-bitswap's default posture); higher trades duplicate
    /// bytes for tail-latency resilience.
    pub duplicate_factor: usize,
    /// How many provider records from the DHT walk seed the fetch swarm
    /// (go-bitswap dials a handful of providers, not just the first).
    pub max_fetch_providers: usize,
    /// Probability that the connection to a walk-discovered peer is gone
    /// by the time the ADD_PROVIDER batch fires, forcing a fresh dial that
    /// fails with a transport timeout. This models what §6.1 observed:
    /// "the spike at 5 s is caused by dial timeouts ... the spike at 45 s
    /// ... by the handshake timeout of the Websocket transport". 53.7 % of
    /// the paper's batches exceeded 5 s, i.e. ≥1 of 20 stores timed out.
    pub stale_dial_prob: f64,
    /// Connection-manager cap: oldest warm connections are pruned beyond
    /// this (go-libp2p's connection manager; its pruning is one reason
    /// publish batches re-dial, §6.1).
    pub max_connections: usize,
    /// Idle-connection expiry: a warm connection unused for longer than
    /// this is torn down before reuse (go-libp2p's connection manager
    /// closes idle connections once past its grace period). Without it,
    /// any node that ever fetched from a provider keeps a warm path to it
    /// forever, letting the opportunistic Bitswap probe short-circuit
    /// retrievals that the paper's pipeline (§3.2) would resolve through
    /// the DHT.
    pub conn_idle_timeout: SimDuration,
    /// Future work the paper flags in §3.1: Direct Connection Upgrade
    /// through Relay (DCUtR) hole punching. When enabled, dials to
    /// NAT'ed-but-online peers succeed with
    /// [`NetworkConfig::dcutr_success_rate`], paying relay-signalling
    /// latency — letting NAT'ed peers host content.
    pub enable_dcutr: bool,
    /// Fraction of hole-punch attempts that succeed (measured deployments
    /// report ~70 %).
    pub dcutr_success_rate: f64,
    /// Hydra boosters (paper §8 future work): extra always-online,
    /// datacenter-hosted DHT heads spread across the keyspace. They join
    /// the network as ordinary servers; their stability accelerates walks
    /// and anchors records.
    pub hydra_heads: usize,
    /// Periodic Kademlia table refresh (go-ipfs refreshes stale buckets
    /// every ~10 min). `None` disables; refresh traffic is modeled as the
    /// oracle self-lookup of the join-time announcement. Adds one event
    /// per online server per interval — enable for long-horizon
    /// experiments where staleness matters.
    pub table_refresh_interval: Option<SimDuration>,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            node: NodeConfig::default(),
            timeouts: TimeoutModel::default(),
            latency: LatencyModel::default(),
            server_processing: SimDuration::from_millis(3),
            provider_records_carry_addrs: false,
            retriever_becomes_provider: false,
            parallel_dht_and_bitswap: false,
            bootstrap_near_peers: 20,
            bootstrap_random_peers: 60,
            auto_republish: false,
            reprovide_sweep: true,
            reprovide_batch_bits: 8,
            clients_in_routing_tables: false,
            fetch_timeout: SimDuration::from_secs(120),
            bitswap_probe_timeout: SimDuration::from_secs(1),
            duplicate_factor: 1,
            max_fetch_providers: 8,
            stale_dial_prob: 0.045,
            max_connections: 900,
            conn_idle_timeout: SimDuration::from_secs(120),
            enable_dcutr: false,
            dcutr_success_rate: 0.7,
            hydra_heads: 0,
            table_refresh_interval: None,
        }
    }
}

/// One simulated node: the IPFS node plus its network-level attributes.
struct SimNode {
    node: IpfsNode,
    region: Region,
    bandwidth: BandwidthClass,
    is_server: bool,
    /// Warm connections, indexed for O(log n) LRU pruning and O(expired)
    /// idle expiry.
    connections: ConnSet,
    /// Pending bucket-refresh timer. Armed only while the node is online
    /// (cancelled at churn-off, lazily re-armed at rejoin) so offline
    /// nodes contribute zero standing timers to the scheduler.
    refresh_timer: Option<TimerId>,
    /// Every CID this node provides, keyed by DHT key. A `BTreeMap` so
    /// iteration follows keyspace order — deterministic (it feeds
    /// event-scheduling and thus RNG-draw order) and exactly the order
    /// the reprovide sweep batches by.
    provided: BTreeMap<Key, ProvidedEntry>,
    /// The single reprovide-sweep timer (sweep mode): one cancellable
    /// timer maintains every provided CID, instead of one chain each.
    sweep_timer: Option<TimerId>,
    /// A sweep lapsed while the node was offline (the timer is cancelled
    /// at churn-off); the next rejoin runs it immediately, mirroring
    /// go-ipfs's reprovide-on-startup sweep.
    sweep_deferred: bool,
}

impl SimNode {
    fn new(node: IpfsNode, region: Region, bandwidth: BandwidthClass, is_server: bool) -> SimNode {
        SimNode {
            node,
            region,
            bandwidth,
            is_server,
            connections: ConnSet::new(),
            refresh_timer: None,
            provided: BTreeMap::new(),
            sweep_timer: None,
            sweep_deferred: false,
        }
    }
}

/// Events flowing through the simulation.
#[derive(Debug, Clone)]
enum NetEvent {
    /// A DHT query RPC arrives at its target. Carries the sender's causal
    /// context so the server's handler span joins the requester's trace.
    RpcArrive { from: NodeId, to: NodeId, query: QueryId, request: Box<Request>, ctx: TraceCtx },
    /// A DHT response arrives back at the requester.
    /// Carries the responder's shared identity (a refcount bump, not a
    /// multihash copy).
    RpcResponse { to: NodeId, query: QueryId, from: Arc<PeerInfo>, response: Box<Response> },
    /// A query RPC failed (dial timeout / no response within deadline).
    RpcFail { node: NodeId, query: QueryId, peer: Arc<PeerInfo> },
    /// A fire-and-forget store (ADD_PROVIDER, its sweep batch, or
    /// PUT_VALUE) arrives at its target (§3.1, §3.3).
    StoreArrive { from: NodeId, to: NodeId, store: Store },
    /// One store of a publish, IPNS publish or sweep batch settled at the
    /// sender.
    StoreSettled { op: OpId, ok: bool },
    /// A Bitswap message arrives. Carries the causal context of the
    /// session's op; responders echo it back on their replies.
    BitswapArrive { from: NodeId, to: NodeId, message: Box<Message>, ctx: TraceCtx },
    /// The 1 s opportunistic-Bitswap window expired (§3.2).
    BitswapProbeTimeout { op: OpId },
    /// The dial to a content provider completed; start the fetch session.
    FetchConnected { op: OpId, provider: PeerId },
    /// Guard: a fetch that has not completed by now fails.
    FetchTimeout { op: OpId },
    /// A peer's churn schedule moves it on- or offline.
    Churn { node: NodeId, online: bool },
    /// Periodic provider-record republication (§3.1, 12 h).
    Republish { node: NodeId, cid: Cid },
    /// Keyspace-ordered reprovide sweep fires for one node: walk the
    /// provided-CID set in DHT-key order, one Closest walk per key
    /// neighborhood, batched ADD_PROVIDER stores.
    ReprovideSweep { node: NodeId },
    /// Periodic Kademlia bucket refresh for one node.
    RefreshTable { node: NodeId },
}

// The scheduler copies pending events through timing-wheel slots, so the
// enum's footprint is paid on every schedule/cascade/pop. The RPC and
// Bitswap payloads above are boxed to keep the inline size capped by the
// plain-data variants; growing past this bound should be a deliberate
// choice, not an accident. The sharded cell's event enum
// (`crate::shardsim::Ev`) carries the same bound: its events additionally
// cross shard mailboxes at window boundaries, where the inline size is
// paid once more per hand-off.
const _: () = assert!(std::mem::size_of::<NetEvent>() <= 80);

/// The simulated IPFS network.
pub struct IpfsNetwork {
    queue: EventQueue<NetEvent>,
    rng: StdRng,
    cfg: NetworkConfig,
    nodes: Vec<SimNode>,
    /// Liveness by node id, the single source of truth. Dense and apart
    /// from [`SimNode`], so the join announcement's neighbourhood filter
    /// and every dial read one byte per node instead of a node record.
    online: Vec<bool>,
    peer_index: HashMap<PeerId, NodeId>,
    ops: HashMap<OpId, OpState>,
    next_op: u64,
    /// The DHT driver's query bookkeeping and server index.
    dht: DhtState,
    /// The Bitswap driver's session ownership.
    exchange: Exchange,
    /// Completed publish reports (drained by experiments).
    pub publish_reports: Vec<PublishReport>,
    /// Completed retrieve reports (drained by experiments).
    pub retrieve_reports: Vec<RetrieveReport>,
    /// Completed IPNS publish reports.
    pub ipns_publish_reports: Vec<IpnsPublishReport>,
    /// Completed IPNS resolve reports.
    pub ipns_resolve_reports: Vec<IpnsResolveReport>,
    /// Total events processed (diagnostics).
    pub events_processed: u64,
    /// Metrics accumulated over the run (RPC volume, dials, Bitswap
    /// traffic, record lifecycle, churn — see [`crate::obs`]).
    metrics: MetricsRegistry,
    /// Pre-resolved handles into `metrics` for the per-event hot path.
    hot: HotMetrics,
    /// The trace recorder: op logs, fragments, flight rings and
    /// post-mortems (off by default).
    tracer: Tracer,
    /// Scripted-fault state; idle (and cost-free) unless a plan is
    /// installed with [`IpfsNetwork::install_fault_plan`].
    faults: FaultOracle,
    /// Number of population peers (ids `0..crashable`) — the pool crash
    /// waves draw victims from; hydra/vantage infrastructure is exempt.
    crashable: usize,
}

impl IpfsNetwork {
    /// Builds a network from a generated population plus vantage nodes in
    /// the given AWS regions (§4.3). Vantage nodes are always-online DHT
    /// servers on datacenter links; their ids are the last
    /// `vantages.len()` indices (see [`IpfsNetwork::vantage_ids`]).
    pub fn from_population(
        pop: &Population,
        vantages: &[VantagePoint],
        cfg: NetworkConfig,
        seed: u64,
    ) -> IpfsNetwork {
        let rng = StdRng::seed_from_u64(seed ^ 0x6e65_7473_696d_2121);
        let mut nodes = Vec::with_capacity(pop.peers.len() + vantages.len());
        let mut online = Vec::with_capacity(nodes.capacity());
        let mut peer_index = HashMap::new();
        let mut queue = EventQueue::new();

        for p in &pop.peers {
            let keypair = Keypair::from_seed(p.key_seed);
            let addr: Multiaddr =
                format!("/ip4/{}/tcp/4001", p.host.ip).parse().expect("valid addr");
            let mode = if p.nat { DhtMode::Client } else { DhtMode::Server };
            let node = IpfsNode::new(keypair, vec![addr], mode, cfg.node);
            peer_index.insert(node.peer_id().clone(), nodes.len());
            let id = nodes.len();
            for (start, end) in &p.schedule.sessions {
                queue.schedule_at(*start, NetEvent::Churn { node: id, online: true });
                queue.schedule_at(*end, NetEvent::Churn { node: id, online: false });
            }
            nodes.push(SimNode::new(node, p.host.region, p.bandwidth, !p.nat));
            online.push(p.schedule.online_at(SimTime::ZERO));
        }

        // Hydra boosters: many always-online heads, before the vantage
        // nodes so `vantage_ids` keeps addressing the trailing slots.
        for i in 0..cfg.hydra_heads {
            let keypair = Keypair::from_seed(VANTAGE_KEY_BASE + 0x1_0000 + i as u64);
            let addr: Multiaddr =
                format!("/ip4/198.51.100.{}/tcp/4001", (i % 250) + 1).parse().unwrap();
            let node = IpfsNode::new(keypair, vec![addr], DhtMode::Server, cfg.node);
            peer_index.insert(node.peer_id().clone(), nodes.len());
            let region = Region::NorthAmericaEast;
            nodes.push(SimNode::new(node, region, BandwidthClass::Datacenter, true));
            online.push(true);
        }

        for (i, vp) in vantages.iter().enumerate() {
            let keypair = Keypair::from_seed(VANTAGE_KEY_BASE + i as u64);
            let addr: Multiaddr = format!("/ip4/203.0.113.{}/tcp/4001", i + 1).parse().unwrap();
            let node = IpfsNode::new(keypair, vec![addr], DhtMode::Server, cfg.node);
            peer_index.insert(node.peer_id().clone(), nodes.len());
            nodes.push(SimNode::new(node, vp.region(), BandwidthClass::Datacenter, true));
            online.push(true);
        }

        let mut metrics = MetricsRegistry::new();
        let hot = HotMetrics::resolve(&mut metrics);
        let exchange = Exchange::new(nodes.len());
        let mut net = IpfsNetwork {
            queue,
            rng,
            cfg,
            nodes,
            online,
            peer_index,
            ops: HashMap::new(),
            next_op: 0,
            dht: DhtState::default(),
            exchange,
            publish_reports: Vec::new(),
            retrieve_reports: Vec::new(),
            ipns_publish_reports: Vec::new(),
            ipns_resolve_reports: Vec::new(),
            events_processed: 0,
            metrics,
            hot,
            tracer: Tracer::default(),
            faults: FaultOracle::idle(),
            crashable: pop.peers.len(),
        };
        net.arm_refresh_chains();
        net.oracle_bootstrap();
        net
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Total number of nodes (population + vantage).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Node ids of the vantage nodes (the last `n` created).
    pub fn vantage_ids(&self, n: usize) -> Vec<NodeId> {
        (self.nodes.len() - n..self.nodes.len()).collect()
    }

    /// The PeerID of a node.
    pub fn peer_id(&self, id: NodeId) -> &PeerId {
        self.nodes[id].node.peer_id()
    }

    /// Resolves a PeerID to its node id.
    pub fn resolve(&self, peer: &PeerId) -> Option<NodeId> {
        self.peer_index.get(peer).copied()
    }

    /// Whether a node is currently dialable (online DHT server).
    pub fn is_dialable(&self, id: NodeId) -> bool {
        self.online[id] && self.nodes[id].is_server
    }

    /// Whether a node is currently online (regardless of NAT status).
    pub fn is_online(&self, id: NodeId) -> bool {
        self.online[id]
    }

    /// All k-bucket entries of a node (crawler support, §4.1).
    pub fn k_bucket_entries(&self, id: NodeId) -> Vec<Arc<PeerInfo>> {
        self.nodes[id].node.dht.routing().all_peers()
    }

    /// Ids of all DHT-server nodes.
    pub fn server_ids(&self) -> Vec<NodeId> {
        (0..self.nodes.len()).filter(|&i| self.nodes[i].is_server).collect()
    }

    /// Mutable access to a node (tests, gateway integration).
    pub fn node_mut(&mut self, id: NodeId) -> &mut IpfsNode {
        &mut self.nodes[id].node
    }

    /// Shared access to a node.
    pub fn node(&self, id: NodeId) -> &IpfsNode {
        &self.nodes[id].node
    }

    /// Region of a node.
    pub fn region(&self, id: NodeId) -> Region {
        self.nodes[id].region
    }

    /// Number of currently active operations.
    pub fn active_ops(&self) -> usize {
        self.ops.len()
    }

    /// Mean logical bytes of per-node protocol state: warm-connection
    /// arena + routing-table entries + address-book slab. Length-based
    /// (not capacity-based), so the figure is independent of allocator
    /// growth policy and of how many shards executed the run.
    pub fn bytes_per_node_estimate(&self) -> u64 {
        if self.nodes.is_empty() {
            return 0;
        }
        let total: u64 = self
            .nodes
            .iter()
            .map(|n| {
                n.connections.bytes()
                    + n.node.dht.routing().bytes_estimate()
                    + n.node.addr_book.bytes_estimate()
                    + n.node.dht.store().bytes_estimate()
            })
            .sum();
        total / self.nodes.len() as u64
    }

    /// Runs the simulation until `deadline` (inclusive of events at it).
    /// Scripted fault boundaries due within the window apply at their
    /// exact virtual instants, interleaved with event dispatch.
    pub fn run_until(&mut self, deadline: SimTime) {
        loop {
            if self.apply_next_fault(Some(deadline)) {
                continue;
            }
            let Some(t) = self.queue.peek_time() else { break };
            if t > deadline {
                break;
            }
            let ev = self.queue.pop().expect("peeked");
            self.events_processed += 1;
            self.handle(ev.at, ev.event);
        }
    }

    /// Runs for `d` more virtual time.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.now() + d;
        self.run_until(deadline);
    }

    /// Runs until no operations remain active (or the queue drains).
    pub fn run_until_quiet(&mut self) {
        while !self.ops.is_empty() {
            if self.apply_next_fault(None) {
                continue;
            }
            let Some(ev) = self.queue.pop() else { break };
            self.events_processed += 1;
            self.handle(ev.at, ev.event);
        }
    }

    fn handle(&mut self, now: SimTime, event: NetEvent) {
        match event {
            NetEvent::Churn { node, online } => self.on_churn(node, online),
            NetEvent::RpcArrive { from, to, query, request, ctx } => {
                self.on_rpc_arrive(now, from, to, query, *request, ctx)
            }
            NetEvent::RpcResponse { to, query, from, response } => {
                self.on_rpc_response(now, to, query, from, *response)
            }
            NetEvent::RpcFail { node, query, peer } => self.on_rpc_fail(now, node, query, peer),
            NetEvent::StoreArrive { from, to, store } => self.on_store_arrive(now, from, to, store),
            NetEvent::StoreSettled { op, ok } => self.on_store_settled(now, op, ok),
            NetEvent::BitswapArrive { from, to, message, ctx } => {
                self.on_bitswap_arrive(now, from, to, *message, ctx)
            }
            NetEvent::BitswapProbeTimeout { op } => self.on_probe_timeout(now, op),
            NetEvent::FetchConnected { op, provider } => self.on_fetch_connected(op, provider),
            NetEvent::FetchTimeout { op } => self.finish_retrieve(now, op, false),
            NetEvent::Republish { node, cid } => self.on_republish(node, cid),
            NetEvent::ReprovideSweep { node } => self.run_reprovide_sweep(node),
            NetEvent::RefreshTable { node } => self.on_refresh(now, node),
        }
    }

    /// A node goes on- or offline. Rejoining announces the node and
    /// resumes its timers; leaving stops them and drops its connections,
    /// which its neighbours' Bitswap sessions see as a disconnect.
    fn on_churn(&mut self, id: NodeId, online: bool) {
        self.online[id] = online;
        let counter = if online { self.hot.churn_online } else { self.hot.churn_offline };
        self.metrics.incr_handle(counter);
        if online {
            self.announce_join(id);
            self.resume_refresh(id);
            self.resume_reprovide(id);
        } else {
            // A dead node must not keep timers alive in the scheduler.
            self.stop_refresh(id);
            self.park_reprovide(id);
            self.drop_connections(id);
        }
    }
}
