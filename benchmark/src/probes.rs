//! Isolated layer probes: short timed loops over one layer's public
//! functions, independent of which workload the traced run is for.
//!
//! A probe answers "how fast is this layer by itself" so that a change in
//! an end-to-end metric can be attributed: see the interaction table in
//! `README.md`. Inputs derive from the run seed. The four memory probes
//! run in a child process each, because a resident-set delta means
//! nothing in a heap that earlier probes already grew.

use crate::workloads::{pdes_world, splitmix64, xorshift_bytes};
use bitswap::session::{Session, SessionConfig};
use bitswap::{BitswapEngine, EngineOutput};
use bytes::Bytes;
use gateway::workload::{GatewayWorkload, WorkloadConfig};
use gateway::{FleetConfig, GatewayFleet, LruWebCache, TinyLfu, TinyLfuConfig};
use ipfs_core::obs::dtrace::DtraceConfig;
use ipfs_core::{
    AddressBook, ConnSet, IpfsNetwork, MetricsRegistry, NetworkConfig, NodeId, ShardSim,
    TraceConfig,
};
use kademlia::query::{IterativeQuery, QueryStep, QueryTarget};
use kademlia::rpc::{Request, Response};
use kademlia::{DhtBehaviour, DhtConfig, Key, PeerInfo, ProviderRecord, RecordStore, RoutingTable};
use merkledag::{BlockStore, DagBuilder, MemoryBlockStore, Resolver};
use multiformats::{sha256, Cid, Keypair, Multiaddr, PeerId};
use simnet::latency::{LatencyModel, VantagePoint};
use simnet::{
    EventQueue, Population, PopulationConfig, RegionEvent, SchedulerKind, ShardedEngine,
    SimDuration, SimTime,
};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const MIB: f64 = 1024.0 * 1024.0;

/// Sizes of the probes (`quick` shrinks them for tests).
#[derive(Debug, Clone, Copy)]
pub struct ProbeSizes {
    /// Tiny sizes (tests): also shrinks the fixed-work probes below.
    quick: bool,
    /// Time budget of a looping probe.
    budget: Duration,
    /// Payload of the DAG probes (merkledag, bitswap loopback).
    dag_bytes: usize,
    /// Peers a routing table is seeded from.
    table_peers: u64,
    /// In-memory tables the walk probe runs over.
    walk_tables: u64,
    /// Records the store probes hold.
    store_records: usize,
    /// Nodes of the netsim build / seeding probes.
    net_nodes: usize,
    /// Pending events of the large wheel probe.
    wheel_large: usize,
}

impl ProbeSizes {
    /// Sizes for a real or a `--quick` traced run.
    pub fn new(quick: bool) -> ProbeSizes {
        if quick {
            ProbeSizes {
                quick,
                budget: Duration::from_millis(5),
                dag_bytes: 1024 * 1024,
                table_peers: 300,
                walk_tables: 200,
                store_records: 5_000,
                net_nodes: 300,
                wheel_large: 20_000,
            }
        } else {
            ProbeSizes {
                quick,
                budget: Duration::from_millis(60),
                dag_bytes: 16 * 1024 * 1024,
                table_peers: 20_000,
                walk_tables: 5_000,
                store_records: 1_000_000,
                net_nodes: 5_000,
                wheel_large: 1_000_000,
            }
        }
    }
}

/// Calls `f(n)` — which must perform `n` operations — in growing chunks
/// until `budget` has passed; returns operations per second.
fn rate(budget: Duration, mut f: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    let (mut done, mut chunk) = (0usize, 16usize);
    loop {
        f(chunk);
        done += chunk;
        let elapsed = start.elapsed();
        if elapsed >= budget {
            return done as f64 / elapsed.as_secs_f64();
        }
        chunk = (chunk * 2).min(1 << 20);
    }
}

/// A small deterministic generator for probe inputs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.0)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
    fn key(&mut self) -> Key {
        let mut raw = [0u8; 32];
        for chunk in raw.chunks_mut(8) {
            chunk.copy_from_slice(&self.next().to_be_bytes());
        }
        Key::from_bytes(raw)
    }
    /// Zipf-ish index below `n`: squaring a uniform draw skews to 0.
    fn skewed(&mut self, n: u64) -> u64 {
        let u = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        ((u * u * u) * n as f64) as u64
    }
}

fn peer_infos(n: u64, seed: u64) -> Vec<Arc<PeerInfo>> {
    let addr: Multiaddr = "/ip4/127.0.0.1/tcp/4001".parse().expect("valid addr");
    (0..n)
        .map(|i| {
            let peer = Keypair::from_seed(seed.wrapping_add(i)).peer_id();
            Arc::new(PeerInfo::new(peer, vec![addr.clone()]))
        })
        .collect()
}

fn population(size: usize, seed: u64) -> Population {
    Population::generate(
        PopulationConfig {
            size,
            nat_fraction: 0.455,
            horizon: SimDuration::from_hours(6),
            ..Default::default()
        },
        seed,
    )
}

// ---------------------------------------------------------------------
// multiformats
// ---------------------------------------------------------------------

fn multiformats(s: &ProbeSizes, seed: u64, out: &mut Vec<(&'static str, f64)>) {
    let block = xorshift_bytes(256 * 1024, seed);
    let blocks = rate(s.budget, |n| {
        for _ in 0..n {
            black_box(sha256::digest(black_box(&block)));
        }
    });
    out.push(("multiformats.sha256_block_mib_per_s", blocks * block.len() as f64 / MIB));

    // 38 bytes: the multihash-framed input `Key::from_peer`/`from_cid` hash.
    let mut input = [0u8; 38];
    input[..8].copy_from_slice(&seed.to_be_bytes());
    out.push((
        "multiformats.sha256_key_per_s",
        rate(s.budget, |n| {
            for i in 0..n {
                input[37] = i as u8;
                black_box(sha256::digest(black_box(&input)));
            }
        }),
    ));

    let cid = Cid::from_raw_data(&seed.to_be_bytes());
    out.push((
        "multiformats.cid_codec_per_s",
        rate(s.budget, |n| {
            for _ in 0..n {
                let bytes = black_box(&cid).to_bytes();
                let a = Cid::from_bytes(&bytes).expect("bytes round trip");
                let b = Cid::parse(&a.to_string()).expect("string round trip");
                black_box(b);
            }
        }),
    ));
}

// ---------------------------------------------------------------------
// merkledag
// ---------------------------------------------------------------------

fn merkledag(s: &ProbeSizes, seed: u64, out: &mut Vec<(&'static str, f64)>) {
    let payload = Bytes::from(xorshift_bytes(s.dag_bytes, seed ^ 0xDA6));
    let mut store = MemoryBlockStore::new();
    let start = Instant::now();
    let root = DagBuilder::new(&mut store).add(&payload).expect("import").root;
    let import = start.elapsed().as_secs_f64();
    out.push(("merkledag.import_mib_per_s", s.dag_bytes as f64 / MIB / import));

    let start = Instant::now();
    let back = Resolver::new(&mut store).read_file(&root).expect("read back");
    let read = start.elapsed().as_secs_f64();
    assert_eq!(back.len(), payload.len(), "merkledag probe read back another length");
    out.push(("merkledag.read_verify_mib_per_s", s.dag_bytes as f64 / MIB / read));
}

/// Memory probe (child process): resident bytes a `MemoryBlockStore`
/// holds per payload byte imported. The payload itself is generated
/// before the first reading and so is not counted.
fn rss_merkledag(s: &ProbeSizes, seed: u64) -> f64 {
    let payload = Bytes::from(xorshift_bytes(s.dag_bytes, seed ^ 0xDA6));
    let before = rss_bytes();
    let mut store = MemoryBlockStore::new();
    DagBuilder::new(&mut store).add(&payload).expect("import");
    let held = rss_bytes().saturating_sub(before);
    black_box(&store);
    held as f64 / s.dag_bytes as f64
}

// ---------------------------------------------------------------------
// simnet
// ---------------------------------------------------------------------

/// Steady-state schedule+pop churn at a fixed pending-set size.
fn wheel_ops(pending: usize, budget: Duration, rng: &mut Rng) -> f64 {
    let mut q: EventQueue<u64> = EventQueue::with_scheduler(SchedulerKind::Wheel);
    for i in 0..pending {
        q.schedule(SimDuration::from_nanos(rng.below(60_000_000_000)), i as u64);
    }
    let ops = rate(budget, |n| {
        for _ in 0..n {
            let ev = q.pop().expect("queue stays full");
            q.schedule(SimDuration::from_nanos(rng.below(60_000_000_000)), ev.event);
        }
    });
    black_box(&q);
    2.0 * ops // one pop plus one schedule
}

/// A token circling the region ring: pure dispatch + window
/// synchronisation, no model work.
#[derive(Clone, Copy)]
struct Relay {
    region: u8,
}

impl RegionEvent for Relay {
    fn region(&self) -> usize {
        self.region as usize
    }
}

fn sharded_relay(s: &ProbeSizes, seed: u64) -> f64 {
    let (tokens, sim_secs) = if s.quick { (8, 1) } else { (64, 4) };
    let lookahead = LatencyModel::default().cross_region_lookahead();
    let mut eng: ShardedEngine<Relay> = ShardedEngine::new(10, 2, lookahead, seed);
    eng.set_workers(2);
    for region in 0..10u8 {
        for _ in 0..tokens {
            eng.seed_event(SimTime::ZERO, Relay { region });
        }
    }
    let mut states: Vec<()> = vec![(); 2];
    let start = Instant::now();
    let dispatched = eng.run_until(
        SimTime::ZERO + SimDuration::from_secs(sim_secs),
        &mut states,
        &|_, ctx, _, ev: Relay| {
            let hop = Relay { region: (ev.region + 1) % 10 };
            ctx.schedule(ctx.lookahead(), hop);
        },
    );
    dispatched as f64 / start.elapsed().as_secs_f64()
}

fn simnet(s: &ProbeSizes, seed: u64, out: &mut Vec<(&'static str, f64)>) {
    let mut rng = Rng(seed ^ 0x51A);
    out.push(("simnet.wheel_ops_per_s_10k", wheel_ops(10_000, s.budget, &mut rng)));
    out.push(("simnet.wheel_ops_per_s_1m", wheel_ops(s.wheel_large, s.budget, &mut rng)));

    let mut q: EventQueue<u64> = EventQueue::with_scheduler(SchedulerKind::Wheel);
    out.push((
        "simnet.timer_cancel_per_s",
        rate(s.budget, |n| {
            let ids: Vec<_> = (0..n)
                .map(|i| {
                    q.schedule_cancellable(
                        SimDuration::from_nanos(rng.below(60_000_000_000)),
                        i as u64,
                    )
                })
                .collect();
            for id in ids {
                black_box(q.cancel(id));
            }
        }),
    ));
    out.push(("simnet.sharded_relay_events_per_s", sharded_relay(s, seed)));

    let start = Instant::now();
    let pop = population(s.net_nodes, seed);
    let secs = start.elapsed().as_secs_f64();
    out.push(("simnet.population_nodes_per_s", pop.peers.len() as f64 / secs));
}

// ---------------------------------------------------------------------
// kademlia
// ---------------------------------------------------------------------

fn provider_record(key: Key, provider: &Arc<PeerInfo>, at: SimTime) -> ProviderRecord {
    ProviderRecord {
        key,
        provider: provider.peer.clone(),
        addrs: provider.addrs.clone(),
        received_at: at,
    }
}

/// Runs one Closest walk over in-memory tables, answering each RPC from
/// the queried peer's own routing table; returns RPCs sent.
fn walk(target: Key, from: usize, tables: &[DhtBehaviour], index: &HashMap<PeerId, usize>) -> u64 {
    let seeds = tables[from].routing().closest(&target, 20);
    let mut q = IterativeQuery::new(target, QueryTarget::Closest, seeds);
    let mut asked: Vec<Arc<PeerInfo>> = Vec::new();
    loop {
        match q.next_step() {
            QueryStep::Query(info) => asked.push(info),
            QueryStep::Done => return q.rpcs_sent,
            QueryStep::Wait => {
                // The α window is full: answer everything in flight.
                for info in asked.drain(..) {
                    let closer = tables[index[&info.peer]].routing().closest(&target, 20);
                    q.on_response(&info.peer, &closer, &[]);
                }
            }
        }
    }
}

fn kademlia(s: &ProbeSizes, seed: u64, out: &mut Vec<(&'static str, f64)>) {
    let mut rng = Rng(seed ^ 0xCAD);
    let infos = peer_infos(s.table_peers, seed);
    let local = Key::from_peer(&Keypair::from_seed(seed ^ 0xFFFF).peer_id());

    let start = Instant::now();
    let mut rt = RoutingTable::new(local);
    for info in &infos {
        rt.insert(Arc::clone(info));
    }
    out.push(("kademlia.rt_insert_per_s", infos.len() as f64 / start.elapsed().as_secs_f64()));
    out.push((
        "kademlia.closest_per_s",
        rate(s.budget, |n| {
            for _ in 0..n {
                black_box(rt.closest(&rng.key(), 20));
            }
        }),
    ));

    let me = Arc::clone(&infos[0]);
    let mut dht = DhtBehaviour::new(Arc::clone(&me), DhtConfig::default());
    for info in &infos[1..] {
        dht.add_peer(Arc::clone(info), true);
    }
    let asker = Arc::clone(&infos[1]);
    out.push((
        "kademlia.handle_find_node_per_s",
        rate(s.budget, |n| {
            for _ in 0..n {
                let request = Request::FindNode { target: rng.key() };
                match dht.handle_request(&asker, true, request, SimTime::ZERO) {
                    Some(Response::Nodes { closer }) => {
                        black_box(closer);
                    }
                    other => panic!("FIND_NODE answered {other:?}"),
                }
            }
        }),
    ));

    // Walks over in-memory tables: each table knows its 20 numeric
    // neighbours and 60 random peers, as netsim's oracle bootstrap does.
    let peers = &infos[..(s.walk_tables as usize).min(infos.len())];
    let mut sorted: Vec<usize> = (0..peers.len()).collect();
    sorted.sort_by_key(|&i| peers[i].key().0);
    let mut tables: Vec<DhtBehaviour> =
        peers.iter().map(|p| DhtBehaviour::new(Arc::clone(p), DhtConfig::default())).collect();
    for (pos, &i) in sorted.iter().enumerate() {
        for near in sorted[pos.saturating_sub(10)..(pos + 11).min(sorted.len())].iter() {
            if *near != i {
                tables[i].add_peer(Arc::clone(&peers[*near]), true);
            }
        }
        for _ in 0..60 {
            let j = rng.below(peers.len() as u64) as usize;
            if j != i {
                tables[i].add_peer(Arc::clone(&peers[j]), true);
            }
        }
    }
    let index: HashMap<PeerId, usize> =
        peers.iter().enumerate().map(|(i, p)| (p.peer.clone(), i)).collect();
    out.push((
        "kademlia.walks_per_s",
        rate(s.budget, |n| {
            for _ in 0..n {
                let from = rng.below(peers.len() as u64) as usize;
                black_box(walk(rng.key(), from, &tables, &index));
            }
        }),
    ));

    // Record store holding `store_records` provider records, received
    // spread over one hour so expiry has a wheel to walk.
    let expiry = SimDuration::from_hours(24);
    let mut store = RecordStore::with_expiry(expiry);
    let keys: Vec<Key> = (0..s.store_records).map(|_| rng.key()).collect();
    let at = |i: usize| {
        SimTime::ZERO + SimDuration::from_millis(3_600_000 * i as u64 / keys.len() as u64)
    };
    let start = Instant::now();
    for (i, key) in keys.iter().enumerate() {
        store.add_provider(provider_record(*key, &infos[i % infos.len()], at(i)));
    }
    out.push(("kademlia.store_add_per_s", keys.len() as f64 / start.elapsed().as_secs_f64()));
    let now = SimTime::ZERO + SimDuration::from_hours(2);
    out.push((
        "kademlia.store_get_per_s",
        rate(s.budget, |n| {
            for _ in 0..n {
                let key = &keys[rng.below(keys.len() as u64) as usize];
                black_box(store.providers(key, now));
            }
        }),
    ));
    let start = Instant::now();
    let expired = store.expire(SimTime::ZERO + expiry + SimDuration::from_hours(2));
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(expired, keys.len(), "kademlia probe: every record was past its expiry");
    out.push(("kademlia.store_expire_per_s", expired as f64 / secs));
}

/// Memory probe (child process): resident bytes per provider record.
fn rss_record_store(s: &ProbeSizes, seed: u64) -> f64 {
    let mut rng = Rng(seed ^ 0xCAD);
    let infos = peer_infos(64, seed);
    let before = rss_bytes();
    let mut store = RecordStore::new();
    for i in 0..s.store_records {
        store.add_provider(provider_record(rng.key(), &infos[i % infos.len()], SimTime::ZERO));
    }
    let held = rss_bytes().saturating_sub(before);
    black_box(&store);
    held as f64 / s.store_records as f64
}

// ---------------------------------------------------------------------
// bitswap
// ---------------------------------------------------------------------

fn bitswap(s: &ProbeSizes, seed: u64, out: &mut Vec<(&'static str, f64)>) {
    // Loopback: a client engine fetches a DAG from a server engine, the
    // messages pumped straight from one `handle_inbound` to the other.
    let payload = Bytes::from(xorshift_bytes(s.dag_bytes, seed ^ 0xB175));
    let mut server_store = MemoryBlockStore::new();
    let root = DagBuilder::new(&mut server_store).add(&payload).expect("import").root;
    let blocks = server_store.stats().blocks;
    let mut client_store = MemoryBlockStore::new();
    let (mut server, mut client) = (BitswapEngine::new(), BitswapEngine::new());
    let server_id = Keypair::from_seed(seed ^ 1).peer_id();
    let client_id = Keypair::from_seed(seed ^ 2).peer_id();

    let start = Instant::now();
    let (_, first) = client.start_session(root.clone(), vec![server_id.clone()], &mut client_store);
    // (true = the client sent it, so the server handles it)
    let mut queue: Vec<(bool, EngineOutput)> = first.into_iter().map(|o| (true, o)).collect();
    let (mut messages, mut complete) = (0u64, false);
    while let Some((from_client, output)) = queue.pop() {
        match output {
            EngineOutput::Send { message, .. } => {
                messages += 1;
                let replies = if from_client {
                    server.handle_inbound(&client_id, message, &mut server_store)
                } else {
                    client.handle_inbound(&server_id, message, &mut client_store)
                };
                queue.extend(replies.into_iter().map(|o| (!from_client, o)));
            }
            EngineOutput::SessionComplete { .. } => complete = true,
            _ => {}
        }
    }
    let secs = start.elapsed().as_secs_f64();
    assert!(complete, "bitswap probe: the loopback session never completed");
    assert_eq!(client_store.stats().blocks, blocks, "bitswap probe: blocks missing");
    out.push(("bitswap.loopback_mib_per_s", s.dag_bytes as f64 / MIB / secs));
    out.push(("bitswap.loopback_msgs_per_block", messages as f64 / blocks as f64));

    // Session bookkeeping alone: want → HAVE → BLOCK over 8 peers, no
    // payload, no store.
    let peers: Vec<PeerId> =
        (0..8).map(|i| Keypair::from_seed(seed ^ (16 + i)).peer_id()).collect();
    let cids: Vec<Cid> =
        (0..512u64).map(|i| Cid::from_raw_data(&(seed ^ i).to_be_bytes())).collect();
    out.push((
        "bitswap.session_ops_per_s",
        rate(s.budget, |n| {
            let mut session = Session::new(peers.clone(), SessionConfig::default());
            let mut now = 0u64;
            for i in 0..n {
                let cid = &cids[i % cids.len()];
                let peer = &peers[i % peers.len()];
                let mut stalled = false;
                now += 1_000;
                black_box(session.want_block(cid.clone(), now, &mut stalled));
                black_box(session.on_have(peer, cid, now + 100));
                black_box(session.on_block(peer, cid, now + 200));
            }
        }) * 3.0,
    ));
}

// ---------------------------------------------------------------------
// netsim
// ---------------------------------------------------------------------

fn netsim(s: &ProbeSizes, seed: u64, out: &mut Vec<(&'static str, f64)>) {
    let pop = population(s.net_nodes, seed);
    let start = Instant::now();
    let mut net =
        IpfsNetwork::from_population(&pop, &VantagePoint::ALL, NetworkConfig::default(), seed);
    out.push(("netsim.build_nodes_per_s", net.len() as f64 / start.elapsed().as_secs_f64()));

    let provider: NodeId = net.vantage_ids(1)[0];
    let cids: Vec<Cid> =
        (0..200u64).map(|i| Cid::from_raw_data(&(seed ^ i).to_le_bytes())).collect();
    let start = Instant::now();
    for cid in &cids {
        net.seed_provider_record(provider, cid);
    }
    out.push(("netsim.seed_record_per_s", cids.len() as f64 / start.elapsed().as_secs_f64()));
    drop(net);

    // Connection set at the connection-manager cap: touch, prune the
    // least recently used, expire idle ones.
    let mut rng = Rng(seed ^ 0xC0);
    let mut conns = ConnSet::new();
    let mut now = SimTime::ZERO;
    out.push((
        "netsim.connset_ops_per_s",
        rate(s.budget, |n| {
            for _ in 0..n {
                now += SimDuration::from_millis(10);
                conns.insert(rng.below(5_000) as NodeId, now);
                if conns.len() > 900 {
                    let lru = conns.lru().expect("non-empty set has an LRU entry");
                    conns.remove(lru);
                }
                black_box(conns.pop_idle(now, SimDuration::from_secs(120)));
            }
        }) * 3.0,
    ));

    let infos = peer_infos(2_000.min(s.table_peers), seed);
    let mut book = AddressBook::new(900);
    out.push((
        "netsim.addrbook_ops_per_s",
        rate(s.budget, |n| {
            for _ in 0..n {
                let info = &infos[rng.below(infos.len() as u64) as usize];
                if book.lookup(&info.peer).is_none() {
                    book.insert(&info.peer, &info.addrs);
                }
            }
        }),
    ));
}

/// Memory probe (child process): resident KiB per node of a built world.
fn rss_netsim(s: &ProbeSizes, seed: u64) -> f64 {
    let pop = population(s.net_nodes, seed);
    let before = rss_bytes();
    let net =
        IpfsNetwork::from_population(&pop, &VantagePoint::ALL, NetworkConfig::default(), seed);
    let held = rss_bytes().saturating_sub(before);
    let nodes = net.len();
    black_box(&net);
    held as f64 / 1024.0 / nodes as f64
}

// ---------------------------------------------------------------------
// shardsim
// ---------------------------------------------------------------------

fn shardsim(s: &ProbeSizes, seed: u64, out: &mut Vec<(&'static str, f64)>) {
    let mut by_shards = [0.0f64; 2];
    for shards in [1usize, 2] {
        let cfg = pdes_world::config(seed, s.quick, shards);
        let start = Instant::now();
        let mut sim = ShardSim::build(&cfg);
        let build = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let result = sim.run();
        let run = start.elapsed().as_secs_f64();
        by_shards[shards - 1] = result.events as f64 / run;
        if shards == 1 {
            out.push(("shardsim.build_nodes_per_s", cfg.nodes as f64 / build));
            let walks = pdes_world::walks(&result).max(1);
            out.push(("shardsim.events_per_op", result.events as f64 / walks as f64));
        }
    }
    out.push(("shardsim.events_per_s_shards1", by_shards[0]));
    out.push(("shardsim.events_per_s_shards2", by_shards[1]));
    out.push(("shardsim.parallel_speedup", by_shards[1] / by_shards[0]));
}

/// Memory probe (child process): resident bytes per node of a built cell.
fn rss_shardsim(s: &ProbeSizes, seed: u64) -> f64 {
    let cfg = pdes_world::config(seed, s.quick, 1);
    let before = rss_bytes();
    let sim = ShardSim::build(&cfg);
    let held = rss_bytes().saturating_sub(before);
    black_box(&sim);
    held as f64 / cfg.nodes as f64
}

// ---------------------------------------------------------------------
// obs
// ---------------------------------------------------------------------

/// A small publish/retrieve loop, with or without the program's own
/// tracing (`TraceConfig` + `DtraceConfig::full`); returns seconds.
fn traced_loop(pop: &Population, seed: u64, rounds: usize, dtrace: bool) -> f64 {
    let vantages = [VantagePoint::EuCentral1, VantagePoint::UsWest1];
    let mut net = IpfsNetwork::from_population(pop, &vantages, NetworkConfig::default(), seed);
    let [provider, requester] = net.vantage_ids(2)[..] else { unreachable!("two vantages") };
    if dtrace {
        net.set_trace_config(TraceConfig::enabled());
        net.set_dtrace(DtraceConfig::full(None));
    }
    let start = Instant::now();
    for i in 0..rounds {
        let mut data = vec![0u8; 1024];
        data[..8].copy_from_slice(&(i as u64).to_be_bytes());
        let cid = net.import_content(provider, &Bytes::from(data));
        net.publish(provider, cid.clone());
        net.run_until_quiet();
        net.retrieve(requester, cid);
        net.run_until_quiet();
        net.disconnect_all(requester);
        let provider_peer = net.peer_id(provider).clone();
        net.forget_address(requester, &provider_peer);
        let store = &mut net.node_mut(requester).store;
        let cids: Vec<_> = store.cids().cloned().collect();
        for c in cids {
            store.delete(&c);
        }
    }
    start.elapsed().as_secs_f64()
}

fn obs(s: &ProbeSizes, seed: u64, out: &mut Vec<(&'static str, f64)>) {
    let mut reg = MetricsRegistry::new();
    let counter = reg.counter_handle("probe_counter");
    out.push((
        "obs.counter_incr_per_s",
        rate(s.budget, |n| {
            for _ in 0..n {
                black_box(&mut reg).incr_handle(counter);
            }
        }),
    ));
    let mut reg = MetricsRegistry::with_histogram_mode(ipfs_core::HistogramMode::Streaming);
    let hist = reg.histogram_handle("probe_histogram");
    let mut rng = Rng(seed ^ 0x0B5);
    out.push((
        "obs.histogram_observe_per_s",
        rate(s.budget, |n| {
            for _ in 0..n {
                reg.observe_handle(hist, (rng.below(100_000) + 1) as f64);
            }
        }),
    ));

    // Tracing on over tracing off, best of three alternations each: the
    // cost of the program's own dtrace on the `dht_perf` kind of loop.
    let (nodes, rounds) = if s.quick { (300, 4) } else { (2_000, 60) };
    let pop = population(nodes, seed);
    let (mut off, mut on) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        off = off.min(traced_loop(&pop, seed, rounds, false));
        on = on.min(traced_loop(&pop, seed, rounds, true));
    }
    out.push(("obs.dtrace_overhead", on / off - 1.0));
}

// ---------------------------------------------------------------------
// gateway
// ---------------------------------------------------------------------

fn gateway(s: &ProbeSizes, seed: u64, out: &mut Vec<(&'static str, f64)>) {
    // Skewed keys over a key set four times what the cache can hold.
    let mut rng = Rng(seed ^ 0x6A7E);
    let cids: Vec<Cid> =
        (0..4_000u64).map(|i| Cid::from_raw_data(&(seed ^ i).to_be_bytes())).collect();
    let object_bytes = 1_000_000u64;
    let mut lru = LruWebCache::new(1_000 * object_bytes);
    out.push((
        "gateway.lru_ops_per_s",
        rate(s.budget, |n| {
            for _ in 0..n {
                let cid = &cids[rng.skewed(cids.len() as u64) as usize];
                if lru.get(cid).is_none() {
                    lru.put(cid.clone(), object_bytes);
                }
            }
        }),
    ));
    let mut cache = LruWebCache::new(1_000 * object_bytes);
    let mut lfu = TinyLfu::new(TinyLfuConfig::default());
    out.push((
        "gateway.tinylfu_ops_per_s",
        rate(s.budget, |n| {
            for _ in 0..n {
                let cid = &cids[rng.skewed(cids.len() as u64) as usize];
                lfu.record(gateway::admission::cid_key(cid));
                if cache.get(cid).is_none() {
                    black_box(cache.put_with_admission(cid.clone(), object_bytes, &lfu));
                }
            }
        }),
    ));

    let (catalog, users, requests) = if s.quick { (100, 40, 2_000) } else { (1_000, 400, 100_000) };
    let start = Instant::now();
    let workload = GatewayWorkload::generate(WorkloadConfig {
        catalog_size: catalog,
        users,
        requests,
        seed,
        ..Default::default()
    });
    out.push((
        "gateway.workload_gen_req_per_s",
        workload.requests.len() as f64 / start.elapsed().as_secs_f64(),
    ));

    let pop = population(s.net_nodes.min(1_500), seed);
    let vantages = [VantagePoint::UsWest1, VantagePoint::EuCentral1, VantagePoint::SaEast1];
    let mut net = IpfsNetwork::from_population(&pop, &vantages, NetworkConfig::default(), seed);
    let ids = net.vantage_ids(vantages.len());
    let mut fleet = GatewayFleet::new(&ids[..2], FleetConfig::default());
    let start = Instant::now();
    fleet.install_catalog(&mut net, &workload, &ids[2..]);
    out.push(("gateway.install_obj_per_s", catalog as f64 / start.elapsed().as_secs_f64()));
}

// ---------------------------------------------------------------------
// driver
// ---------------------------------------------------------------------

/// The four memory probes, by the name of the metric each yields.
pub const RSS_PROBES: [&str; 4] = [
    "merkledag.store_bytes_per_payload_byte",
    "kademlia.store_bytes_per_record",
    "netsim.build_rss_kib_per_node",
    "shardsim.rss_bytes_per_node",
];

/// Runs one memory probe in this process (the child side).
pub fn run_rss_probe(name: &str, seed: u64, quick: bool) -> Option<f64> {
    let s = ProbeSizes::new(quick);
    Some(match name {
        "merkledag.store_bytes_per_payload_byte" => rss_merkledag(&s, seed),
        "kademlia.store_bytes_per_record" => rss_record_store(&s, seed),
        "netsim.build_rss_kib_per_node" => rss_netsim(&s, seed),
        "shardsim.rss_bytes_per_node" => rss_shardsim(&s, seed),
        _ => return None,
    })
}

/// Resident set of this process in bytes (`VmRSS`).
pub fn rss_bytes() -> u64 {
    status_kib("VmRSS:") * 1024
}

/// A `/proc/self/status` field in KiB (0 where the file is unreadable).
pub fn status_kib(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        })
        .unwrap_or(0)
}

/// Runs every in-process probe; `rss_probe` runs one memory probe in a
/// child process and returns its number.
pub fn run_all(
    seed: u64,
    quick: bool,
    rss_probe: &dyn Fn(&str) -> Result<f64, String>,
) -> Result<Vec<(&'static str, f64)>, String> {
    let s = ProbeSizes::new(quick);
    let mut out = Vec::new();
    multiformats(&s, seed, &mut out);
    merkledag(&s, seed, &mut out);
    simnet(&s, seed, &mut out);
    kademlia(&s, seed, &mut out);
    bitswap(&s, seed, &mut out);
    netsim(&s, seed, &mut out);
    shardsim(&s, seed, &mut out);
    obs(&s, seed, &mut out);
    gateway(&s, seed, &mut out);
    for name in RSS_PROBES {
        out.push((name, rss_probe(name)?));
    }
    Ok(out)
}
