//! Criterion benchmarks for the protocol layer: routing-table operations,
//! XOR-distance sorting, iterative-walk convergence against an in-memory
//! oracle network, and full publish/retrieve on small simulated networks.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ipfs_core::{IpfsNetwork, NetworkConfig};
use kademlia::query::{IterativeQuery, QueryStep, QueryTarget};
use kademlia::routing::{PeerInfo, RoutingTable};
use kademlia::Key;
use multiformats::{Cid, Keypair};
use simnet::latency::VantagePoint;
use simnet::{Population, PopulationConfig, SimDuration};
use std::hint::black_box;
use std::sync::Arc;

fn infos(n: u64) -> Vec<Arc<PeerInfo>> {
    (1..=n).map(|s| Arc::new(PeerInfo::new(Keypair::from_seed(s).peer_id(), vec![]))).collect()
}

fn bench_routing_table(c: &mut Criterion) {
    let peers = infos(2_000);
    c.bench_function("routing/insert_2k", |b| {
        b.iter(|| {
            let mut rt = RoutingTable::new(Key::ZERO);
            for p in &peers {
                rt.insert(black_box(p.clone()));
            }
            rt.len()
        })
    });
    let mut rt = RoutingTable::new(Key::ZERO);
    for p in &peers {
        rt.insert(p.clone());
    }
    let target = Key::from_cid(&Cid::from_raw_data(b"t"));
    c.bench_function("routing/closest_20", |b| {
        b.iter(|| black_box(rt.closest(black_box(&target), 20)))
    });
}

fn bench_iterative_walk(c: &mut Criterion) {
    // Oracle network: every peer answers with the true closest peers.
    let mut group = c.benchmark_group("walk_converge");
    for n in [500u64, 2_000] {
        let peers = infos(n);
        let keys: Vec<(Key, usize)> =
            peers.iter().enumerate().map(|(i, p)| (Key::from_peer(&p.peer), i)).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let target = Key::from_cid(&Cid::from_raw_data(b"walk"));
                let mut q = IterativeQuery::new(target, QueryTarget::Closest, peers[..3].to_vec());
                loop {
                    match q.next_step() {
                        QueryStep::Done => break,
                        QueryStep::Wait => unreachable!(),
                        QueryStep::Query(info) => {
                            let mut ranked: Vec<(kademlia::Distance, usize)> =
                                keys.iter().map(|(k, i)| (k.distance(&target), *i)).collect();
                            ranked.sort_by_key(|a| a.0);
                            let closer: Vec<Arc<PeerInfo>> =
                                ranked.iter().take(20).map(|(_, i)| peers[*i].clone()).collect();
                            q.on_response(&info.peer, &closer, &[]);
                        }
                    }
                }
                black_box(q.rpcs_sent)
            })
        });
    }
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    // Full simulated publish + retrieve on a 300-peer network, including
    // event scheduling, latency sampling, and the Bitswap exchange.
    c.bench_function("sim/publish_retrieve_300", |b| {
        b.iter(|| {
            let pop = Population::generate(
                PopulationConfig {
                    size: 300,
                    nat_fraction: 0.4,
                    horizon: SimDuration::from_hours(2),
                },
                99,
            );
            let mut net = IpfsNetwork::from_population(
                &pop,
                &[VantagePoint::EuCentral1, VantagePoint::UsWest1],
                NetworkConfig::default(),
                99,
            );
            let ids = net.vantage_ids(2);
            let cid = net.import_content(ids[0], &Bytes::from(vec![1u8; 512 * 1024]));
            net.publish(ids[0], cid.clone());
            net.run_until_quiet();
            net.retrieve(ids[1], cid);
            net.run_until_quiet();
            black_box(net.events_processed)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_routing_table, bench_iterative_walk, bench_end_to_end
}
criterion_main!(benches);
