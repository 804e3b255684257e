//! Criterion micro-benchmarks for the hot data-plane paths: hashing,
//! content addressing, DAG construction, block storage and the gateway
//! cache. These are the per-operation costs underneath every experiment.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gateway::LruWebCache;
use merkledag::{BlockStore, DagBuilder, FixedSizeChunker, MemoryBlockStore, Resolver};
use multiformats::{sha256, Cid, Keypair, Multiaddr};
use std::hint::black_box;

fn bench_sha256(c: &mut Criterion) {
    eprintln!("sha256 backend: {}", sha256::backend());
    let mut group = c.benchmark_group("sha256");
    // 38 bytes is a binary CIDv1 / PeerID: the DHT-key hash.
    for size in [38usize, 64, 4 * 1024, 256 * 1024] {
        let data = vec![0xABu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, d| {
            b.iter(|| sha256::digest(black_box(d)))
        });
    }
    group.finish();
}

fn bench_cid(c: &mut Criterion) {
    let data = vec![0x55u8; 256 * 1024];
    c.bench_function("cid/from_raw_256k", |b| b.iter(|| Cid::from_raw_data(black_box(&data))));
    let cid = Cid::from_raw_data(b"roundtrip");
    let s = cid.to_string();
    c.bench_function("cid/parse_base32", |b| b.iter(|| Cid::parse(black_box(&s)).unwrap()));
}

fn bench_multiaddr(c: &mut Criterion) {
    let kp = Keypair::from_seed(1);
    let s = format!("/ip4/192.0.2.33/tcp/4001/p2p/{}", kp.peer_id());
    c.bench_function("multiaddr/parse", |b| b.iter(|| Multiaddr::parse(black_box(&s)).unwrap()));
    let ma = Multiaddr::parse(&s).unwrap();
    c.bench_function("multiaddr/binary_roundtrip", |b| {
        b.iter(|| Multiaddr::from_bytes(black_box(&ma.to_bytes())).unwrap())
    });
}

fn bench_dag_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("dag_build");
    for size in [512 * 1024usize, 4 * 1024 * 1024] {
        let data = Bytes::from(
            (0..size).map(|i| (i as u64).wrapping_mul(0x9e3779b9) as u8).collect::<Vec<_>>(),
        );
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, d| {
            b.iter(|| {
                let mut store = MemoryBlockStore::new();
                DagBuilder::new(&mut store).add(black_box(d)).unwrap()
            })
        });
    }
    group.finish();
}

fn bench_dag_read(c: &mut Criterion) {
    let data = Bytes::from(vec![7u8; 1024 * 1024]);
    let mut store = MemoryBlockStore::new();
    let chunker = FixedSizeChunker::new(64 * 1024);
    let root = DagBuilder::new(&mut store).add_with_chunker(&data, &chunker).unwrap().root;
    c.bench_function("dag_read/verified_1MB", |b| {
        b.iter(|| Resolver::new(&mut store).read_file(black_box(&root)).unwrap())
    });
}

fn bench_blockstore(c: &mut Criterion) {
    let blocks: Vec<(Cid, Bytes)> = (0..1000u32)
        .map(|i| {
            let data = Bytes::from(i.to_be_bytes().to_vec());
            (Cid::from_raw_data(&data), data)
        })
        .collect();
    c.bench_function("blockstore/put_get_1k", |b| {
        b.iter(|| {
            let mut store = MemoryBlockStore::new();
            for (cid, data) in &blocks {
                store.put(cid.clone(), data.clone());
            }
            for (cid, _) in &blocks {
                black_box(store.get(cid));
            }
        })
    });
}

fn bench_web_cache(c: &mut Criterion) {
    let cids: Vec<Cid> = (0..512u32).map(|i| Cid::from_raw_data(&i.to_be_bytes())).collect();
    c.bench_function("gateway_cache/lru_churn", |b| {
        b.iter(|| {
            let mut cache = LruWebCache::new(100 * 1024);
            for (i, cid) in cids.iter().enumerate() {
                cache.put(cid.clone(), 1024);
                black_box(cache.get(&cids[i / 2]));
            }
        })
    });
}

criterion_group!(
    benches,
    bench_sha256,
    bench_cid,
    bench_multiaddr,
    bench_dag_build,
    bench_dag_read,
    bench_blockstore,
    bench_web_cache
);
criterion_main!(benches);
