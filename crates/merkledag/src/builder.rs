//! Balanced Merkle-DAG construction with chunk de-duplication.
//!
//! Mirrors the go-ipfs balanced layout: leaves are raw chunks; interior
//! nodes hold up to `fanout` links; levels are stacked until a single root
//! remains, whose CID is the file's *root CID* (paper §2.1). "In
//! Merkle-DAGs, a node is allowed to have multiple parents ... content
//! de-duplication means that the same content does not need to be stored or
//! transmitted twice."

use crate::{
    blockstore::BlockStore,
    chunker::{Chunker, FixedSizeChunker},
    node::{DagNode, Link},
    Result,
};
use bytes::Bytes;
use multiformats::Cid;

/// Layout parameters for DAG construction.
#[derive(Debug, Clone, Copy)]
pub struct DagLayout {
    /// Maximum links per interior node. go-ipfs uses 174 for files.
    pub fanout: usize,
}

impl Default for DagLayout {
    fn default() -> Self {
        // 174 keeps interior nodes under 8 kiB with 34-byte CIDs + sizes,
        // matching go-ipfs's balanced builder.
        DagLayout { fanout: 174 }
    }
}

/// Statistics from one `add` operation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BuildReport {
    /// Root CID of the file.
    pub root: Cid,
    /// File size in bytes.
    pub file_size: u64,
    /// Chunks produced by the chunker.
    pub chunks: usize,
    /// Leaf blocks actually written (first-seen; duplicates skipped).
    pub new_leaves: usize,
    /// Leaf blocks skipped because an identical chunk was already stored.
    pub deduplicated_leaves: usize,
    /// Interior (branch) nodes written.
    pub branch_nodes: usize,
    /// Height of the DAG (0 = single leaf).
    pub depth: usize,
    /// Total bytes written to the store (payload + node encodings).
    pub bytes_written: u64,
}

/// Builds Merkle-DAGs over a blockstore.
pub struct DagBuilder<'a, S: BlockStore> {
    store: &'a mut S,
    layout: DagLayout,
}

impl<'a, S: BlockStore> DagBuilder<'a, S> {
    /// Creates a builder writing into `store` with the default layout.
    pub fn new(store: &'a mut S) -> Self {
        DagBuilder { store, layout: DagLayout::default() }
    }

    /// Overrides the layout.
    pub fn with_layout(mut self, layout: DagLayout) -> Self {
        assert!(layout.fanout >= 2, "fanout must be at least 2");
        self.layout = layout;
        self
    }

    /// Imports `data` using the default fixed-size 256 kiB chunker — the
    /// paper's "import content to local IPFS process and allocate CID" step
    /// (Figure 3, step 1). Returns the root CID and build statistics.
    pub fn add(&mut self, data: &Bytes) -> Result<BuildReport> {
        self.add_with_chunker(data, &FixedSizeChunker::default())
    }

    /// Imports `data` with an explicit chunker.
    pub fn add_with_chunker(&mut self, data: &Bytes, chunker: &dyn Chunker) -> Result<BuildReport> {
        let chunks = chunker.chunk(data);
        let mut report = BuildReport {
            file_size: data.len() as u64,
            chunks: chunks.len(),
            ..BuildReport::default()
        };

        // Level 0: raw leaf blocks, deduplicated by CID.
        let mut level: Vec<Link> = Vec::with_capacity(chunks.len());
        for (chunk, cid) in chunks.iter().zip(leaf_cids(&chunks)) {
            if self.store.has(&cid) {
                report.deduplicated_leaves += 1;
            } else {
                self.store.put(cid.clone(), chunk.clone());
                report.new_leaves += 1;
                report.bytes_written += chunk.len() as u64;
            }
            level.push(Link { cid, name: String::new(), tsize: chunk.len() as u64 });
        }

        // Stack branch levels until one link remains.
        while level.len() > 1 {
            report.depth += 1;
            let mut next: Vec<Link> = Vec::with_capacity(level.len().div_ceil(self.layout.fanout));
            for group in level.chunks(self.layout.fanout) {
                let node = DagNode::branch(group.to_vec());
                let encoded = node.encode();
                let cid = Cid::from_dag_node(&encoded);
                let tsize = node.tsize();
                if !self.store.has(&cid) {
                    report.bytes_written += encoded.len() as u64;
                    self.store.put(cid.clone(), Bytes::from(encoded));
                    report.branch_nodes += 1;
                }
                next.push(Link { cid, name: String::new(), tsize });
            }
            level = next;
        }

        report.root = level.remove(0).cid;
        Ok(report)
    }
}

/// Smallest payload whose leaves are hashed on two threads. Below it the
/// thread start costs more than the hashing it shares.
const PARALLEL_LEAF_BYTES: usize = 512 * 1024;

/// The CIDs of `chunks`, in order. A large multi-leaf payload is hashed on
/// two scoped threads, split where half its bytes lie on either side; the
/// CIDs are the same as hashing one chunk after another.
fn leaf_cids(chunks: &[Bytes]) -> Vec<Cid> {
    let hash_all = |part: &[Bytes]| part.iter().map(|c| Cid::from_raw_data(c)).collect::<Vec<_>>();
    let total: usize = chunks.iter().map(Bytes::len).sum();
    let one_core = || !std::thread::available_parallelism().is_ok_and(|n| n.get() > 1);
    if chunks.len() < 2 || total < PARALLEL_LEAF_BYTES || one_core() {
        return hash_all(chunks);
    }
    // The head takes every chunk up to and including the one that crosses
    // the half-way byte; the tail keeps at least one.
    let mut before = 0;
    let crossing = chunks
        .iter()
        .take_while(|c| {
            before += c.len();
            2 * before < total
        })
        .count();
    let (head, tail) = chunks.split_at((crossing + 1).min(chunks.len() - 1));
    std::thread::scope(|scope| {
        let tail_cids = scope.spawn(|| hash_all(tail));
        let mut cids = hash_all(head);
        cids.extend(tail_cids.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        cids
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blockstore::MemoryBlockStore;
    use crate::chunker::FixedSizeChunker;

    fn bytes_of(len: usize, seed: u8) -> Bytes {
        // Non-periodic stream so chunks are pairwise distinct.
        let mut state = seed as u64 | 0x1000;
        Bytes::from(
            (0..len)
                .map(|_| {
                    state ^= state >> 12;
                    state ^= state << 25;
                    state ^= state >> 27;
                    (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 56) as u8
                })
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn single_chunk_file_root_is_raw_leaf() {
        let mut store = MemoryBlockStore::new();
        let data = bytes_of(1000, 1);
        let report = DagBuilder::new(&mut store).add(&data).unwrap();
        assert_eq!(report.chunks, 1);
        assert_eq!(report.depth, 0);
        assert_eq!(report.branch_nodes, 0);
        assert_eq!(report.root, Cid::from_raw_data(&data));
    }

    #[test]
    fn multi_chunk_file_builds_branch() {
        let mut store = MemoryBlockStore::new();
        let data = bytes_of(10_000, 2);
        let chunker = FixedSizeChunker::new(1024);
        let report = DagBuilder::new(&mut store).add_with_chunker(&data, &chunker).unwrap();
        assert_eq!(report.chunks, 10);
        assert_eq!(report.depth, 1);
        assert_eq!(report.branch_nodes, 1);
        assert_eq!(report.new_leaves, 10);
    }

    #[test]
    fn deep_dag_with_small_fanout() {
        let mut store = MemoryBlockStore::new();
        let data = bytes_of(64 * 100, 3);
        let chunker = FixedSizeChunker::new(64);
        let report = DagBuilder::new(&mut store)
            .with_layout(DagLayout { fanout: 4 })
            .add_with_chunker(&data, &chunker)
            .unwrap();
        assert_eq!(report.chunks, 100);
        // 100 -> 25 -> 7 -> 2 -> 1: depth 4.
        assert_eq!(report.depth, 4);
        assert_eq!(report.branch_nodes, 25 + 7 + 2 + 1);
    }

    #[test]
    fn leaves_are_views_of_the_payload_buffer() {
        // Import stores each leaf as a view of the payload, not a copy: one
        // buffer per imported payload, whichever chunker cut it.
        let data = bytes_of(3 * 256 * 1024 + 1000, 7);
        let payload = data.as_ptr() as usize..data.as_ptr() as usize + data.len();
        let cdc = crate::chunker::ContentDefinedChunker::new(1024, 8192, 11);
        for chunker in [None, Some(&cdc)] {
            let mut store = MemoryBlockStore::new();
            let mut builder = DagBuilder::new(&mut store);
            let report = match chunker {
                None => builder.add(&data),
                Some(c) => builder.add_with_chunker(&data, c),
            }
            .unwrap();
            let leaves: Vec<Cid> = store
                .cids()
                .filter(|c| c.codec() == multiformats::Multicodec::Raw)
                .cloned()
                .collect();
            assert_eq!(leaves.len(), report.new_leaves);
            assert!(report.new_leaves > 3);
            for cid in &leaves {
                let block = store.get(cid).unwrap();
                let at = block.as_ptr() as usize;
                assert!(
                    payload.contains(&at) && at + block.len() <= payload.end,
                    "leaf {cid} is a copy, not a view of the payload"
                );
            }
        }
    }

    /// The import as it ran before leaves were hashed in parallel: one
    /// chunk after another, each hashed where it is stored.
    fn serial_import(
        data: &Bytes,
        chunker: &dyn Chunker,
        fanout: usize,
    ) -> (BuildReport, MemoryBlockStore) {
        let mut store = MemoryBlockStore::new();
        let chunks = chunker.chunk(data);
        let mut report = BuildReport {
            file_size: data.len() as u64,
            chunks: chunks.len(),
            ..Default::default()
        };
        let mut level = Vec::new();
        for chunk in &chunks {
            let cid = Cid::from_raw_data(chunk);
            if store.has(&cid) {
                report.deduplicated_leaves += 1;
            } else {
                store.put(cid.clone(), chunk.clone());
                report.new_leaves += 1;
                report.bytes_written += chunk.len() as u64;
            }
            level.push(Link { cid, name: String::new(), tsize: chunk.len() as u64 });
        }
        while level.len() > 1 {
            report.depth += 1;
            let mut next = Vec::new();
            for group in level.chunks(fanout) {
                let node = DagNode::branch(group.to_vec());
                let encoded = node.encode();
                let cid = Cid::from_dag_node(&encoded);
                if !store.has(&cid) {
                    report.bytes_written += encoded.len() as u64;
                    store.put(cid.clone(), Bytes::from(encoded));
                    report.branch_nodes += 1;
                }
                next.push(Link { cid, name: String::new(), tsize: node.tsize() });
            }
            level = next;
        }
        report.root = level.remove(0).cid;
        (report, store)
    }

    #[test]
    fn parallel_leaf_hashing_matches_serial_import() {
        // Large enough to take the two-thread path, with repeated chunks
        // so dedup order is exercised across the split point.
        let unique = bytes_of(PARALLEL_LEAF_BYTES + 40 * 8192, 8);
        let mut doubled = unique.to_vec();
        doubled.extend_from_slice(&unique[..40 * 8192]);
        doubled.extend_from_slice(&unique[..8192]);
        let data = Bytes::from(doubled);
        let cdc = crate::chunker::ContentDefinedChunker::new(1024, 16384, 12);
        let fixed = FixedSizeChunker::new(8192);
        for chunker in [&fixed as &dyn Chunker, &cdc] {
            let chunks = chunker.chunk(&data);
            let serial_cids: Vec<Cid> = chunks.iter().map(|c| Cid::from_raw_data(c)).collect();
            assert_eq!(leaf_cids(&chunks), serial_cids, "{} leaves", chunker.name());
            let (want, mut want_store) = serial_import(&data, chunker, 16);
            let mut store = MemoryBlockStore::new();
            let got = DagBuilder::new(&mut store)
                .with_layout(DagLayout { fanout: 16 })
                .add_with_chunker(&data, chunker)
                .unwrap();
            assert_eq!(got, want, "{} report", chunker.name());
            assert!(got.deduplicated_leaves > 0 && got.depth >= 2);
            let cids: Vec<Cid> = store.cids().cloned().collect();
            assert_eq!(cids.len(), want_store.cids().count(), "{} stored blocks", chunker.name());
            for cid in &cids {
                assert_eq!(store.get(cid), want_store.get(cid));
            }
        }
        // The split is by bytes, and both sides keep their order: uneven
        // chunk sizes hash to the serial CIDs too.
        let uneven: Vec<Bytes> =
            [700_000, 10, 20, 300_000, 1].iter().map(|&n| data.slice(..n)).collect();
        let serial: Vec<Cid> = uneven.iter().map(|c| Cid::from_raw_data(c)).collect();
        assert_eq!(leaf_cids(&uneven), serial);
    }

    #[test]
    fn identical_chunks_deduplicate_within_file() {
        let mut store = MemoryBlockStore::new();
        // 8 identical 512-byte chunks.
        let data = Bytes::from(vec![0xCDu8; 4096]);
        let chunker = FixedSizeChunker::new(512);
        let report = DagBuilder::new(&mut store).add_with_chunker(&data, &chunker).unwrap();
        assert_eq!(report.chunks, 8);
        assert_eq!(report.new_leaves, 1);
        assert_eq!(report.deduplicated_leaves, 7);
    }

    #[test]
    fn identical_files_deduplicate_across_adds() {
        let mut store = MemoryBlockStore::new();
        let data = bytes_of(10_000, 4);
        let chunker = FixedSizeChunker::new(1024);
        let first = DagBuilder::new(&mut store).add_with_chunker(&data, &chunker).unwrap();
        let second = DagBuilder::new(&mut store).add_with_chunker(&data, &chunker).unwrap();
        assert_eq!(first.root, second.root);
        assert_eq!(second.new_leaves, 0);
        assert_eq!(second.deduplicated_leaves, first.chunks);
        assert_eq!(second.bytes_written, 0);
    }

    #[test]
    fn root_cid_independent_of_store_history() {
        // Merkle-DAGs are agnostic to where/with-what content is stored
        // (paper §2.1) — the root depends only on content + layout.
        let data = bytes_of(5000, 5);
        let chunker = FixedSizeChunker::new(512);
        let mut s1 = MemoryBlockStore::new();
        let mut s2 = MemoryBlockStore::new();
        DagBuilder::new(&mut s2).add(&bytes_of(999, 9)).unwrap(); // unrelated content first
        let r1 = DagBuilder::new(&mut s1).add_with_chunker(&data, &chunker).unwrap();
        let r2 = DagBuilder::new(&mut s2).add_with_chunker(&data, &chunker).unwrap();
        assert_eq!(r1.root, r2.root);
    }

    #[test]
    fn empty_file_has_stable_root() {
        let mut store = MemoryBlockStore::new();
        let report = DagBuilder::new(&mut store).add(&Bytes::new()).unwrap();
        assert_eq!(report.root, Cid::from_raw_data(b""));
        assert_eq!(report.file_size, 0);
    }

    #[test]
    fn different_fanout_different_root_same_leaves() {
        let data = bytes_of(8192, 6);
        let chunker = FixedSizeChunker::new(512);
        let mut s1 = MemoryBlockStore::new();
        let mut s2 = MemoryBlockStore::new();
        let r1 = DagBuilder::new(&mut s1)
            .with_layout(DagLayout { fanout: 4 })
            .add_with_chunker(&data, &chunker)
            .unwrap();
        let r2 = DagBuilder::new(&mut s2)
            .with_layout(DagLayout { fanout: 8 })
            .add_with_chunker(&data, &chunker)
            .unwrap();
        assert_ne!(r1.root, r2.root, "layout is part of the DAG identity");
        assert_eq!(r1.new_leaves, r2.new_leaves);
    }
}
