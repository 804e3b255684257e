//! The Kademlia routing table: 256 buckets of k = 20 peers.
//!
//! Paper §2.3: "We also maintain i=256 buckets of k-nodes each (where k=20)
//! to split the hash space." Only DHT *servers* are inserted — "the DHT
//! client/server distinction prevents unreachable peers from becoming part
//! of other peers' routing tables".

use crate::key::Key;
use multiformats::{Multiaddr, PeerId};
use std::sync::Arc;

/// Bucket capacity, k = 20 (paper §2.3).
pub const K: usize = 20;

/// Number of buckets, one per possible distance prefix length (paper §2.3).
pub const NUM_BUCKETS: usize = 256;

/// A peer plus its advertised addresses, as exchanged in FIND_NODE replies.
#[derive(Debug)]
pub struct PeerInfo {
    /// The peer's identifier.
    pub peer: PeerId,
    /// Addresses the peer advertises.
    pub addrs: Vec<Multiaddr>,
    /// The peer's DHT key (SHA-256 of the PeerID), computed on first use.
    /// `PeerInfo` is shared via `Arc` across routing tables, reply sets and
    /// query candidates, so each identity is hashed once network-wide
    /// instead of once per table touch.
    key: std::sync::OnceLock<Key>,
}

impl PeerInfo {
    /// Creates a peer info; the DHT key is derived lazily.
    pub fn new(peer: PeerId, addrs: Vec<Multiaddr>) -> PeerInfo {
        PeerInfo { peer, addrs, key: std::sync::OnceLock::new() }
    }

    /// The peer's DHT key, cached after the first call.
    pub fn key(&self) -> Key {
        *self.key.get_or_init(|| Key::from_peer(&self.peer))
    }
}

impl Clone for PeerInfo {
    fn clone(&self) -> PeerInfo {
        let key = std::sync::OnceLock::new();
        if let Some(k) = self.key.get() {
            let _ = key.set(*k);
        }
        PeerInfo { peer: self.peer.clone(), addrs: self.addrs.clone(), key }
    }
}

impl PartialEq for PeerInfo {
    fn eq(&self, other: &PeerInfo) -> bool {
        self.peer == other.peer && self.addrs == other.addrs
    }
}

impl Eq for PeerInfo {}

/// One bucket entry. The info is shared (`Arc`) so reply sets and query
/// candidates are reference bumps, not deep copies of address lists.
#[derive(Debug, Clone)]
struct Entry {
    info: Arc<PeerInfo>,
    key: Key,
}

/// The routing table of one DHT node.
///
/// Buckets are stored *densely by common-prefix length*: `buckets[c]` holds
/// the peers whose key shares exactly `c` leading bits with the local key
/// (`c = leading_zeros(d(local, peer))`, Kademlia bucket index `255 - c`).
/// Insert, remove and lookup therefore address their bucket with one index.
/// The vec reaches only as deep as the deepest occupied `c`: with
/// hash-uniform keys that is about log2(n) (14 on average in a 20 000-node
/// world, 12 of them occupied), so a table carries ~14 `Vec` headers of
/// 24 B rather than 256, and an emptied bucket gives its allocation back.
/// Entries within a bucket are ordered least-recently seen first (classic
/// Kademlia keeps long-lived peers, which §6.4 credits for IPFS's lookup
/// reliability).
#[derive(Debug, Clone)]
pub struct RoutingTable {
    local: Key,
    /// Buckets indexed by common-prefix length with `local`. The last
    /// bucket is never empty: removal trims trailing empties.
    buckets: Vec<Vec<Entry>>,
    size: usize,
}

impl RoutingTable {
    /// Creates an empty table for a node whose own key is `local`.
    pub fn new(local: Key) -> RoutingTable {
        RoutingTable { local, buckets: Vec::new(), size: 0 }
    }

    /// The local key the table is centered on.
    pub fn local_key(&self) -> &Key {
        &self.local
    }

    /// Number of peers in the table.
    pub fn len(&self) -> usize {
        self.size
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// The common-prefix length of `key` with the local key: its bucket's
    /// position in `buckets` (`NUM_BUCKETS` for the local key itself).
    fn cpl(&self, key: &Key) -> usize {
        self.local.distance(key).leading_zeros()
    }

    /// Inserts or refreshes a peer. Returns `true` if the peer is now in
    /// the table. A full bucket rejects newcomers (Kademlia's
    /// oldest-peer-wins policy, which favours stable peers); an existing
    /// entry is moved to the most-recently-seen tail and its addresses
    /// refreshed.
    pub fn insert(&mut self, info: impl Into<Arc<PeerInfo>>) -> bool {
        let info = info.into();
        self.insert_shared(info.key(), &info)
    }

    /// [`RoutingTable::insert`] for a caller that already holds the peer's
    /// key and a shared handle. The handle is cloned only when a new entry
    /// is stored or the stored entry holds a different `Arc`, so
    /// re-announcing a peer that is already present writes no refcount.
    /// `key` must be `info.key()`.
    pub fn insert_shared(&mut self, key: Key, info: &Arc<PeerInfo>) -> bool {
        let cpl = self.cpl(&key);
        if cpl == NUM_BUCKETS {
            return false; // never insert self
        }
        if cpl >= self.buckets.len() {
            self.buckets.resize_with(cpl + 1, Vec::new);
        }
        let bucket = &mut self.buckets[cpl];
        // Keys are SHA-256 of the PeerID, so key equality is peer equality;
        // the inline `[u8; 32]` compare avoids chasing the Arc on every probe.
        if let Some(pos) = bucket.iter().position(|e| e.key == key) {
            bucket[pos..].rotate_left(1);
            let entry = bucket.last_mut().expect("bucket holds the refreshed entry");
            if !Arc::ptr_eq(&entry.info, info) {
                entry.info = Arc::clone(info);
            }
            return true;
        }
        if bucket.len() >= K {
            return false;
        }
        bucket.push(Entry { info: Arc::clone(info), key });
        self.size += 1;
        true
    }

    /// Removes a peer by its DHT key ([`PeerInfo::key`]), e.g. after a
    /// failed dial. Returns whether it was present.
    pub fn remove(&mut self, key: &Key) -> bool {
        let cpl = self.cpl(key);
        let Some(bucket) = self.buckets.get_mut(cpl) else {
            return false;
        };
        let Some(pos) = bucket.iter().position(|e| e.key == *key) else {
            return false;
        };
        bucket.remove(pos);
        self.size -= 1;
        if bucket.is_empty() {
            *bucket = Vec::new();
            while self.buckets.last().is_some_and(Vec::is_empty) {
                self.buckets.pop();
            }
        }
        true
    }

    /// Whether `peer` is in the table.
    pub fn contains(&self, peer: &PeerId) -> bool {
        let key = Key::from_peer(peer);
        self.buckets.get(self.cpl(&key)).is_some_and(|b| b.iter().any(|e| e.key == key))
    }

    /// The `count` peers closest to `target` by XOR distance, nearest
    /// first. This is the reply set for FIND_NODE (§3.2) and the candidate
    /// seed for local queries.
    ///
    /// Visits buckets in exact nearest-first order and stops as soon as
    /// `count` entries are collected, sorting only the buckets it visits.
    /// Let `dt = d(local, target)`. Every entry `x` of bucket `c` has
    /// `d(local, x)` with its first set bit at position `c` (MSB first), and
    /// `d(x, target) = d(local, x) XOR dt`: it agrees with `dt` above `c`,
    /// has bit `c` equal to `!dt[c]`, and is arbitrary below. So each
    /// bucket's distances form a contiguous range, and the ranges are
    /// disjoint. Comparing two buckets at the more significant of their
    /// two bit positions gives the order: every bucket with `dt[c] = 1` (bit `c`
    /// of its distances cleared) comes before every bucket with
    /// `dt[c] = 0`; among the former a shallower `c` is nearer (it clears
    /// a higher bit that the deeper bucket keeps set), among the latter a
    /// deeper `c` is nearer (the shallower one sets a bit the deeper one
    /// keeps clear).
    pub fn closest(&self, target: &Key, count: usize) -> Vec<Arc<PeerInfo>> {
        let mut out = Vec::with_capacity(count.min(self.size));
        if count == 0 || self.size == 0 {
            return out;
        }
        let dt = self.local.distance(target);
        let bit = |c: &usize| dt.0[c / 8] & (0x80 >> (c % 8)) != 0;
        let depth = self.buckets.len();
        let order = (0..depth).filter(bit).chain((0..depth).rev().filter(|c| !bit(c)));
        // A bucket is sorted as (top 64 bits of the distance, slot) pairs
        // (a slot fits a u8: buckets hold at most K); the full distance
        // breaks a prefix tie, so the order is exact.
        let head = |k: &Key| u64::from_be_bytes(k.0[..8].try_into().expect("a key has 32 bytes"));
        let t = head(target);
        let mut near = [(0u64, 0u8); K];
        for cpl in order {
            let bucket = &self.buckets[cpl];
            let near = &mut near[..bucket.len()];
            for (n, (slot, e)) in near.iter_mut().zip(bucket.iter().enumerate()) {
                *n = (head(&e.key) ^ t, slot as u8);
            }
            let dist = |slot: u8| bucket[slot as usize].key.distance(target);
            near.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| dist(a.1).cmp(&dist(b.1))));
            for &(_, slot) in near.iter() {
                out.push(Arc::clone(&bucket[slot as usize].info));
                if out.len() >= count {
                    return out;
                }
            }
        }
        out
    }

    /// All peers in the table (ascending bucket index, i.e. farthest
    /// bucket first) — used by the network crawler (§4.1), which asks
    /// peers "for all entries in their k-buckets".
    pub fn all_peers(&self) -> Vec<Arc<PeerInfo>> {
        self.buckets.iter().rev().flatten().map(|e| Arc::clone(&e.info)).collect()
    }

    /// `(bucket index, occupancy)` of each non-empty bucket, by ascending
    /// index (for diagnostics/benchmarks).
    pub fn bucket_sizes(&self) -> Vec<(usize, usize)> {
        self.buckets
            .iter()
            .enumerate()
            .rev()
            .filter(|(_, b)| !b.is_empty())
            .map(|(cpl, b)| (NUM_BUCKETS - 1 - cpl, b.len()))
            .collect()
    }

    /// Logical bytes held by this table (length-based, independent of
    /// allocator slack): the fixed struct, one header per bucket down to
    /// the deepest occupied one, and one [`Entry`] (shared-info pointer +
    /// cached key) per peer.
    pub fn bytes_estimate(&self) -> u64 {
        let headers = self.buckets.len() * std::mem::size_of::<Vec<Entry>>();
        let entries = self.size * std::mem::size_of::<Entry>();
        (std::mem::size_of::<RoutingTable>() + headers + entries) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::Distance;
    use multiformats::Keypair;

    fn info(seed: u64) -> PeerInfo {
        PeerInfo::new(Keypair::from_seed(seed).peer_id(), vec![])
    }

    fn table(seed: u64) -> RoutingTable {
        RoutingTable::new(Key::from_peer(&Keypair::from_seed(seed).peer_id()))
    }

    #[test]
    fn insert_and_lookup() {
        let mut rt = table(0);
        assert!(rt.insert(info(1)));
        assert!(rt.contains(&info(1).peer));
        assert_eq!(rt.len(), 1);
    }

    #[test]
    fn self_insertion_rejected() {
        let mut rt = table(0);
        let me = PeerInfo::new(Keypair::from_seed(0).peer_id(), vec![]);
        assert!(!rt.insert(me.clone()));
        assert!(!rt.contains(&me.peer));
    }

    #[test]
    fn reinsert_refreshes_addresses() {
        let mut rt = table(0);
        rt.insert(info(1));
        let addr: Multiaddr = "/ip4/9.9.9.9/tcp/4001".parse().unwrap();
        let refreshed = PeerInfo::new(info(1).peer, vec![addr.clone()]);
        assert!(rt.insert(refreshed));
        assert_eq!(rt.len(), 1, "reinsert must not duplicate");
        let got = rt.closest(&Key::from_peer(&info(1).peer), 1);
        assert_eq!(got[0].addrs, vec![addr]);
    }

    #[test]
    fn insert_shared_reannounce_writes_no_refcount() {
        let mut rt = table(0);
        let first = Arc::new(info(1));
        assert!(rt.insert_shared(first.key(), &first));
        let held = Arc::strong_count(&first);
        assert_eq!(held, 2, "the table holds one handle");
        assert!(rt.insert_shared(first.key(), &first));
        assert_eq!(Arc::strong_count(&first), held, "same Arc: no clone, no swap");
        // A different Arc with new addresses replaces the stored one.
        let addr: Multiaddr = "/ip4/9.9.9.9/tcp/4001".parse().unwrap();
        let moved = Arc::new(PeerInfo::new(first.peer.clone(), vec![addr.clone()]));
        assert!(rt.insert_shared(moved.key(), &moved));
        assert_eq!(Arc::strong_count(&first), 1);
        assert_eq!(Arc::strong_count(&moved), 2);
        assert_eq!(rt.closest(&moved.key(), 1)[0].addrs, vec![addr]);
        assert_eq!(rt.len(), 1);
    }

    #[test]
    fn refresh_moves_entry_to_lru_tail() {
        let mut rt = table(0);
        let infos: Vec<Arc<PeerInfo>> = (1..200u64).map(|s| Arc::new(info(s))).collect();
        for i in &infos {
            rt.insert_shared(i.key(), i);
        }
        // Re-announce the first peer of the fullest bucket: it must become
        // that bucket's most recently seen entry.
        let (cpl, _) =
            rt.buckets.iter().enumerate().max_by_key(|(_, b)| b.len()).expect("occupied");
        let oldest = Arc::clone(&rt.buckets[cpl][0].info);
        assert!(rt.insert_shared(oldest.key(), &oldest));
        let bucket = &rt.buckets[cpl];
        assert!(Arc::ptr_eq(&bucket[bucket.len() - 1].info, &oldest));
        assert!(!bucket[..bucket.len() - 1].iter().any(|e| Arc::ptr_eq(&e.info, &oldest)));
    }

    #[test]
    fn buckets_cap_at_k() {
        let mut rt = table(0);
        let mut accepted = 0;
        // Insert many peers; far-half peers all land in bucket 255, so it
        // must saturate at K while total keeps below the inserted count.
        for seed in 1..2000u64 {
            if rt.insert(info(seed)) {
                accepted += 1;
            }
        }
        assert_eq!(rt.len(), accepted);
        for (_, size) in rt.bucket_sizes() {
            assert!(size <= K, "bucket overfull: {size}");
        }
        // The top bucket covers half the keyspace: it must be full.
        let top = rt.bucket_sizes().iter().map(|(i, s)| (*i, *s)).max().unwrap();
        assert_eq!(top.1, K);
    }

    #[test]
    fn full_bucket_keeps_oldest() {
        let mut rt = table(0);
        let mut inserted: Vec<PeerInfo> = Vec::new();
        let mut rejected_any = false;
        for seed in 1..5000u64 {
            let i = info(seed);
            if rt.insert(i.clone()) {
                inserted.push(i);
            } else {
                rejected_any = true;
                // The rejected peer must not appear in the table.
                assert!(!rt.contains(&i.peer));
            }
        }
        assert!(rejected_any, "expected at least one full bucket");
        for i in &inserted {
            assert!(rt.contains(&i.peer), "old peers are never evicted by inserts");
        }
    }

    #[test]
    fn remove_frees_slot() {
        let mut rt = table(0);
        rt.insert(info(1));
        assert!(rt.remove(&info(1).key()));
        assert!(!rt.remove(&info(1).key()));
        assert_eq!(rt.len(), 0);
    }

    #[test]
    fn closest_orders_by_distance() {
        let mut rt = table(0);
        for seed in 1..200u64 {
            rt.insert(info(seed));
        }
        let target = Key::from_cid(&multiformats::Cid::from_raw_data(b"target"));
        let closest = rt.closest(&target, 20);
        assert_eq!(closest.len(), 20);
        let dists: Vec<_> =
            closest.iter().map(|p| Key::from_peer(&p.peer).distance(&target)).collect();
        for w in dists.windows(2) {
            assert!(w[0] <= w[1], "closest() must sort ascending");
        }
        // The returned set must be exactly the true 20 nearest of all peers.
        let mut all: Vec<_> =
            rt.all_peers().iter().map(|p| Key::from_peer(&p.peer).distance(&target)).collect();
        all.sort();
        assert_eq!(dists, all[..20].to_vec());
    }

    #[test]
    fn closest_with_fewer_peers_than_requested() {
        let mut rt = table(0);
        rt.insert(info(1));
        rt.insert(info(2));
        let got = rt.closest(&Key::ZERO, 20);
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn proptest_random_ops_keep_invariants() {
        use proptest::prelude::*;
        proptest!(ProptestConfig::with_cases(48), |(ops in proptest::collection::vec((any::<bool>(), 1u64..400), 1..300))| {
            let mut rt = table(0);
            let mut model: std::collections::HashSet<u64> = std::collections::HashSet::new();
            for (insert, seed) in ops {
                let i = info(seed);
                if insert {
                    if rt.insert(i.clone()) {
                        model.insert(seed);
                    }
                } else {
                    rt.remove(&i.key());
                    model.remove(&seed);
                }
                // Invariants: size bookkeeping, bucket caps, containment.
                prop_assert_eq!(rt.len(), model.len());
                for (_, size) in rt.bucket_sizes() {
                    prop_assert!(size <= K);
                }
            }
            for seed in &model {
                prop_assert!(rt.contains(&info(*seed).peer));
            }
        });
    }

    /// Reference implementation: clone everything and fully sort (the
    /// pre-optimisation behaviour). The bucket walk must match it exactly,
    /// including order.
    fn closest_reference(rt: &RoutingTable, target: &Key, count: usize) -> Vec<Arc<PeerInfo>> {
        let mut all: Vec<(Distance, Arc<PeerInfo>)> = rt
            .all_peers()
            .into_iter()
            .map(|p| (Key::from_peer(&p.peer).distance(target), p))
            .collect();
        all.sort_by_key(|e| e.0);
        all.into_iter().take(count).map(|(_, p)| p).collect()
    }

    #[test]
    fn proptest_bucket_walk_matches_full_sort() {
        use proptest::prelude::*;
        proptest!(ProptestConfig::with_cases(64), |(
            seeds in proptest::collection::vec(1u64..5_000, 1..400),
            target_seed in 0u64..10_000,
            count in 1usize..40,
        )| {
            let mut rt = table(0);
            for s in seeds {
                rt.insert(info(s));
            }
            let target = Key::from_peer(&Keypair::from_seed(target_seed).peer_id());
            let walk = rt.closest(&target, count);
            let reference = closest_reference(&rt, &target, count);
            prop_assert_eq!(walk.len(), reference.len());
            for (w, r) in walk.iter().zip(&reference) {
                prop_assert_eq!(&w.peer, &r.peer);
            }
        });
    }

    #[test]
    fn bucket_walk_matches_full_sort_on_raw_targets() {
        // Keypair-derived targets are hash-uniform; also probe structured
        // targets (all-zero, single-bit, local key itself).
        let mut rt = table(0);
        for seed in 1..600u64 {
            rt.insert(info(seed));
        }
        let mut targets = vec![Key::ZERO, *rt.local_key()];
        for bit in 0..256 {
            if bit % 17 == 0 {
                let mut b = [0u8; 32];
                b[31 - bit / 8] = 1 << (bit % 8);
                targets.push(Key::from_bytes(b));
            }
        }
        for t in targets {
            let walk = rt.closest(&t, K);
            let reference = closest_reference(&rt, &t, K);
            assert_eq!(
                walk.iter().map(|p| &p.peer).collect::<Vec<_>>(),
                reference.iter().map(|p| &p.peer).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn all_peers_matches_len() {
        let mut rt = table(0);
        for seed in 1..100u64 {
            rt.insert(info(seed));
        }
        assert_eq!(rt.all_peers().len(), rt.len());
    }

    #[test]
    fn sparse_buckets_stay_sorted_and_nonempty() {
        let mut rt = table(0);
        for seed in 1..500u64 {
            rt.insert(info(seed));
        }
        let sizes = rt.bucket_sizes();
        assert!(sizes.windows(2).all(|w| w[0].0 < w[1].0), "bucket indices sorted");
        assert!(sizes.iter().all(|&(_, s)| s > 0), "no empty buckets retained");
        // Hash-uniform keys occupy only the ~log2(n) high buckets.
        assert!(sizes.len() < 32, "expected sparse occupancy, got {}", sizes.len());
        // Removing a bucket's last entry drops the bucket itself.
        let before = rt.bucket_sizes().len();
        let lonely =
            rt.bucket_sizes().iter().find(|&&(_, s)| s == 1).map(|&(i, _)| i).and_then(|i| {
                rt.all_peers().into_iter().find(|p| rt.local.bucket_index(&p.key()) == Some(i))
            });
        if let Some(p) = lonely {
            assert!(rt.remove(&p.key()));
            assert_eq!(rt.bucket_sizes().len(), before - 1);
        }
    }

    #[test]
    fn bytes_estimate_tracks_occupancy() {
        let mut rt = table(0);
        let empty = rt.bytes_estimate();
        assert_eq!(empty, std::mem::size_of::<RoutingTable>() as u64);
        for seed in 1..200u64 {
            rt.insert(info(seed));
        }
        let full = rt.bytes_estimate();
        assert!(full > empty);
        // Dominated by per-entry cost, not per-bucket headers: entries are
        // ~40 B each and the table reaches < 32 buckets deep.
        let entries = (rt.len() * std::mem::size_of::<Entry>()) as u64;
        assert!(full - empty < entries + 32 * 40);
    }

    /// The previous layout, kept as the differential oracle for the dense
    /// one: occupied buckets only, as `(bucket index, entries)` sorted by
    /// index and found by binary search; `closest` sorts the buckets by the
    /// smallest distance each could hold.
    struct SparseModel {
        local: Key,
        buckets: Vec<(u8, Vec<Entry>)>,
        size: usize,
    }

    impl SparseModel {
        fn new(local: Key) -> SparseModel {
            SparseModel { local, buckets: Vec::new(), size: 0 }
        }

        fn insert_shared(&mut self, key: Key, info: &Arc<PeerInfo>) -> bool {
            let Some(idx) = self.local.bucket_index(&key) else {
                return false;
            };
            let slot = match self.buckets.binary_search_by_key(&(idx as u8), |b| b.0) {
                Ok(slot) => slot,
                Err(slot) => {
                    self.buckets.insert(slot, (idx as u8, Vec::new()));
                    slot
                }
            };
            let bucket = &mut self.buckets[slot].1;
            if let Some(pos) = bucket.iter().position(|e| e.key == key) {
                bucket[pos..].rotate_left(1);
                bucket.last_mut().expect("refreshed entry").info = Arc::clone(info);
                return true;
            }
            if bucket.len() >= K {
                return false;
            }
            bucket.push(Entry { info: Arc::clone(info), key });
            self.size += 1;
            true
        }

        fn remove(&mut self, key: &Key) -> bool {
            let Some(idx) = self.local.bucket_index(key) else {
                return false;
            };
            let Ok(slot) = self.buckets.binary_search_by_key(&(idx as u8), |b| b.0) else {
                return false;
            };
            let bucket = &mut self.buckets[slot].1;
            let Some(pos) = bucket.iter().position(|e| e.key == *key) else {
                return false;
            };
            bucket.remove(pos);
            if bucket.is_empty() {
                self.buckets.remove(slot);
            }
            self.size -= 1;
            true
        }

        fn bucket_sizes(&self) -> Vec<(usize, usize)> {
            self.buckets.iter().map(|(i, b)| (*i as usize, b.len())).collect()
        }

        fn all_peers(&self) -> Vec<Arc<PeerInfo>> {
            self.buckets.iter().flat_map(|(_, b)| b).map(|e| Arc::clone(&e.info)).collect()
        }

        fn bucket_min_distance(dt: &Distance, idx: usize) -> Distance {
            let mut p = [0u8; 32];
            let byte = 31 - idx / 8;
            let bit = idx % 8;
            p[..byte].copy_from_slice(&dt.0[..byte]);
            let above = if bit == 7 { 0 } else { 0xffu8 << (bit + 1) };
            p[byte] = (dt.0[byte] & above) | ((!dt.0[byte]) & (1u8 << bit));
            Distance(p)
        }

        fn closest(&self, target: &Key, count: usize) -> Vec<Arc<PeerInfo>> {
            let dt = self.local.distance(target);
            let mut order: Vec<(Distance, usize)> = self
                .buckets
                .iter()
                .enumerate()
                .map(|(slot, (idx, _))| (Self::bucket_min_distance(&dt, *idx as usize), slot))
                .collect();
            order.sort_unstable();
            let mut out = Vec::new();
            for (_, slot) in order {
                let mut bucket: Vec<_> = self.buckets[slot]
                    .1
                    .iter()
                    .map(|e| (e.key.distance(target), &e.info))
                    .collect();
                bucket.sort_unstable_by_key(|e| e.0);
                out.extend(bucket.into_iter().map(|(_, info)| Arc::clone(info)));
            }
            out.truncate(count);
            out
        }
    }

    fn same_handles(a: &[Arc<PeerInfo>], b: &[Arc<PeerInfo>]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| Arc::ptr_eq(x, y))
    }

    /// The dense table's structural invariants: the deepest bucket is
    /// occupied, and an empty bucket holds no allocation.
    fn assert_dense_invariants(rt: &RoutingTable) {
        assert!(rt.buckets.last().is_none_or(|b| !b.is_empty()), "trailing empty bucket");
        assert!(
            rt.buckets.iter().all(|b| !b.is_empty() || b.capacity() == 0),
            "empty bucket holds memory"
        );
    }

    #[test]
    fn proptest_dense_table_matches_sparse_model() {
        use proptest::prelude::*;
        const UNIVERSE: usize = 200;
        let universe: Vec<Arc<PeerInfo>> =
            (1..=UNIVERSE as u64).map(|s| Arc::new(info(s))).collect();
        let addr: Multiaddr = "/ip4/9.9.9.9/tcp/4001".parse().unwrap();
        // Op kinds: 0–1 insert the peer's own handle (a re-insert if it is
        // present), 2 insert a different `Arc` with new addresses, 3 remove.
        // Target kinds: 0 random bytes, 1 the local key, 2 the op's peer.
        proptest!(ProptestConfig::with_cases(256), |(
            ops in proptest::collection::vec((0u8..4, 0..UNIVERSE, (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()), 0u8..3), 1..160),
        )| {
            let mut rt = table(0);
            let mut model = SparseModel::new(*rt.local_key());
            for (kind, idx, (w0, w1, w2, w3), target_kind) in ops {
                let peer = match kind {
                    2 => Arc::new(PeerInfo::new(universe[idx].peer.clone(), vec![addr.clone()])),
                    _ => Arc::clone(&universe[idx]),
                };
                let key = peer.key();
                let (got, want) = if kind == 3 {
                    (rt.remove(&key), model.remove(&key))
                } else {
                    (rt.insert_shared(key, &peer), model.insert_shared(key, &peer))
                };
                prop_assert_eq!(got, want);
                prop_assert_eq!(rt.len(), model.size);
                prop_assert_eq!(rt.bucket_sizes(), model.bucket_sizes());
                prop_assert!(same_handles(&rt.all_peers(), &model.all_peers()));
                assert_dense_invariants(&rt);
                let target = match target_kind {
                    0 => {
                        let mut bytes = [0u8; 32];
                        for (chunk, w) in bytes.chunks_mut(8).zip([w0, w1, w2, w3]) {
                            chunk.copy_from_slice(&w.to_be_bytes());
                        }
                        Key::from_bytes(bytes)
                    }
                    1 => *rt.local_key(),
                    _ => key,
                };
                for count in [1, K, rt.len() + 5] {
                    prop_assert!(same_handles(&rt.closest(&target, count), &model.closest(&target, count)));
                }
            }
        });
    }

    #[test]
    fn remove_emptying_deepest_bucket_trims_it() {
        let mut rt = table(0);
        for seed in 1..300u64 {
            rt.insert(info(seed));
        }
        let depth = rt.buckets.len();
        let deepest: Vec<Key> = rt.buckets[depth - 1].iter().map(|e| e.key).collect();
        for key in &deepest {
            assert!(rt.remove(key));
        }
        assert!(rt.buckets.len() < depth, "the emptied deepest bucket is trimmed");
        assert_dense_invariants(&rt);
        // Draining the table trims every bucket.
        for p in rt.all_peers() {
            assert!(rt.remove(&p.key()));
        }
        assert!(rt.buckets.is_empty());
        assert_eq!(rt.bytes_estimate(), std::mem::size_of::<RoutingTable>() as u64);
    }

    #[test]
    fn remove_emptying_middle_bucket_frees_its_allocation() {
        let mut rt = table(0);
        for seed in 1..300u64 {
            rt.insert(info(seed));
        }
        let depth = rt.buckets.len();
        let cpl =
            (0..depth - 1).rev().find(|&c| !rt.buckets[c].is_empty()).expect("a middle bucket");
        let keys: Vec<Key> = rt.buckets[cpl].iter().map(|e| e.key).collect();
        for key in &keys {
            assert!(rt.remove(key));
        }
        assert_eq!(rt.buckets.len(), depth, "a middle bucket is not trimmed");
        assert_eq!(rt.buckets[cpl].capacity(), 0, "the emptied bucket gave its allocation back");
        assert!(rt.bucket_sizes().iter().all(|&(i, _)| i != NUM_BUCKETS - 1 - cpl));
        assert_dense_invariants(&rt);
    }
}
