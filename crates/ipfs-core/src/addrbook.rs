//! The recently-seen address book.
//!
//! Paper §3.2: "each IPFS node maintains an address book of up to 900
//! recently seen peers. Nodes check whether they already have an address
//! for the PeerID they have discovered before performing any further
//! lookups" — a cache that can skip the second DHT walk entirely.
//!
//! Entries live in a slab arena and the recency queue holds `(stamp, slot)`
//! pairs — 12 bytes — instead of cloning a `PeerId` (a heap-allocated
//! multihash) per touch, which dominated the book's memory traffic in
//! large populations. Eviction order is unchanged from the stamp-based
//! original: stamps are unique and monotonic, so the oldest live record is
//! exactly the minimum-stamp entry.
//!
//! A slot holds the shared `Arc<PeerInfo>` a DHT response carried, indexed
//! by the peer's cached DHT key, so remembering a peer the book already
//! knows is a key probe and a pointer compare: no `PeerId` is hashed,
//! compared or cloned.

use kademlia::{Key, PeerInfo};
use multiformats::{Multiaddr, PeerId};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// One slab slot. `stamp == 0` marks a dead slot (never a live stamp: the
/// clock starts at 1), so stale recency records can never resurrect a
/// removed or recycled entry; a dead slot holds no `info`.
#[derive(Debug, Clone)]
struct Slot {
    info: Option<Arc<PeerInfo>>,
    stamp: u64,
}

/// A bounded LRU map from PeerID to known addresses.
#[derive(Debug, Clone)]
pub struct AddressBook {
    capacity: usize,
    /// Peer DHT key → slab slot of its live entry.
    index: HashMap<Key, u32>,
    /// Slab of entries; dead slots are recycled through `free`.
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Recency queue of `(stamp, slot)` records, oldest first. A record is
    /// live only while its stamp matches the slot's; later touches push a
    /// fresh record and orphan the old one, which eviction skips.
    recency: VecDeque<(u64, u32)>,
    clock: u64,
    /// Lifetime hit/miss counters.
    pub hits: u64,
    /// Lifetime misses.
    pub misses: u64,
}

impl AddressBook {
    /// Creates a book with the paper's default capacity of 900.
    pub fn new(capacity: usize) -> AddressBook {
        assert!(capacity > 0);
        AddressBook {
            capacity,
            index: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            recency: VecDeque::new(),
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Records addresses for a peer (refreshes recency). Allocates only
    /// when the peer is new or its addresses actually changed.
    pub fn insert(&mut self, peer: &PeerId, addrs: &[Multiaddr]) {
        if !addrs.is_empty() {
            self.put(Key::from_peer(peer), addrs, || {
                Arc::new(PeerInfo::new(peer.clone(), addrs.to_vec()))
            });
        }
    }

    /// Records a shared peer info (refreshes recency) — the DHT walk hot
    /// path, where responses carry the same `Arc`s the routing tables
    /// hold. The book keeps `info` itself, so an unchanged peer costs no
    /// clone; a peer whose addresses changed swaps in the new handle.
    pub fn insert_info(&mut self, info: &Arc<PeerInfo>) {
        if !info.addrs.is_empty() {
            self.put(info.key(), &info.addrs, || Arc::clone(info));
        }
    }

    /// Upserts the entry for `key`; `make` builds the stored info when the
    /// peer is new or `addrs` differ from the stored ones.
    fn put(&mut self, key: Key, addrs: &[Multiaddr], make: impl FnOnce() -> Arc<PeerInfo>) {
        self.clock += 1;
        let clock = self.clock;
        let slot = if let Some(&slot) = self.index.get(&key) {
            let entry = &mut self.slots[slot as usize];
            entry.stamp = clock;
            let stored = entry.info.as_mut().expect("indexed slots are live");
            // The same `Arc` passes the very slice it stores: skip the
            // element-wise compare.
            if !std::ptr::eq(stored.addrs.as_slice(), addrs) && stored.addrs != addrs {
                *stored = make();
            }
            slot
        } else {
            if self.index.len() >= self.capacity {
                self.evict_oldest();
            }
            let entry = Slot { info: Some(make()), stamp: clock };
            let slot = match self.free.pop() {
                Some(slot) => {
                    self.slots[slot as usize] = entry;
                    slot
                }
                None => {
                    self.slots.push(entry);
                    (self.slots.len() - 1) as u32
                }
            };
            self.index.insert(key, slot);
            slot
        };
        self.touch(clock, slot);
    }

    /// Looks up addresses, refreshing recency on hit and counting
    /// hit/miss statistics.
    pub fn lookup(&mut self, peer: &PeerId) -> Option<Vec<Multiaddr>> {
        self.clock += 1;
        let clock = self.clock;
        match self.index.get(&Key::from_peer(peer)) {
            Some(&slot) => {
                let entry = &mut self.slots[slot as usize];
                entry.stamp = clock;
                self.hits += 1;
                let addrs = entry.info.as_ref().expect("indexed slots are live").addrs.clone();
                self.touch(clock, slot);
                Some(addrs)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Non-mutating presence check (no statistics, no recency bump).
    pub fn contains(&self, peer: &PeerId) -> bool {
        self.index.contains_key(&Key::from_peer(peer))
    }

    /// Drops a peer (e.g. its addresses proved stale). Its queue records
    /// become orphans that eviction skips; the slot is recycled.
    pub fn remove(&mut self, peer: &PeerId) {
        if let Some(slot) = self.index.remove(&Key::from_peer(peer)) {
            self.release(slot);
        }
    }

    /// Number of peers currently remembered.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the book is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Logical bytes held (length-based, allocation-independent): index
    /// entry + slab slot per live peer and the recency queue at 12 bytes
    /// per record. The `PeerInfo` a slot points at is shared with the
    /// routing tables and responses that produced it, so the book does not
    /// charge it.
    pub fn bytes_estimate(&self) -> u64 {
        let entry = std::mem::size_of::<(Key, u32)>() + std::mem::size_of::<Slot>();
        let total = std::mem::size_of::<AddressBook>()
            + self.recency.len() * std::mem::size_of::<(u64, u32)>()
            + self.index.len() * entry;
        total as u64
    }

    /// Appends a recency record, compacting the queue when orphaned
    /// records outnumber live ones ~3:1 so it stays O(capacity).
    fn touch(&mut self, stamp: u64, slot: u32) {
        self.recency.push_back((stamp, slot));
        if self.recency.len() > 4 * self.capacity.max(self.index.len()) {
            let slots = &self.slots;
            self.recency.retain(|&(s, slot)| slots[slot as usize].stamp == s);
        }
    }

    /// Removes the least-recently-used entry: pop queue records until one
    /// is still live, then drop that peer.
    fn evict_oldest(&mut self) {
        while let Some((stamp, slot)) = self.recency.pop_front() {
            if self.slots[slot as usize].stamp == stamp {
                let info = self.slots[slot as usize].info.as_ref().expect("live slot");
                self.index.remove(&info.key());
                self.release(slot);
                return;
            }
        }
    }

    /// Marks a slot dead, drops its info handle and recycles the slot.
    fn release(&mut self, slot: u32) {
        self.slots[slot as usize] = Slot { info: None, stamp: 0 };
        self.free.push(slot);
    }
}

impl Default for AddressBook {
    fn default() -> Self {
        AddressBook::new(900)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multiformats::Keypair;

    fn peer(seed: u64) -> PeerId {
        Keypair::from_seed(seed).peer_id()
    }

    fn addr(port: u16) -> Vec<Multiaddr> {
        vec![format!("/ip4/10.0.0.1/tcp/{port}").parse().unwrap()]
    }

    #[test]
    fn insert_lookup_roundtrip() {
        let mut book = AddressBook::new(10);
        book.insert(&peer(1), &addr(1));
        assert_eq!(book.lookup(&peer(1)), Some(addr(1)));
        assert_eq!(book.lookup(&peer(2)), None);
        assert_eq!((book.hits, book.misses), (1, 1));
    }

    #[test]
    fn capacity_is_900_by_default() {
        let book = AddressBook::default();
        assert_eq!(book.capacity, 900);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut book = AddressBook::new(3);
        book.insert(&peer(1), &addr(1));
        book.insert(&peer(2), &addr(2));
        book.insert(&peer(3), &addr(3));
        // Touch 1 so 2 becomes the LRU.
        book.lookup(&peer(1));
        book.insert(&peer(4), &addr(4));
        assert_eq!(book.len(), 3);
        assert!(book.contains(&peer(1)));
        assert!(!book.contains(&peer(2)), "LRU entry evicted");
        assert!(book.contains(&peer(3)));
        assert!(book.contains(&peer(4)));
    }

    #[test]
    fn reinsert_does_not_grow() {
        let mut book = AddressBook::new(2);
        book.insert(&peer(1), &addr(1));
        book.insert(&peer(1), &addr(9));
        assert_eq!(book.len(), 1);
        assert_eq!(book.lookup(&peer(1)), Some(addr(9)));
    }

    #[test]
    fn empty_addresses_ignored() {
        let mut book = AddressBook::new(2);
        book.insert(&peer(1), &[]);
        assert!(book.is_empty());
    }

    #[test]
    fn remove_clears_entry() {
        let mut book = AddressBook::new(2);
        book.insert(&peer(1), &addr(1));
        book.remove(&peer(1));
        assert!(!book.contains(&peer(1)));
    }

    #[test]
    fn removed_peer_does_not_shield_survivors() {
        // A removed peer's orphaned queue record must not satisfy an
        // eviction (that would silently under-evict).
        let mut book = AddressBook::new(2);
        book.insert(&peer(1), &addr(1));
        book.insert(&peer(2), &addr(2));
        book.remove(&peer(1));
        book.insert(&peer(3), &addr(3));
        book.insert(&peer(4), &addr(4));
        assert_eq!(book.len(), 2);
        assert!(!book.contains(&peer(2)), "oldest live entry evicted");
        assert!(book.contains(&peer(3)));
        assert!(book.contains(&peer(4)));
    }

    #[test]
    fn recycled_slot_does_not_shield_survivors() {
        // peer(1)'s slot is recycled for peer(3); peer(1)'s orphaned
        // recency records must not count for the new occupant.
        let mut book = AddressBook::new(2);
        book.insert(&peer(1), &addr(1));
        book.insert(&peer(2), &addr(2));
        book.remove(&peer(1));
        book.insert(&peer(3), &addr(3)); // reuses the freed slot
        book.insert(&peer(4), &addr(4)); // must evict 2, not skip via 1's ghost
        assert!(!book.contains(&peer(2)));
        assert!(book.contains(&peer(3)));
        assert!(book.contains(&peer(4)));
    }

    #[test]
    fn full_capacity_churn() {
        let mut book = AddressBook::new(900);
        for i in 0..2000 {
            book.insert(&peer(i), &addr((i % 60_000) as u16));
        }
        assert_eq!(book.len(), 900);
        // The most recent 900 survive.
        assert!(book.contains(&peer(1999)));
        assert!(!book.contains(&peer(0)));
    }

    #[test]
    fn recency_queue_stays_bounded() {
        let mut book = AddressBook::new(8);
        for round in 0..1000u64 {
            book.insert(&peer(round % 8), &addr(1));
            book.lookup(&peer((round + 1) % 8));
        }
        assert!(book.recency.len() <= 4 * 8 + 1, "queue compacts: {}", book.recency.len());
    }

    #[test]
    fn slab_stays_bounded_under_churn() {
        let mut book = AddressBook::new(8);
        for i in 0..1000u64 {
            book.insert(&peer(i), &addr(1));
        }
        // Evicted entries recycle their slots: the slab never exceeds the
        // live count by more than the burst between evict and reinsert.
        assert!(book.slots.len() <= 9, "slab grew to {}", book.slots.len());
        assert!(book.bytes_estimate() > 0);
    }

    #[test]
    fn bytes_estimate_shrinks_on_remove() {
        let mut book = AddressBook::new(8);
        book.insert(&peer(1), &addr(1));
        book.insert(&peer(2), &addr(2));
        let two = book.bytes_estimate();
        book.remove(&peer(2));
        assert!(book.bytes_estimate() < two);
    }

    #[test]
    fn insert_info_reannounce_writes_no_refcount() {
        let mut book = AddressBook::new(4);
        let info = Arc::new(PeerInfo::new(peer(1), addr(1)));
        book.insert_info(&info);
        assert_eq!(Arc::strong_count(&info), 2, "the book holds one handle");
        book.insert_info(&info);
        assert_eq!(Arc::strong_count(&info), 2, "same Arc: no clone, no swap");
        // A different Arc with the same addresses keeps the stored one.
        let twin = Arc::new(PeerInfo::new(peer(1), addr(1)));
        book.insert_info(&twin);
        assert_eq!((Arc::strong_count(&info), Arc::strong_count(&twin)), (2, 1));
        // A different Arc with new addresses replaces it.
        let moved = Arc::new(PeerInfo::new(peer(1), addr(2)));
        book.insert_info(&moved);
        assert_eq!((Arc::strong_count(&info), Arc::strong_count(&moved)), (1, 2));
        assert_eq!(book.lookup(&peer(1)), Some(addr(2)));
        assert_eq!(book.len(), 1);
        // Removal drops the book's handle.
        book.remove(&peer(1));
        assert_eq!(Arc::strong_count(&moved), 1);
    }

    /// The book against a `PeerId`-keyed model: a recency-ordered list,
    /// least recently used first, that evicts its head at capacity.
    #[test]
    fn proptest_matches_peer_keyed_model() {
        use proptest::prelude::*;
        const PEERS: u64 = 12;
        let infos: Vec<Vec<Arc<PeerInfo>>> = (0..PEERS)
            .map(|p| (0..3u16).map(|a| Arc::new(PeerInfo::new(peer(p), addr(a)))).collect())
            .collect();
        proptest!(ProptestConfig::with_cases(96), |(
            capacity in 1usize..6,
            ops in proptest::collection::vec((0u8..5, 0u64..PEERS, 0u16..4), 1..200),
        )| {
            let mut book = AddressBook::new(capacity);
            let mut model: Vec<(PeerId, Vec<Multiaddr>)> = Vec::new();
            let (mut hits, mut misses) = (0u64, 0u64);
            for (op, p, a) in ops {
                let id = peer(p);
                let pos = model.iter().position(|(q, _)| *q == id);
                // Address variant 3 is the empty list, which is ignored.
                let addrs = if a == 3 { vec![] } else { addr(a) };
                match op {
                    0 | 1 if !addrs.is_empty() => {
                        if op == 0 {
                            book.insert(&id, &addrs);
                        } else {
                            book.insert_info(&infos[p as usize][a as usize]);
                        }
                        if let Some(i) = pos {
                            model.remove(i);
                        } else if model.len() >= capacity {
                            model.remove(0);
                        }
                        model.push((id, addrs));
                    }
                    0 => book.insert(&id, &addrs),
                    1 => book.insert_info(&Arc::new(PeerInfo::new(id, addrs))),
                    2 | 3 => {
                        let expected = pos.map(|i| {
                            let entry = model.remove(i);
                            let addrs = entry.1.clone();
                            model.push(entry);
                            addrs
                        });
                        if expected.is_some() { hits += 1 } else { misses += 1 }
                        prop_assert_eq!(book.lookup(&id), expected);
                    }
                    _ => {
                        book.remove(&id);
                        if let Some(i) = pos {
                            model.remove(i);
                        }
                    }
                }
                prop_assert_eq!(book.len(), model.len());
                prop_assert_eq!((book.hits, book.misses), (hits, misses));
                for q in 0..PEERS {
                    let id = peer(q);
                    prop_assert_eq!(book.contains(&id), model.iter().any(|(m, _)| *m == id));
                }
            }
        });
    }
}
