//! The "nginx" web cache: byte-bounded LRU over whole objects, with an
//! optional TinyLFU admission gate (see [`crate::admission`]).
//!
//! The entries live in a slab of slots linked into one recency list by
//! index, the way nginx keeps its cache LRU in an intrusive `ngx_queue_t`.
//! A CID → slot map finds an entry. A hit is that lookup plus an O(1)
//! relink to the MRU end; eviction pops the LRU end and puts the slot on a
//! free list for the next insert. Each slot keeps its CID's [`cid_key`],
//! so the admission duel reads a victim's key and size without hashing.

use crate::admission::{cid_key, TinyLfu};
use multiformats::{Cid, KeyHasher};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// A `HashMap` keyed by CID and hashed by [`KeyHasher`]: a CID wraps a
/// digest, so SipHash's keyed hashing buys nothing. For lookups only; its
/// iteration order is the hasher's.
pub(crate) type CidMap<V> = HashMap<Cid, V, BuildHasherDefault<KeyHasher>>;

/// The end of the recency list and of the free list.
const NIL: u32 = u32::MAX;

/// One cached object and its links in the recency list.
#[derive(Debug, Clone)]
struct Slot {
    cid: Cid,
    /// `cid_key(&cid)`, read by the admission duel.
    key: u64,
    size: u64,
    /// The neighbour toward the LRU end.
    prev: u32,
    /// The neighbour toward the MRU end; on the free list, the next free
    /// slot.
    next: u32,
}

/// A byte-capacity-bounded LRU cache mapping CIDs to object sizes.
///
/// The gateway caches whole HTTP responses; for the simulation the payload
/// itself is irrelevant — only sizes (for capacity/traffic accounting) and
/// presence matter.
///
/// `index` maps each cached CID to its slot in `slots`. The live slots form
/// one doubly linked list from `head` (least recently used) to `tail`
/// (most recently used); evicted slots form a singly linked free list from
/// `free`, reused before the slab grows.
#[derive(Debug, Clone)]
pub struct LruWebCache {
    capacity_bytes: u64,
    used_bytes: u64,
    index: CidMap<u32>,
    slots: Vec<Slot>,
    head: u32,
    tail: u32,
    free: u32,
    /// Lifetime hits.
    pub hits: u64,
    /// Lifetime misses.
    pub misses: u64,
    /// Lifetime evictions.
    pub evictions: u64,
}

impl LruWebCache {
    /// Creates a cache bounded to `capacity_bytes`.
    pub fn new(capacity_bytes: u64) -> LruWebCache {
        assert!(capacity_bytes > 0);
        LruWebCache {
            capacity_bytes,
            used_bytes: 0,
            index: CidMap::default(),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            free: NIL,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Looks up `cid`, refreshing recency. Returns the object size on hit.
    pub fn get(&mut self, cid: &Cid) -> Option<u64> {
        match self.index.get(cid) {
            Some(&i) => {
                self.touch(i);
                self.hits += 1;
                Some(self.slots[i as usize].size)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts an object of `size` bytes, evicting LRU entries as needed.
    /// Objects larger than the whole cache are not cached (nginx's
    /// behaviour for oversized responses).
    pub fn put(&mut self, cid: Cid, size: u64) {
        self.insert(&cid, cid_key(&cid), size);
    }

    /// [`LruWebCache::put`] for a caller that already holds `cid_key(cid)`.
    pub(crate) fn insert(&mut self, cid: &Cid, key: u64, size: u64) {
        if size <= self.capacity_bytes {
            let slot = self.index.get(cid).copied();
            self.insert_at(slot, cid, key, size);
        }
    }

    /// TinyLFU-gated insert: the candidate is admitted only if it would fit
    /// without evictions, or if its estimated access frequency beats every
    /// LRU victim it would displace. Returns whether the object was cached.
    ///
    /// All-or-nothing: a rejected candidate leaves the cache untouched (no
    /// evictions, no recency changes), so one-hit wonders cannot chip away
    /// at the resident working set.
    pub fn put_with_admission(&mut self, cid: Cid, size: u64, filter: &TinyLfu) -> bool {
        self.admit(&cid, cid_key(&cid), size, filter)
    }

    /// [`LruWebCache::put_with_admission`] for a caller that already holds
    /// `cid_key(cid)`.
    pub(crate) fn admit(&mut self, cid: &Cid, key: u64, size: u64, filter: &TinyLfu) -> bool {
        if size > self.capacity_bytes {
            return false;
        }
        let slot = self.index.get(cid).copied();
        // Bytes freed by replacing an existing entry for the same CID.
        let mut freed = slot.map_or(0, |i| self.slots[i as usize].size);
        // The duel: walk would-be victims from the LRU end; every victim
        // the insert would displace must lose to the candidate, whose own
        // slot is not a victim.
        let mut victim = self.head;
        while self.used_bytes - freed + size > self.capacity_bytes {
            let v = &self.slots[victim as usize];
            if Some(victim) != slot {
                if !filter.admits(key, v.key) {
                    return false;
                }
                freed += v.size;
            }
            victim = v.next;
        }
        self.insert_at(slot, cid, key, size);
        true
    }

    /// Stores `cid` (resident in `slot`, if any) at the MRU end with `size`
    /// bytes, then evicts from the LRU end until the cache fits. The entry
    /// just stored fits on its own and is the MRU, so it is never evicted.
    fn insert_at(&mut self, slot: Option<u32>, cid: &Cid, key: u64, size: u64) {
        match slot {
            Some(i) => {
                let s = &mut self.slots[i as usize];
                self.used_bytes -= s.size;
                s.size = size;
                self.touch(i);
            }
            None => {
                let slot = Slot { cid: cid.clone(), key, size, prev: NIL, next: NIL };
                let i = if self.free == NIL {
                    let i = u32::try_from(self.slots.len()).expect("under 2^32 cached objects");
                    self.slots.push(slot);
                    i
                } else {
                    let i = self.free;
                    self.free = self.slots[i as usize].next;
                    self.slots[i as usize] = slot;
                    i
                };
                self.index.insert(cid.clone(), i);
                self.push_mru(i);
            }
        }
        self.used_bytes += size;
        while self.used_bytes > self.capacity_bytes {
            let i = self.head;
            self.unlink(i);
            let s = &mut self.slots[i as usize];
            self.index.remove(&s.cid);
            self.used_bytes -= s.size;
            s.next = self.free;
            self.free = i;
            self.evictions += 1;
        }
    }

    /// Moves live slot `i` to the MRU end.
    fn touch(&mut self, i: u32) {
        if self.tail != i {
            self.unlink(i);
            self.push_mru(i);
        }
    }

    /// Takes live slot `i` out of the recency list.
    fn unlink(&mut self, i: u32) {
        let Slot { prev, next, .. } = self.slots[i as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    /// Links slot `i` in at the MRU end.
    fn push_mru(&mut self, i: u32) {
        let s = &mut self.slots[i as usize];
        s.prev = self.tail;
        s.next = NIL;
        match self.tail {
            NIL => self.head = i,
            t => self.slots[t as usize].next = i,
        }
        self.tail = i;
    }

    /// Whether `cid` is cached (no statistics side effects).
    pub fn contains(&self, cid: &Cid) -> bool {
        self.index.contains_key(cid)
    }

    /// Bytes currently cached.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Number of cached objects.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Hit rate over the cache's lifetime.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
impl LruWebCache {
    /// (CID, size) from the LRU end to the MRU end, after checking that the
    /// links agree both ways and with the index.
    fn lru_order(&self) -> Vec<(Cid, u64)> {
        let mut order = Vec::new();
        let (mut prev, mut i) = (NIL, self.head);
        while i != NIL {
            let s = &self.slots[i as usize];
            assert_eq!(s.prev, prev, "back link of slot {i}");
            assert_eq!(self.index.get(&s.cid), Some(&i), "index entry of slot {i}");
            assert_eq!(s.key, cid_key(&s.cid), "cached key of slot {i}");
            order.push((s.cid.clone(), s.size));
            (prev, i) = (i, s.next);
        }
        assert_eq!(self.tail, prev, "tail is the last linked slot");
        assert_eq!(order.len(), self.index.len(), "every indexed CID is linked");
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn cid(n: u32) -> Cid {
        Cid::from_raw_data(&n.to_be_bytes())
    }

    #[test]
    fn hit_miss_accounting() {
        let mut c = LruWebCache::new(1000);
        assert_eq!(c.get(&cid(1)), None);
        c.put(cid(1), 100);
        assert_eq!(c.get(&cid(1)), Some(100));
        assert_eq!((c.hits, c.misses), (1, 1));
        assert!((c.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn evicts_lru_when_over_capacity() {
        let mut c = LruWebCache::new(300);
        c.put(cid(1), 100);
        c.put(cid(2), 100);
        c.put(cid(3), 100);
        // Touch 1 so 2 is LRU.
        c.get(&cid(1));
        c.put(cid(4), 100);
        assert!(c.contains(&cid(1)));
        assert!(!c.contains(&cid(2)), "LRU entry must go");
        assert!(c.contains(&cid(3)));
        assert!(c.contains(&cid(4)));
        assert_eq!(c.used_bytes(), 300);
        assert_eq!(c.evictions, 1);
    }

    #[test]
    fn large_insert_evicts_many() {
        let mut c = LruWebCache::new(300);
        c.put(cid(1), 100);
        c.put(cid(2), 100);
        c.put(cid(3), 100);
        c.put(cid(4), 250);
        assert!(c.contains(&cid(4)));
        assert!(c.used_bytes() <= 300);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn oversized_objects_not_cached() {
        let mut c = LruWebCache::new(100);
        c.put(cid(1), 500);
        assert!(!c.contains(&cid(1)));
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn proptest_against_reference_lru() {
        use proptest::prelude::*;
        // Reference model: Vec-based LRU with identical semantics.
        struct RefLru {
            cap: u64,
            used: u64,
            order: Vec<(u32, u64)>, // (id, size), LRU first
        }
        impl RefLru {
            fn get(&mut self, id: u32) -> bool {
                if let Some(pos) = self.order.iter().position(|(i, _)| *i == id) {
                    let e = self.order.remove(pos);
                    self.order.push(e);
                    true
                } else {
                    false
                }
            }
            fn put(&mut self, id: u32, size: u64) {
                if size > self.cap {
                    return;
                }
                if let Some(pos) = self.order.iter().position(|(i, _)| *i == id) {
                    let (_, old) = self.order.remove(pos);
                    self.used -= old;
                }
                self.order.push((id, size));
                self.used += size;
                while self.used > self.cap {
                    // Evict LRU, but never the entry just inserted.
                    let evict_pos =
                        self.order.iter().position(|(i, _)| *i != id).expect("something evictable");
                    let (_, sz) = self.order.remove(evict_pos);
                    self.used -= sz;
                }
            }
        }
        proptest!(ProptestConfig::with_cases(64), |(ops in proptest::collection::vec(
            (any::<bool>(), 0u32..20, 1u64..400), 1..300))| {
            let mut real = LruWebCache::new(1000);
            let mut model = RefLru { cap: 1000, used: 0, order: Vec::new() };
            for (is_put, id, size) in ops {
                if is_put {
                    real.put(cid(id), size);
                    model.put(id, size);
                } else {
                    let got = real.get(&cid(id)).is_some();
                    let want = model.get(id);
                    prop_assert_eq!(got, want, "get({}) diverged", id);
                }
                prop_assert_eq!(real.used_bytes(), model.used, "byte accounting");
                prop_assert_eq!(real.len(), model.order.len(), "entry count");
                prop_assert_eq!(real.lru_order().len(), real.len(), "recency list in sync");
            }
        });
    }

    #[test]
    fn stamp_index_eviction_preserves_counters() {
        // Regression for the O(log n) eviction rewrite: the stamp-index
        // path must report the exact hit/miss/eviction counts the original
        // full-scan eviction produced for the same access pattern.
        let mut c = LruWebCache::new(300);
        c.put(cid(1), 100);
        c.put(cid(2), 100);
        c.put(cid(3), 100);
        c.get(&cid(1)); // hit: 1 is now MRU, 2 is LRU
        c.get(&cid(9)); // miss
        c.put(cid(4), 150); // evicts 2 then 3
        assert_eq!((c.hits, c.misses, c.evictions), (1, 1, 2));
        assert!(c.contains(&cid(1)) && c.contains(&cid(4)));
        assert!(!c.contains(&cid(2)) && !c.contains(&cid(3)));
        assert_eq!(c.lru_order().len(), c.len());
    }

    #[test]
    fn reinsert_updates_size() {
        let mut c = LruWebCache::new(1000);
        c.put(cid(1), 100);
        c.put(cid(1), 400);
        assert_eq!(c.used_bytes(), 400);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn admission_rejects_one_hit_wonder_scan() {
        use crate::admission::{TinyLfu, TinyLfuConfig};
        // A hot working set that exactly fills the cache, then a scan of
        // cold one-hit wonders. Plain LRU flushes the hot set; TinyLFU
        // admission keeps it resident.
        let mut filter = TinyLfu::new(TinyLfuConfig { counters: 256, sample_period: 4_096 });
        let mut c = LruWebCache::new(500);
        for hot in 0..5u32 {
            for _ in 0..6 {
                filter.record(cid_key(&cid(hot)));
            }
            assert!(c.put_with_admission(cid(hot), 100, &filter));
        }
        for cold in 100..160u32 {
            filter.record(cid_key(&cid(cold)));
            assert!(
                !c.put_with_admission(cid(cold), 100, &filter),
                "one-hit wonder {cold} must be rejected"
            );
        }
        for hot in 0..5u32 {
            assert!(c.contains(&cid(hot)), "hot set must survive the scan");
        }
        assert_eq!(c.evictions, 0, "rejected candidates must not evict");
    }

    #[test]
    fn admission_lets_new_popular_object_displace_cold_tail() {
        use crate::admission::{TinyLfu, TinyLfuConfig};
        let mut filter = TinyLfu::new(TinyLfuConfig { counters: 256, sample_period: 4_096 });
        let mut c = LruWebCache::new(300);
        // Three resident objects, each seen once.
        for id in 0..3u32 {
            filter.record(cid_key(&cid(id)));
            assert!(c.put_with_admission(cid(id), 100, &filter));
        }
        // A newcomer seen many times beats the single-access LRU victim.
        for _ in 0..8 {
            filter.record(cid_key(&cid(9)));
        }
        assert!(c.put_with_admission(cid(9), 100, &filter));
        assert!(c.contains(&cid(9)));
        assert!(!c.contains(&cid(0)), "the LRU victim is displaced");
        assert_eq!(c.evictions, 1);
    }

    #[test]
    fn admission_no_eviction_needed_always_admits() {
        use crate::admission::{TinyLfu, TinyLfuConfig};
        // With free space, even a never-seen candidate is cached.
        let filter = TinyLfu::new(TinyLfuConfig::default());
        let mut c = LruWebCache::new(1000);
        assert!(c.put_with_admission(cid(1), 100, &filter));
        assert!(c.contains(&cid(1)));
        // Reinserting a resident object (size change) never duels either.
        assert!(c.put_with_admission(cid(1), 900, &filter));
        assert_eq!(c.used_bytes(), 900);
    }

    #[test]
    fn admission_oversized_objects_not_cached() {
        use crate::admission::{TinyLfu, TinyLfuConfig};
        let filter = TinyLfu::new(TinyLfuConfig::default());
        let mut c = LruWebCache::new(100);
        assert!(!c.put_with_admission(cid(1), 500, &filter));
        assert!(c.is_empty());
    }

    #[test]
    fn proptest_admission_invariants() {
        use crate::admission::{TinyLfu, TinyLfuConfig};
        use proptest::prelude::*;
        // Under arbitrary get/put/put_with_admission interleavings the
        // cache must keep its capacity bound and index bijection, and an
        // admitted put_with_admission must behave exactly like put (same
        // final membership for that key).
        proptest!(ProptestConfig::with_cases(64), |(ops in proptest::collection::vec(
            (0u8..3, 0u32..20, 1u64..400), 1..300))| {
            let mut filter = TinyLfu::new(TinyLfuConfig { counters: 64, sample_period: 128 });
            let mut real = LruWebCache::new(1000);
            for (op, id, size) in ops {
                match op {
                    0 => { real.get(&cid(id)); }
                    1 => real.put(cid(id), size),
                    _ => {
                        filter.record(cid_key(&cid(id)));
                        let admitted = real.put_with_admission(cid(id), size, &filter);
                        if admitted {
                            prop_assert!(real.contains(&cid(id)), "admitted ⇒ resident");
                        } else if size <= 1000 {
                            // Rejected ⇒ the duel ran ⇒ an eviction was
                            // needed ⇒ cache stays as full as it was.
                            prop_assert!(
                                real.used_bytes() + size > 1000
                                    || real.contains(&cid(id)),
                                "rejection only happens when eviction would be needed"
                            );
                        }
                    }
                }
                prop_assert!(real.used_bytes() <= 1000, "capacity bound");
                prop_assert_eq!(real.lru_order().len(), real.len(), "recency list in sync");
                let sum: u64 = real.lru_order().iter().map(|(_, s)| *s).sum();
                prop_assert_eq!(sum, real.used_bytes(), "byte accounting");
            }
        });
    }

    /// The previous layout, kept as the model the slab is checked against:
    /// `entries` maps CID → (size, last-use stamp) and `by_stamp` orders
    /// the same entries by stamp, so the LRU entry is its first key.
    struct StampLru {
        capacity_bytes: u64,
        used_bytes: u64,
        entries: HashMap<Cid, (u64, u64)>,
        by_stamp: BTreeMap<u64, Cid>,
        clock: u64,
        hits: u64,
        misses: u64,
        evictions: u64,
    }

    impl StampLru {
        fn new(capacity_bytes: u64) -> StampLru {
            StampLru {
                capacity_bytes,
                used_bytes: 0,
                entries: HashMap::new(),
                by_stamp: BTreeMap::new(),
                clock: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }
        }

        fn get(&mut self, cid: &Cid) -> Option<u64> {
            self.clock += 1;
            match self.entries.get_mut(cid) {
                Some((size, stamp)) => {
                    self.by_stamp.remove(stamp);
                    *stamp = self.clock;
                    self.by_stamp.insert(self.clock, cid.clone());
                    self.hits += 1;
                    Some(*size)
                }
                None => {
                    self.misses += 1;
                    None
                }
            }
        }

        fn put(&mut self, cid: Cid, size: u64) {
            if size > self.capacity_bytes {
                return;
            }
            self.clock += 1;
            if let Some((old, old_stamp)) = self.entries.insert(cid.clone(), (size, self.clock)) {
                self.used_bytes -= old;
                self.by_stamp.remove(&old_stamp);
            }
            self.by_stamp.insert(self.clock, cid.clone());
            self.used_bytes += size;
            while self.used_bytes > self.capacity_bytes {
                let Some((&stamp, victim)) = self.by_stamp.first_key_value() else { break };
                if *victim == cid {
                    break;
                }
                let victim = victim.clone();
                self.by_stamp.remove(&stamp);
                if let Some((sz, _)) = self.entries.remove(&victim) {
                    self.used_bytes -= sz;
                    self.evictions += 1;
                }
            }
        }

        fn put_with_admission(&mut self, cid: Cid, size: u64, filter: &TinyLfu) -> bool {
            if size > self.capacity_bytes {
                return false;
            }
            let replaced = self.entries.get(&cid).map(|(s, _)| *s).unwrap_or(0);
            if self.used_bytes - replaced + size > self.capacity_bytes {
                let cand = cid_key(&cid);
                let mut freed = replaced;
                for victim in self.by_stamp.values() {
                    if *victim == cid {
                        continue;
                    }
                    if self.used_bytes - freed + size <= self.capacity_bytes {
                        break;
                    }
                    if !filter.admits(cand, cid_key(victim)) {
                        return false;
                    }
                    freed += self.entries[victim].0;
                }
            }
            self.put(cid, size);
            true
        }

        fn lru_order(&self) -> Vec<(Cid, u64)> {
            self.by_stamp.values().map(|c| (c.clone(), self.entries[c].0)).collect()
        }
    }

    #[test]
    fn proptest_slab_matches_stamp_model() {
        use crate::admission::TinyLfuConfig;
        use proptest::prelude::*;
        // Interleaved get/put/put_with_admission over 24 CIDs whose sizes
        // sum far past the capacity, so most inserts evict and most
        // admissions duel. Every op records into one small shared sketch
        // (as the gateway records every request), so it ages every 16 ops.
        proptest!(ProptestConfig::with_cases(256), |(ops in proptest::collection::vec(
            (0u8..3, 0u32..24, 1u64..400), 40..300))| {
            let mut filter = TinyLfu::new(TinyLfuConfig { counters: 64, sample_period: 16 });
            let mut real = LruWebCache::new(1000);
            let mut model = StampLru::new(1000);
            for (op, id, size) in ops {
                filter.record(cid_key(&cid(id)));
                match op {
                    0 => prop_assert_eq!(real.get(&cid(id)), model.get(&cid(id)), "get({})", id),
                    1 => {
                        real.put(cid(id), size);
                        model.put(cid(id), size);
                    }
                    _ => prop_assert_eq!(
                        real.put_with_admission(cid(id), size, &filter),
                        model.put_with_admission(cid(id), size, &filter),
                        "put_with_admission({}, {})", id, size
                    ),
                }
                prop_assert_eq!(
                    (real.hits, real.misses, real.evictions),
                    (model.hits, model.misses, model.evictions),
                    "hits, misses, evictions"
                );
                prop_assert_eq!(real.used_bytes(), model.used_bytes, "used bytes");
                prop_assert_eq!(real.len(), model.entries.len(), "entry count");
                prop_assert_eq!(real.lru_order(), model.lru_order(), "LRU order");
            }
            prop_assert!(filter.resets > 0, "the sketch aged");
        });
    }
}
