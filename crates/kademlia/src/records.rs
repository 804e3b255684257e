//! Provider and peer record stores.
//!
//! A *provider record* maps a CID to a PeerID that can serve the content; a
//! *peer record* maps a PeerID to its Multiaddresses (paper §3.1). Both are
//! soft state: provider records expire after 24 h and are republished every
//! 12 h "to prevent the system from storing and providing stale records".
//!
//! # Layout: records are handles
//!
//! A few heavy providers account for most of a server's records, so the
//! provider table stores each distinct provider once and every record as a
//! handle to it:
//!
//! - **Intern table.** A slab of `Arc<PeerInfo>` plus a `PeerId → u32`
//!   index. Each slot counts the records naming it and returns to a free
//!   list when the last one expires. A provider has one current address
//!   set: a refresh carrying different addresses replaces the interned
//!   `PeerInfo`, so the latest addresses win for all of that provider's
//!   records in this store.
//! - **Records.** A stored record is `{received_at, provider: u32}` (16 B),
//!   held inline in the map entry while its key has one provider and
//!   spilled to a `Vec`, in first-stored order, only for two or more.
//!   [`ProviderRecord`] is the wire/API shape, materialised on reads.
//! - **Deadlines.** Two min-heaps, drained together in deadline order, so
//!   [`RecordStore::expire`] costs O(due deadlines · log pending) instead
//!   of O(stored records). A single-record add queues one
//!   `(deadline, key, provider index)` (48 B). A batched add
//!   ([`RecordStore::add_batch`], the reprovide sweep's ADD_PROVIDER)
//!   queues one `(deadline, provider index, keys)` for the whole batch
//!   (32 B plus the key slice, which is the batch's own `Arc<[Key]>` when
//!   every key needed a deadline). Heaps rather than a timing wheel
//!   because expiry only ever asks for "earliest first" — no horizon, so
//!   back-dated and far-future `received_at` are ordinary entries — and
//!   because the typical DHT server holds a handful of records: an idle
//!   store allocates nothing.
//! - **Hashing.** The per-key maps are [`KeyMap`]s: a key is already a
//!   SHA-256 digest, so they skip SipHash. Only
//!   [`RecordStore::bytes_estimate`] iterates them, and it only sums.
//!
//! # Invariant: a queued deadline at or before every record's expiry
//!
//! Every live record has at least one queued deadline — a single entry
//! naming its `(key, provider index)`, or a batch entry naming its
//! provider index with its key in the slice — that is no later than
//! `received_at + expiry`, and in the steady state exactly one. The first
//! store queues it, one per record or one per batch. A refresh forward in
//! time (the 12 h republish) moves `received_at` in place and queues
//! nothing: the queued deadline now falls early, and when it pops
//! [`RecordStore::expire`] re-arms it. A single entry re-arms at its
//! record's live expiry; a batch entry re-arms once, for the keys still
//! live, at the earliest of their live expiries (the exact expiry of each
//! when, as in the sweep, one batch refreshed them all). Only a back-dated
//! refresh, whose new expiry precedes the queued deadline, pushes another
//! entry — and a batch pushes at most one entry however many of its keys
//! need a deadline.
//!
//! A popped deadline decides nothing by itself: removal is decided by the
//! live record's own `received_at`, exactly as a full scan would. That is
//! why index reuse is safe — a stale deadline whose provider index was
//! freed and handed to another provider either finds no record under its
//! key, or finds the new provider's record and removes it only if that
//! record is itself expired (else it re-arms a harmless duplicate).

use crate::key::{Key, KeyMap};
use crate::routing::PeerInfo;
use multiformats::{Multiaddr, PeerId};
use simnet::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

/// Default provider-record expiry interval (paper §3.1: 24 h).
pub const PROVIDER_EXPIRY: SimDuration = SimDuration::from_hours(24);

/// Default provider-record republish interval (paper §3.1: 12 h).
pub const PROVIDER_REPUBLISH: SimDuration = SimDuration::from_hours(12);

/// A provider record: "this peer can serve this CID".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProviderRecord {
    /// DHT key of the CID being provided.
    pub key: Key,
    /// The providing peer.
    pub provider: PeerId,
    /// Addresses of the provider, if known (saves the requestor the second
    /// DHT walk when present).
    pub addrs: Vec<Multiaddr>,
    /// When the record was stored (drives expiry).
    pub received_at: SimTime,
}

/// A peer record: "this PeerID is reachable at these addresses".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerRecord {
    /// The subject peer.
    pub peer: PeerId,
    /// Its advertised addresses.
    pub addrs: Vec<Multiaddr>,
    /// When the record was stored.
    pub received_at: SimTime,
}

/// Replacement arbitration for stored values: `f(new, old) == true`
/// means the new value wins.
pub type Selector = fn(&[u8], &[u8]) -> bool;

/// An opaque DHT value (IPNS records travel this way, paper §3.3): the
/// DHT stores bytes it cannot interpret; the node-level validator decides
/// replacement (go-libp2p's `Validator.Select`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueRecord {
    /// The key the value is stored under.
    pub key: Key,
    /// The opaque payload.
    pub value: Vec<u8>,
    /// When it was stored.
    pub received_at: SimTime,
}

/// A queued expiry deadline for one `(key, provider index)` record;
/// `Reverse` turns the max-heap into earliest-deadline-first.
type Deadline = Reverse<(SimTime, Key, u32)>;

/// A queued expiry deadline for every `(key, provider index)` record of one
/// batch. The key slice only breaks ties of `(deadline, provider)`.
type BatchDeadline = Reverse<(SimTime, u32, Arc<[Key]>)>;

/// What a due deadline finds for the `(key, provider index)` it names.
enum Due {
    /// No such record: a twin deadline removed it, or it never was.
    Gone,
    /// The record expired and was removed.
    Removed,
    /// The record is live (refreshed since); it expires at this time.
    Live(SimTime),
}

/// A provider record as stored: the key is the map key and the provider a
/// handle into the store's intern table.
#[derive(Debug, Clone, Copy)]
struct Stored {
    received_at: SimTime,
    provider: u32,
}

impl Stored {
    fn is_live(&self, now: SimTime, expiry: SimDuration) -> bool {
        now.since(self.received_at) < expiry
    }

    fn expires_at(&self, expiry: SimDuration) -> SimTime {
        self.received_at.saturating_add(expiry)
    }
}

/// One key's records in first-stored order (retrieval takes the first as
/// primary provider, so a refresh must not reorder them).
#[derive(Debug, Clone)]
enum Slot {
    One(Stored),
    Many(Vec<Stored>),
}

impl Slot {
    fn records(&self) -> &[Stored] {
        match self {
            Slot::One(r) => std::slice::from_ref(r),
            Slot::Many(rs) => rs,
        }
    }

    fn records_mut(&mut self) -> &mut [Stored] {
        match self {
            Slot::One(r) => std::slice::from_mut(r),
            Slot::Many(rs) => rs,
        }
    }

    fn push(&mut self, record: Stored) {
        match self {
            Slot::One(first) => *self = Slot::Many(vec![*first, record]),
            Slot::Many(rs) => rs.push(record),
        }
    }

    /// Removes the record at `pos`; returns whether any record is left.
    fn remove(&mut self, pos: usize) -> bool {
        let Slot::Many(rs) = self else { return false };
        rs.remove(pos);
        if let [last] = rs[..] {
            *self = Slot::One(last);
        }
        true
    }
}

/// One distinct provider and how many stored records name it.
#[derive(Debug, Clone)]
struct Interned {
    info: Arc<PeerInfo>,
    records: u32,
}

/// The intern table: each distinct provider once, addressed by slab index.
#[derive(Debug, Clone, Default)]
struct Interner {
    slab: Vec<Option<Interned>>,
    free: Vec<u32>,
    index: HashMap<PeerId, u32>,
}

impl Interner {
    fn get(&self, idx: u32) -> &Interned {
        self.slab[idx as usize].as_ref().expect("a stored record names a live slab slot")
    }

    fn get_mut(&mut self, idx: u32) -> &mut Interned {
        self.slab[idx as usize].as_mut().expect("a stored record names a live slab slot")
    }

    /// Interns a provider not yet in the index; the caller stores its
    /// first record next.
    fn insert(&mut self, info: Arc<PeerInfo>) -> u32 {
        let peer = info.peer.clone();
        let slot = Some(Interned { info, records: 0 });
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slab[idx as usize] = slot;
                idx
            }
            None => {
                self.slab.push(slot);
                u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 distinct providers")
            }
        };
        self.index.insert(peer, idx);
        idx
    }

    /// Drops one record's hold on `idx`, freeing the slot with the last.
    fn release(&mut self, idx: u32) {
        let held = self.get_mut(idx);
        held.records -= 1;
        if held.records == 0 {
            let gone = self.slab[idx as usize].take().expect("checked live above");
            self.index.remove(&gone.info.peer);
            self.free.push(idx);
        }
    }
}

/// Storage for provider, peer, and value records held by one DHT server.
#[derive(Debug, Clone)]
pub struct RecordStore {
    providers: KeyMap<Slot>,
    interned: Interner,
    deadlines: BinaryHeap<Deadline>,
    batch_deadlines: BinaryHeap<BatchDeadline>,
    /// Live provider records across all keys.
    live: usize,
    expiry: SimDuration,
    peers: HashMap<PeerId, PeerRecord>,
    values: KeyMap<ValueRecord>,
    /// Lifetime counters for diagnostics.
    pub stored_provider_records: u64,
    /// Lifetime count of peer records stored.
    pub stored_peer_records: u64,
    /// Lifetime count of value records stored.
    pub stored_value_records: u64,
}

impl Default for RecordStore {
    fn default() -> RecordStore {
        RecordStore::new()
    }
}

impl RecordStore {
    /// Creates an empty store with the paper's 24 h provider expiry.
    pub fn new() -> RecordStore {
        RecordStore::with_expiry(PROVIDER_EXPIRY)
    }

    /// Creates an empty store with a custom provider-record lifetime
    /// (churn/lifecycle harnesses scale §3.1's 24 h down to their run
    /// length).
    pub fn with_expiry(expiry: SimDuration) -> RecordStore {
        RecordStore {
            providers: KeyMap::default(),
            interned: Interner::default(),
            deadlines: BinaryHeap::new(),
            batch_deadlines: BinaryHeap::new(),
            live: 0,
            expiry,
            peers: HashMap::new(),
            values: KeyMap::default(),
            stored_provider_records: 0,
            stored_peer_records: 0,
            stored_value_records: 0,
        }
    }

    /// Stores (or refreshes) a provider record. Refreshing resets the
    /// expiry clock — this is what the 12 h republish achieves — and keeps
    /// the provider's position in its key's list. Addresses are held once
    /// per provider: a record carrying different addresses than the store
    /// holds for that peer replaces them for all of the peer's records.
    pub fn add_provider(&mut self, record: ProviderRecord) {
        let ProviderRecord { key, provider, addrs, received_at } = record;
        let idx = match self.interned.index.get(&provider) {
            Some(&idx) => {
                let held = &mut self.interned.get_mut(idx).info;
                if held.addrs != addrs {
                    *held = Arc::new(PeerInfo::new(provider, addrs));
                }
                idx
            }
            None => self.interned.insert(Arc::new(PeerInfo::new(provider, addrs))),
        };
        self.store_record(key, idx, received_at);
    }

    /// [`RecordStore::add_provider`] for a provider that arrives as a
    /// shared handle (the ADD_PROVIDER RPCs): the store keeps a reference
    /// to `provider` instead of copying its PeerID and addresses per key.
    pub fn add_provider_shared(&mut self, key: Key, provider: &Arc<PeerInfo>, now: SimTime) {
        let idx = self.intern_shared(provider);
        self.store_record(key, idx, now);
    }

    /// [`RecordStore::add_provider_shared`] for every key of one batched
    /// ADD_PROVIDER: interns `provider` once for the whole batch and queues
    /// at most one deadline — naming `keys` itself when every key needs
    /// one (a new record or a back-dated refresh), else a slice of just
    /// the keys that do.
    pub fn add_batch(&mut self, keys: &Arc<[Key]>, provider: &Arc<PeerInfo>, now: SimTime) {
        // Interning with no record to follow would leak the slab slot:
        // only the last record's expiry releases one.
        if keys.is_empty() {
            return;
        }
        let idx = self.intern_shared(provider);
        // The keys that need a deadline, copied out only once some key
        // turns out not to.
        let mut subset: Option<Vec<Key>> = None;
        for (i, &key) in keys.iter().enumerate() {
            let needs = self.file(key, idx, now);
            match &mut subset {
                None if !needs => subset = Some(keys[..i].to_vec()),
                Some(due) if needs => due.push(key),
                _ => {}
            }
        }
        let keys = match subset {
            None => Arc::clone(keys),
            Some(due) if due.is_empty() => return,
            Some(due) => due.into(),
        };
        self.batch_deadlines.push(Reverse((now.saturating_add(self.expiry), idx, keys)));
    }

    /// The intern-table index of a provider arriving as a shared handle;
    /// a handle with different addresses replaces the held one.
    fn intern_shared(&mut self, provider: &Arc<PeerInfo>) -> u32 {
        match self.interned.index.get(&provider.peer) {
            Some(&idx) => {
                let held = &mut self.interned.get_mut(idx).info;
                if !Arc::ptr_eq(held, provider) && held.addrs != provider.addrs {
                    *held = Arc::clone(provider);
                }
                idx
            }
            None => self.interned.insert(Arc::clone(provider)),
        }
    }

    fn store_record(&mut self, key: Key, provider: u32, received_at: SimTime) {
        if self.file(key, provider, received_at) {
            let at = received_at.saturating_add(self.expiry);
            self.deadlines.push(Reverse((at, key, provider)));
        }
    }

    /// Stores or refreshes one record; returns whether it needs a deadline
    /// queued: a new record, or a refresh back-dated before its queued one.
    fn file(&mut self, key: Key, provider: u32, received_at: SimTime) -> bool {
        let record = Stored { received_at, provider };
        match self.providers.entry(key) {
            Entry::Vacant(vacant) => {
                vacant.insert(Slot::One(record));
            }
            Entry::Occupied(occupied) => {
                let slot = occupied.into_mut();
                match slot.records_mut().iter_mut().find(|r| r.provider == provider) {
                    Some(live) => {
                        let was = std::mem::replace(&mut live.received_at, received_at);
                        return received_at < was;
                    }
                    None => slot.push(record),
                }
            }
        }
        self.interned.get_mut(provider).records += 1;
        self.live += 1;
        self.stored_provider_records += 1;
        true
    }

    /// Returns unexpired provider records for `key` at time `now`.
    pub fn providers(&self, key: &Key, now: SimTime) -> Vec<ProviderRecord> {
        let Some(slot) = self.providers.get(key) else { return Vec::new() };
        slot.records()
            .iter()
            .filter(|r| r.is_live(now, self.expiry))
            .map(|r| {
                let info = &self.interned.get(r.provider).info;
                ProviderRecord {
                    key: *key,
                    provider: info.peer.clone(),
                    addrs: info.addrs.clone(),
                    received_at: r.received_at,
                }
            })
            .collect()
    }

    /// Whether `key` has at least one unexpired provider record at `now`:
    /// `!providers(key, now).is_empty()` without materialising the records.
    pub fn has_provider(&self, key: &Key, now: SimTime) -> bool {
        self.providers
            .get(key)
            .is_some_and(|s| s.records().iter().any(|r| r.is_live(now, self.expiry)))
    }

    /// Stores (or refreshes) a peer record.
    pub fn put_peer_record(&mut self, record: PeerRecord) {
        if self.peers.insert(record.peer.clone(), record).is_none() {
            self.stored_peer_records += 1;
        }
    }

    /// Looks up a peer record.
    pub fn peer_record(&self, peer: &PeerId) -> Option<&PeerRecord> {
        self.peers.get(peer)
    }

    /// Drops expired provider records; returns how many were removed.
    /// Peer records persist (they are refreshed on every connection in
    /// practice).
    ///
    /// Pops every deadline that is due, single and batch alike in deadline
    /// order, and removes the records whose *live* `received_at` is at
    /// least the expiry old — exactly the records a full scan of the table
    /// would remove. A due deadline whose records were refreshed since is
    /// re-armed: a single one at its record's live expiry, a batch one
    /// once, for its live keys, at the earliest of their live expiries.
    pub fn expire(&mut self, now: SimTime) -> usize {
        let mut removed = 0;
        // Queued after the loop, so a re-armed deadline that saturated at
        // the end of time cannot pop again within this call.
        let mut rearmed = Vec::new();
        let mut rearmed_batches = Vec::new();
        loop {
            let single = self.deadlines.peek().map(|Reverse((at, ..))| *at);
            let batch = self.batch_deadlines.peek().map(|Reverse((at, ..))| *at);
            if batch.is_some_and(|b| b <= now && single.is_none_or(|s| b < s)) {
                let Reverse((_, provider, keys)) =
                    self.batch_deadlines.pop().expect("peeked a deadline");
                let mut live = Vec::new();
                let mut next = SimTime::MAX;
                for &key in keys.iter() {
                    match self.settle(key, provider, now) {
                        Due::Gone => {}
                        Due::Removed => removed += 1,
                        Due::Live(at) => {
                            live.push(key);
                            next = next.min(at);
                        }
                    }
                }
                if !live.is_empty() {
                    let keys = if live.len() == keys.len() { keys } else { live.into() };
                    rearmed_batches.push(Reverse((next, provider, keys)));
                }
            } else if single.is_some_and(|s| s <= now) {
                let Reverse((_, key, provider)) = self.deadlines.pop().expect("peeked a deadline");
                match self.settle(key, provider, now) {
                    Due::Gone => {}
                    Due::Removed => removed += 1,
                    Due::Live(at) => rearmed.push(Reverse((at, key, provider))),
                }
            } else {
                break;
            }
        }
        self.deadlines.extend(rearmed);
        self.batch_deadlines.extend(rearmed_batches);
        removed
    }

    /// Settles one due `(key, provider index)`: removes the record if it
    /// has expired by its live `received_at`.
    fn settle(&mut self, key: Key, provider: u32, now: SimTime) -> Due {
        // Gone if a back-dated twin deadline removed it already.
        let Entry::Occupied(mut entry) = self.providers.entry(key) else { return Due::Gone };
        let records = entry.get().records();
        let Some(pos) = records.iter().position(|r| r.provider == provider) else {
            return Due::Gone;
        };
        let record = records[pos];
        if record.is_live(now, self.expiry) {
            return Due::Live(record.expires_at(self.expiry));
        }
        if !entry.get_mut().remove(pos) {
            entry.remove();
        }
        self.interned.release(provider);
        self.live -= 1;
        Due::Removed
    }

    /// Number of live provider-record entries (across all keys).
    pub fn provider_entry_count(&self) -> usize {
        self.live
    }

    /// Estimated resident bytes of the provider table, for memory-per-node
    /// accounting: one map entry per key, the spill lists' capacity, the
    /// pending deadlines (a batch one with its key slice), and each
    /// interned provider once. A logical
    /// estimate of the layout above — it ignores allocator and hash-table
    /// slack, so it is a pure function of the store's contents.
    pub fn bytes_estimate(&self) -> u64 {
        use std::mem::size_of;
        /// Estimated heap bytes per stored [`Multiaddr`].
        const ADDR_BYTES: usize = 48;
        /// One interned provider: its slab slot and index entry, the
        /// shared `PeerInfo` allocation, and the two PeerID digests.
        const PROVIDER_BYTES: usize = size_of::<Option<Interned>>()
            + size_of::<(PeerId, u32)>()
            + size_of::<PeerInfo>()
            + 2 * 32;
        /// A key slice's allocation beyond its keys: the two `Arc` counts.
        const SLICE_HEADER: usize = 2 * size_of::<usize>();
        let mut total = size_of::<RecordStore>()
            + self.providers.len() * size_of::<(Key, Slot)>()
            + self.deadlines.len() * size_of::<Deadline>();
        for Reverse((_, _, keys)) in &self.batch_deadlines {
            total += size_of::<BatchDeadline>() + SLICE_HEADER + size_of_val(&**keys);
        }
        for slot in self.providers.values() {
            if let Slot::Many(rs) = slot {
                total += rs.capacity() * size_of::<Stored>();
            }
        }
        for held in self.interned.slab.iter().flatten() {
            total += PROVIDER_BYTES + held.info.addrs.len() * ADDR_BYTES;
        }
        total as u64
    }

    /// Stores a value record if `select` prefers it over any existing one
    /// (`select(new, old) == true` means replace). Returns whether it was
    /// stored.
    pub fn put_value(&mut self, record: ValueRecord, select: Option<Selector>) -> bool {
        match self.values.get(&record.key) {
            Some(existing) => {
                let replace = match select {
                    Some(f) => f(&record.value, &existing.value),
                    None => true, // last-writer-wins without a selector
                };
                if replace {
                    self.values.insert(record.key, record);
                    true
                } else {
                    false
                }
            }
            None => {
                self.values.insert(record.key, record);
                self.stored_value_records += 1;
                true
            }
        }
    }

    /// Looks up a value record.
    pub fn value(&self, key: &Key) -> Option<&ValueRecord> {
        self.values.get(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multiformats::{Cid, Keypair};

    fn key(n: u64) -> Key {
        Key::from_cid(&Cid::from_raw_data(&n.to_be_bytes()))
    }

    fn peer(seed: u64) -> PeerId {
        Keypair::from_seed(seed).peer_id()
    }

    fn addr(n: u8) -> Multiaddr {
        format!("/ip4/10.0.0.{n}/tcp/4001").parse().unwrap()
    }

    fn record(k: Key, seed: u64, at: SimTime) -> ProviderRecord {
        ProviderRecord { key: k, provider: peer(seed), addrs: vec![], received_at: at }
    }

    fn hours(h: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_hours(h)
    }

    /// The scan oracle: a flat table of `(key, provider, received_at)` rows
    /// in first-stored order plus one address set per provider; every
    /// operation is a full scan.
    struct Oracle {
        rows: Vec<(Key, PeerId, SimTime)>,
        addrs: HashMap<PeerId, Vec<Multiaddr>>,
        expiry: SimDuration,
        stored: u64,
    }

    impl Oracle {
        /// Returns whether the add is new or a back-dated refresh: the adds
        /// that may queue a deadline.
        fn add(&mut self, record: ProviderRecord) -> bool {
            let ProviderRecord { key, provider, addrs, received_at } = record;
            self.addrs.insert(provider.clone(), addrs);
            match self.rows.iter_mut().find(|(k, p, _)| *k == key && *p == provider) {
                Some(row) => received_at < std::mem::replace(&mut row.2, received_at),
                None => {
                    self.rows.push((key, provider, received_at));
                    self.stored += 1;
                    true
                }
            }
        }

        fn expire(&mut self, now: SimTime) -> usize {
            let (before, expiry) = (self.rows.len(), self.expiry);
            self.rows.retain(|(_, _, at)| now.since(*at) < expiry);
            before - self.rows.len()
        }

        fn providers(&self, key: Key, now: SimTime) -> impl Iterator<Item = ProviderRecord> + '_ {
            self.rows
                .iter()
                .filter(move |(k, _, at)| *k == key && now.since(*at) < self.expiry)
                .map(|(k, p, at)| ProviderRecord {
                    key: *k,
                    provider: p.clone(),
                    addrs: self.addrs[p].clone(),
                    received_at: *at,
                })
        }

        fn distinct_providers(&self) -> usize {
            let peers: std::collections::HashSet<&PeerId> =
                self.rows.iter().map(|(_, p, _)| p).collect();
            peers.len()
        }
    }

    #[test]
    fn add_and_get_providers() {
        let mut store = RecordStore::new();
        let k = key(1);
        store.add_provider(record(k, 1, SimTime::ZERO));
        store.add_provider(record(k, 2, SimTime::ZERO));
        assert_eq!(store.providers(&k, SimTime::ZERO).len(), 2);
        assert_eq!(store.providers(&key(2), SimTime::ZERO).len(), 0);
    }

    #[test]
    fn records_expire_after_24h() {
        let mut store = RecordStore::new();
        let k = key(1);
        store.add_provider(record(k, 1, SimTime::ZERO));
        assert_eq!(store.providers(&k, hours(23)).len(), 1);
        assert!(store.has_provider(&k, hours(23)));
        assert_eq!(store.providers(&k, hours(25)).len(), 0);
        // Expired but not yet swept: resident, and not a provider.
        assert!(!store.has_provider(&k, hours(25)));
        assert_eq!(store.provider_entry_count(), 1);
    }

    #[test]
    fn republish_resets_expiry() {
        let mut store = RecordStore::new();
        let k = key(1);
        store.add_provider(record(k, 1, SimTime::ZERO));
        // Republish at 12 h (the paper's interval).
        let t12 = SimTime::ZERO + PROVIDER_REPUBLISH;
        store.add_provider(record(k, 1, t12));
        // At 30 h the original would be dead, but the refresh keeps it.
        assert_eq!(store.providers(&k, hours(30)).len(), 1);
        // Only one entry exists (refresh, not duplicate).
        assert_eq!(store.provider_entry_count(), 1);
    }

    #[test]
    fn expire_sweeps_dead_records() {
        let mut store = RecordStore::new();
        store.add_provider(record(key(1), 1, SimTime::ZERO));
        store.add_provider(record(key(2), 2, hours(20)));
        let removed = store.expire(hours(30));
        assert_eq!(removed, 1);
        assert_eq!(store.provider_entry_count(), 1);
    }

    #[test]
    fn peer_records_roundtrip() {
        let mut store = RecordStore::new();
        let addr: Multiaddr = "/ip4/1.2.3.4/tcp/3333".parse().unwrap();
        store.put_peer_record(PeerRecord {
            peer: peer(5),
            addrs: vec![addr.clone()],
            received_at: SimTime::ZERO,
        });
        assert_eq!(store.peer_record(&peer(5)).unwrap().addrs, vec![addr]);
        assert!(store.peer_record(&peer(6)).is_none());
    }

    #[test]
    fn lifetime_counters() {
        let mut store = RecordStore::new();
        let k = key(1);
        store.add_provider(record(k, 1, SimTime::ZERO));
        store.add_provider(record(k, 1, SimTime::ZERO)); // refresh, not new
        store.add_provider(record(k, 2, SimTime::ZERO));
        assert_eq!(store.stored_provider_records, 2);
    }

    #[test]
    fn expiry_skips_refreshed_records() {
        let mut store = RecordStore::new();
        let k = key(1);
        store.add_provider(record(k, 1, SimTime::ZERO));
        // Refresh at 12 h: the queued 24 h deadline now falls early.
        store.add_provider(record(k, 1, SimTime::ZERO + PROVIDER_REPUBLISH));
        // At 30 h that deadline has popped but the live record (fresh
        // until 36 h) must survive, its deadline re-armed.
        assert_eq!(store.expire(hours(30)), 0);
        assert_eq!(store.provider_entry_count(), 1);
        assert_eq!(store.deadlines.len(), 1);
        // At 37 h the re-armed deadline is due.
        assert_eq!(store.expire(hours(37)), 1);
        assert_eq!(store.provider_entry_count(), 0);
    }

    #[test]
    fn proptest_expire_matches_scan_oracle() {
        use proptest::prelude::*;
        // Every (provider, address set) a step can name, as shared handles:
        // repeated steps pass the same `Arc`, changed addresses another.
        let infos: Vec<Vec<Arc<PeerInfo>>> = (0..5u64)
            .map(|p| {
                let sets = [vec![], vec![addr(1)], vec![addr(2), addr(3)]];
                sets.into_iter().map(|addrs| Arc::new(PeerInfo::new(peer(p), addrs))).collect()
            })
            .collect();
        // One step: (op, key, provider, address set, hour, minute, batch);
        // op 4 expires, 0–1 add by value, 2–3 add by shared handle, 5 adds
        // the batch's 0–8 keys (repeats allowed) under one shared key slice
        // and handle, and every step reads each key back. The oracle
        // applies a batch as one add per key. Few keys and providers so refreshes,
        // several providers per key, address changes and providers whose
        // last record expired (their slab index freed, then reused) are
        // all common; times are unordered across steps, so `received_at`
        // is back-dated as often as it is days ahead of the last `expire`.
        proptest!(ProptestConfig::with_cases(64), |(
            expiry_hours in 1u64..48,
            steps in proptest::collection::vec(
                (
                    (0u8..6, 0u64..12, 1usize..5, 0usize..3, 0u64..120, 0u64..60),
                    proptest::collection::vec(0u64..12, 0..=8),
                ),
                1..200,
            ),
        )| {
            let expiry = SimDuration::from_hours(expiry_hours);
            let mut store = RecordStore::with_expiry(expiry);
            let mut oracle =
                Oracle { rows: Vec::new(), addrs: HashMap::new(), expiry, stored: 0 };
            let mut slab_high_water = 0;
            // Adds that stored a record or back-dated one — a batch counts
            // once however many of its keys did: each may queue one deadline.
            let mut queued_bound = 0;
            for ((op, k, provider, addr_set, hour, minute), batch) in steps {
                let t = SimTime::ZERO + SimDuration::from_secs(hour * 3600 + minute * 60);
                let info = &infos[provider][addr_set];
                let r = ProviderRecord {
                    key: key(k),
                    provider: info.peer.clone(),
                    addrs: info.addrs.clone(),
                    received_at: t,
                };
                match op {
                    4 => prop_assert_eq!(store.expire(t), oracle.expire(t)),
                    0 | 1 => {
                        store.add_provider(r.clone());
                        queued_bound += usize::from(oracle.add(r));
                    }
                    5 => {
                        let keys: Arc<[Key]> = batch.iter().map(|&k| key(k)).collect();
                        store.add_batch(&keys, info, t);
                        let mut queues = false;
                        for &k in keys.iter() {
                            queues |= oracle.add(ProviderRecord { key: k, ..r.clone() });
                        }
                        queued_bound += usize::from(queues);
                    }
                    _ => {
                        store.add_provider_shared(key(k), info, t);
                        queued_bound += usize::from(oracle.add(r));
                    }
                }
                prop_assert!(store.deadlines.len() + store.batch_deadlines.len() <= queued_bound);
                prop_assert_eq!(store.provider_entry_count(), oracle.rows.len());
                prop_assert_eq!(store.stored_provider_records, oracle.stored);
                for k in 0..12 {
                    let expected: Vec<_> = oracle.providers(key(k), t).collect();
                    prop_assert_eq!(store.has_provider(&key(k), t), !expected.is_empty());
                    prop_assert_eq!(store.providers(&key(k), t), expected);
                }
                // Interned providers are exactly the resident ones, and
                // freed slab slots are reused before the slab grows.
                prop_assert_eq!(store.interned.index.len(), oracle.distinct_providers());
                let occupied = store.interned.slab.iter().flatten().count();
                prop_assert_eq!(occupied, store.interned.index.len());
                prop_assert_eq!(store.interned.free.len(), store.interned.slab.len() - occupied);
                slab_high_water = slab_high_water.max(occupied);
                prop_assert_eq!(store.interned.slab.len(), slab_high_water);
            }
        });
    }

    #[test]
    fn expire_is_idempotent_and_monotonic() {
        let mut store = RecordStore::new();
        for n in 0..50u64 {
            store.add_provider(record(key(n), n, SimTime::ZERO));
        }
        assert_eq!(store.expire(hours(25)), 50);
        assert_eq!(store.expire(hours(25)), 0); // second call at same time: no-op
        assert_eq!(store.expire(hours(125)), 0);
    }

    #[test]
    fn far_future_records_expire_on_time() {
        let mut store = RecordStore::new();
        // Received 100 h ahead of anything the store has seen: the deadline
        // heap has no horizon, so it is an entry like any other.
        store.add_provider(record(key(1), 1, hours(100)));
        assert_eq!(store.expire(hours(123)), 0);
        assert_eq!(store.expire(hours(125)), 1);
        assert_eq!(store.provider_entry_count(), 0);
    }

    #[test]
    fn refresh_queues_no_deadline() {
        let mut store = RecordStore::new();
        let providers: Vec<Arc<PeerInfo>> =
            (0..4).map(|p| Arc::new(PeerInfo::new(peer(p), vec![addr(1)]))).collect();
        for round in 0..=10u64 {
            for n in 0..1_000u64 {
                store.add_provider_shared(key(n), &providers[n as usize % 4], hours(round));
            }
        }
        assert_eq!(store.provider_entry_count(), 1_000);
        assert_eq!(store.deadlines.len(), 1_000, "ten forward refreshes queued nothing");
        // Popping the first-store deadlines re-arms them one for one.
        assert_eq!(store.expire(hours(30)), 0);
        assert_eq!(store.deadlines.len(), 1_000);
        assert_eq!(store.expire(hours(34)), 1_000);
        assert!(store.deadlines.is_empty());
    }

    #[test]
    fn refresh_queues_no_deadline_batched() {
        let mut store = RecordStore::new();
        let providers: Vec<Arc<PeerInfo>> =
            (0..4).map(|p| Arc::new(PeerInfo::new(peer(p), vec![addr(1)]))).collect();
        let batches: Vec<Arc<[Key]>> =
            (0..10u64).map(|b| (b * 100..(b + 1) * 100).map(key).collect()).collect();
        for round in 0..=10u64 {
            for (b, keys) in batches.iter().enumerate() {
                store.add_batch(keys, &providers[b % 4], hours(round));
            }
        }
        assert_eq!(store.provider_entry_count(), 1_000);
        assert!(store.deadlines.is_empty());
        assert_eq!(store.batch_deadlines.len(), 10, "one per batch; refreshes queued nothing");
        // Popping the first-store deadlines re-arms them one for one, each
        // still naming the batch's own key slice.
        assert_eq!(store.expire(hours(30)), 0);
        assert_eq!(store.batch_deadlines.len(), 10);
        assert!(store
            .batch_deadlines
            .iter()
            .all(|Reverse((_, _, d))| batches.iter().any(|keys| Arc::ptr_eq(keys, d))));
        assert_eq!(store.expire(hours(34)), 1_000);
        assert!(store.batch_deadlines.is_empty());
    }

    #[test]
    fn batch_queues_one_deadline_for_the_keys_that_need_one() {
        let mut store = RecordStore::new();
        let provider = Arc::new(PeerInfo::new(peer(1), vec![]));
        store.add_provider_shared(key(0), &provider, hours(10));
        store.add_provider_shared(key(1), &provider, hours(1));
        // Key 0 is back-dated, key 1 refreshed forward, key 2 new: one
        // entry for keys 0 and 2.
        let keys: Arc<[Key]> = [key(0), key(1), key(2)].into();
        store.add_batch(&keys, &provider, hours(5));
        assert_eq!(store.deadlines.len(), 2);
        assert_eq!(store.batch_deadlines.len(), 1);
        assert_eq!(&*store.batch_deadlines.peek().unwrap().0 .2, &[key(0), key(2)]);
        assert_eq!(store.interned.get(0).records, 3);
        // Every key refreshed forward: nothing queued.
        store.add_batch(&keys, &provider, hours(6));
        assert_eq!(store.deadlines.len() + store.batch_deadlines.len(), 3);
        // The batch deadline (29 h) pops first and re-arms keys 0 and 2
        // at 30 h; key 1's single deadline (25 h) re-arms it at 30 h too.
        assert_eq!(store.expire(hours(29)), 0);
        assert_eq!(store.expire(hours(30)), 3);
        assert!(store.interned.index.is_empty());
        // Key 0's first deadline (34 h) is a stale twin, harmless.
        assert!(store.batch_deadlines.is_empty());
        assert_eq!(store.expire(hours(34)), 0);
        assert!(store.deadlines.is_empty());
    }

    #[test]
    fn empty_batch_leaves_no_trace() {
        let mut store = RecordStore::new();
        let known = Arc::new(PeerInfo::new(peer(1), vec![]));
        store.add_provider_shared(key(0), &known, SimTime::ZERO);
        let (index, slab) = (store.interned.index.clone(), store.interned.slab.len());
        let empty: Arc<[Key]> = Arc::new([]);
        for provider in [known, Arc::new(PeerInfo::new(peer(2), vec![]))] {
            store.add_batch(&empty, &provider, hours(1));
            assert_eq!(store.interned.index, index);
            assert_eq!(store.interned.slab.len(), slab);
            assert!(store.interned.free.is_empty());
            assert_eq!(store.deadlines.len(), 1);
            assert!(store.batch_deadlines.is_empty());
        }
    }

    #[test]
    fn backdated_refresh_expires_on_time() {
        let mut store = RecordStore::new();
        let k = key(1);
        store.add_provider(record(k, 1, hours(10)));
        // Back-dated to 2 h: the record now expires at 26 h, before the
        // queued 34 h deadline, so the refresh queues its own.
        store.add_provider(record(k, 1, hours(2)));
        assert_eq!(store.deadlines.len(), 2);
        assert_eq!(store.expire(hours(25)), 0);
        assert_eq!(store.expire(hours(26)), 1);
        assert_eq!(store.provider_entry_count(), 0);
    }

    #[test]
    fn stale_deadline_on_reused_index_is_harmless() {
        let mut store = RecordStore::new();
        let k = key(1);
        // Provider 1 leaves a stale 34 h deadline behind (see above).
        store.add_provider(record(k, 1, hours(10)));
        store.add_provider(record(k, 1, hours(2)));
        assert_eq!(store.expire(hours(26)), 1);
        // Provider 2 takes over the freed slab index under the same key.
        store.add_provider(record(k, 2, hours(27)));
        assert_eq!(store.interned.slab.len(), 1);
        // The stale deadline pops onto provider 2's live record: kept.
        assert_eq!(store.expire(hours(35)), 0);
        assert_eq!(store.providers(&k, hours(35))[0].provider, peer(2));
        // And provider 2 expires by its own clock.
        assert_eq!(store.expire(hours(50)), 0);
        assert_eq!(store.expire(hours(51)), 1);
        assert_eq!(store.expire(hours(500)), 0);
    }

    #[test]
    fn interning_releases_on_expiry() {
        let mut store = RecordStore::new();
        for n in 0..200u64 {
            store.add_provider(record(key(n), n % 8, hours(n % 5)));
            store.add_provider(record(key(n), 8 + n % 3, hours(n % 7)));
        }
        assert_eq!(store.interned.index.len(), 11);
        assert_eq!(store.expire(hours(40)), 400);
        assert!(store.providers.is_empty());
        assert!(store.interned.index.is_empty());
        assert!(store.interned.slab.iter().all(Option::is_none));
        assert_eq!(store.interned.free.len(), store.interned.slab.len());
        assert!(store.deadlines.is_empty());
    }

    #[test]
    fn latest_addresses_win() {
        let mut store = RecordStore::new();
        let old = Arc::new(PeerInfo::new(peer(1), vec![addr(1)]));
        store.add_provider_shared(key(1), &old, SimTime::ZERO);
        store.add_provider_shared(key(2), &old, SimTime::ZERO);
        store.add_provider(record(key(2), 2, SimTime::ZERO));
        // A refresh of one key carries the provider's new addresses.
        let new = Arc::new(PeerInfo::new(peer(1), vec![addr(2)]));
        store.add_provider_shared(key(2), &new, hours(1));
        // Every record of that provider now reports them; the other
        // provider's, and the order under key 2, are untouched.
        assert_eq!(store.providers(&key(1), hours(1))[0].addrs, vec![addr(2)]);
        let under_2 = store.providers(&key(2), hours(1));
        assert_eq!(under_2[0].provider, peer(1));
        assert_eq!(under_2[0].addrs, vec![addr(2)]);
        assert_eq!(under_2[1].provider, peer(2));
        assert!(under_2[1].addrs.is_empty());
        assert_eq!(Arc::strong_count(&old), 1, "the superseded handle was dropped");
        // The by-value path obeys the same rule.
        let mut by_value = record(key(1), 1, hours(2));
        by_value.addrs = vec![addr(3)];
        store.add_provider(by_value);
        assert_eq!(store.providers(&key(2), hours(2))[0].addrs, vec![addr(3)]);
    }

    /// The layout budget: what keeps the store from growing fat again,
    /// with no wall-clock or RSS gate.
    #[test]
    fn layout_budget() {
        assert_eq!(std::mem::size_of::<Deadline>(), 48);
        assert!(std::mem::size_of::<BatchDeadline>() <= 32);
        assert!(std::mem::size_of::<Stored>() <= 16);
        assert!(std::mem::size_of::<(Key, Slot)>() <= 64);
        let mut store = RecordStore::new();
        let providers: Vec<Arc<PeerInfo>> =
            (0..4).map(|p| Arc::new(PeerInfo::new(peer(p), vec![addr(1), addr(2)]))).collect();
        for round in 0..=4u64 {
            for n in 0..10_000u64 {
                store.add_provider_shared(key(n), &providers[n as usize % 4], hours(round));
            }
        }
        assert_eq!(store.provider_entry_count(), 10_000);
        assert!(
            store.bytes_estimate() / 10_000 <= 200,
            "{} B/record",
            store.bytes_estimate() / 10_000
        );
        // The same records as 100-key batches: one deadline per batch, and
        // a record costs its map entry plus its 32 B share of a key slice.
        let mut store = RecordStore::new();
        let batches: Vec<Arc<[Key]>> =
            (0..100u64).map(|b| (b * 100..(b + 1) * 100).map(key).collect()).collect();
        for round in 0..=4u64 {
            for (b, keys) in batches.iter().enumerate() {
                store.add_batch(keys, &providers[b % 4], hours(round));
            }
        }
        assert_eq!(store.provider_entry_count(), 10_000);
        assert!(store.deadlines.len() + store.batch_deadlines.len() <= 100);
        assert!(
            store.bytes_estimate() / 10_000 <= 100,
            "{} B/record",
            store.bytes_estimate() / 10_000
        );
    }

    #[test]
    fn bytes_estimate_tracks_stored_records() {
        let mut store = RecordStore::new();
        let empty = store.bytes_estimate();
        for n in 0..100u64 {
            store.add_provider(record(key(n), n, SimTime::ZERO));
        }
        let full = store.bytes_estimate();
        assert!(full > empty);
        store.expire(hours(25));
        assert_eq!(store.bytes_estimate(), empty);
    }
}
