//! Provider and peer record stores.
//!
//! A *provider record* maps a CID to a PeerID that can serve the content; a
//! *peer record* maps a PeerID to its Multiaddresses (paper §3.1). Both are
//! soft state: provider records expire after 24 h and are republished every
//! 12 h "to prevent the system from storing and providing stale records".
//!
//! The provider table is one map from DHT key to that key's records plus
//! one min-heap of expiry deadlines, so [`RecordStore::expire`] costs
//! O(due deadlines · log pending) instead of O(stored records). Deadlines
//! are validated lazily on pop: every add or refresh queues one deadline,
//! so a record refreshed by the 12 h republish leaves its old deadline
//! behind, and the pop skips any deadline whose live record was refreshed
//! or already removed. A heap rather than a timing wheel because expiry
//! only ever asks for "earliest first" — no horizon, so back-dated and
//! far-future `received_at` are ordinary entries — and because the typical
//! DHT server holds a handful of records: an idle store must cost nothing,
//! and an empty map and an empty heap allocate nothing.

use crate::key::Key;
use multiformats::{Multiaddr, PeerId};
use simnet::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

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

/// A queued expiry deadline for one `(key, provider)` record; `Reverse`
/// turns the max-heap into earliest-deadline-first.
type Deadline = Reverse<(SimTime, Key, PeerId)>;

/// Storage for provider, peer, and value records held by one DHT server.
#[derive(Debug, Clone)]
pub struct RecordStore {
    providers: HashMap<Key, Vec<ProviderRecord>>,
    deadlines: BinaryHeap<Deadline>,
    expiry: SimDuration,
    peers: HashMap<PeerId, PeerRecord>,
    values: HashMap<Key, ValueRecord>,
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
            providers: HashMap::new(),
            deadlines: BinaryHeap::new(),
            expiry,
            peers: HashMap::new(),
            values: HashMap::new(),
            stored_provider_records: 0,
            stored_peer_records: 0,
            stored_value_records: 0,
        }
    }

    /// Stores (or refreshes) a provider record. Refreshing resets the
    /// expiry clock — this is what the 12 h republish achieves.
    pub fn add_provider(&mut self, record: ProviderRecord) {
        self.deadlines.push(Reverse((
            record.received_at.saturating_add(self.expiry),
            record.key,
            record.provider.clone(),
        )));
        let entry = self.providers.entry(record.key).or_default();
        if let Some(existing) = entry.iter_mut().find(|r| r.provider == record.provider) {
            *existing = record;
        } else {
            entry.push(record);
            self.stored_provider_records += 1;
        }
    }

    /// Returns unexpired provider records for `key` at time `now`.
    pub fn providers(&self, key: &Key, now: SimTime) -> Vec<ProviderRecord> {
        self.providers
            .get(key)
            .map(|rs| {
                rs.iter().filter(|r| now.since(r.received_at) < self.expiry).cloned().collect()
            })
            .unwrap_or_default()
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
    /// Pops every deadline that is due and removes the records whose
    /// *live* `received_at` is at least the expiry old — exactly the
    /// records a full scan of the table would remove.
    pub fn expire(&mut self, now: SimTime) -> usize {
        let mut removed = 0;
        while self.deadlines.peek().is_some_and(|Reverse((deadline, ..))| *deadline <= now) {
            let Reverse((_, key, provider)) = self.deadlines.pop().expect("peeked a deadline");
            // Lazy validation: the deadline is stale if the record was
            // refreshed (the refresh queued its own deadline) or already
            // removed.
            let Some(rs) = self.providers.get_mut(&key) else { continue };
            let Some(pos) = rs.iter().position(|r| r.provider == provider) else { continue };
            if now.since(rs[pos].received_at) < self.expiry {
                continue;
            }
            rs.remove(pos);
            removed += 1;
            if rs.is_empty() {
                self.providers.remove(&key);
            }
        }
        removed
    }

    /// Full-scan expiry: the oracle the deadline heap is property-tested
    /// against.
    #[cfg(test)]
    fn expire_scan(&mut self, now: SimTime) -> usize {
        let expiry = self.expiry;
        let mut removed = 0;
        self.providers.retain(|_, rs| {
            let before = rs.len();
            rs.retain(|r| now.since(r.received_at) < expiry);
            removed += before - rs.len();
            !rs.is_empty()
        });
        removed
    }

    /// Number of live provider-record entries (across all keys).
    pub fn provider_entry_count(&self) -> usize {
        self.providers.values().map(|v| v.len()).sum()
    }

    /// Estimated resident bytes of the provider table (records plus
    /// pending deadlines), for memory-per-node accounting.
    pub fn bytes_estimate(&self) -> u64 {
        /// Estimated heap bytes per stored [`Multiaddr`].
        const ADDR_BYTES: usize = 48;
        /// Fixed charge for the store itself. A constant rather than
        /// `size_of::<RecordStore>()`: the estimate is logical (it must
        /// not move with field layout), and recorded `bytes_per_node`
        /// digests include it.
        const STORE_BYTES: usize = 160;
        let mut total = STORE_BYTES + self.deadlines.len() * std::mem::size_of::<Deadline>();
        for (key, rs) in &self.providers {
            total += std::mem::size_of_val(key);
            for r in rs {
                total += std::mem::size_of::<ProviderRecord>() + r.addrs.len() * ADDR_BYTES;
            }
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

    fn record(k: Key, seed: u64, at: SimTime) -> ProviderRecord {
        ProviderRecord {
            key: k,
            provider: Keypair::from_seed(seed).peer_id(),
            addrs: vec![],
            received_at: at,
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
        let just_before = SimTime::ZERO + SimDuration::from_hours(23);
        let just_after = SimTime::ZERO + SimDuration::from_hours(25);
        assert_eq!(store.providers(&k, just_before).len(), 1);
        assert_eq!(store.providers(&k, just_after).len(), 0);
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
        let t30 = SimTime::ZERO + SimDuration::from_hours(30);
        assert_eq!(store.providers(&k, t30).len(), 1);
        // Only one entry exists (refresh, not duplicate).
        assert_eq!(store.provider_entry_count(), 1);
    }

    #[test]
    fn expire_sweeps_dead_records() {
        let mut store = RecordStore::new();
        store.add_provider(record(key(1), 1, SimTime::ZERO));
        store.add_provider(record(key(2), 2, SimTime::ZERO + SimDuration::from_hours(20)));
        let removed = store.expire(SimTime::ZERO + SimDuration::from_hours(30));
        assert_eq!(removed, 1);
        assert_eq!(store.provider_entry_count(), 1);
    }

    #[test]
    fn peer_records_roundtrip() {
        let mut store = RecordStore::new();
        let peer = Keypair::from_seed(5).peer_id();
        let addr: Multiaddr = "/ip4/1.2.3.4/tcp/3333".parse().unwrap();
        store.put_peer_record(PeerRecord {
            peer: peer.clone(),
            addrs: vec![addr.clone()],
            received_at: SimTime::ZERO,
        });
        assert_eq!(store.peer_record(&peer).unwrap().addrs, vec![addr]);
        assert!(store.peer_record(&Keypair::from_seed(6).peer_id()).is_none());
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
        // Refresh at 12 h: the t=0 deadline (24 h) becomes stale.
        store.add_provider(record(k, 1, SimTime::ZERO + PROVIDER_REPUBLISH));
        // At 30 h the stale deadline has popped but the live record (fresh
        // until 36 h) must survive.
        assert_eq!(store.expire(SimTime::ZERO + SimDuration::from_hours(30)), 0);
        assert_eq!(store.provider_entry_count(), 1);
        // At 37 h the refreshed deadline is due too.
        assert_eq!(store.expire(SimTime::ZERO + SimDuration::from_hours(37)), 1);
        assert_eq!(store.provider_entry_count(), 0);
    }

    #[test]
    fn proptest_expire_matches_scan_oracle() {
        use proptest::prelude::*;
        // One step: (op, key, provider, hour, minute); op 4 expires, the
        // rest add, and every step reads each key back. Few keys and
        // providers so refreshes and several providers per key are common;
        // times are unordered across steps, so `received_at` is back-dated
        // as often as it is days ahead of the last `expire`.
        proptest!(ProptestConfig::with_cases(64), |(
            expiry_hours in 1u64..48,
            steps in proptest::collection::vec(
                (0u8..5, 0u64..12, 1u64..5, 0u64..120, 0u64..60),
                1..200,
            ),
        )| {
            let expiry = SimDuration::from_hours(expiry_hours);
            let mut store = RecordStore::with_expiry(expiry);
            let mut oracle = RecordStore::with_expiry(expiry);
            for (op, k, provider, hour, minute) in steps {
                let t = SimTime::ZERO + SimDuration::from_secs(hour * 3600 + minute * 60);
                if op == 4 {
                    prop_assert_eq!(store.expire(t), oracle.expire_scan(t));
                } else {
                    let r = record(key(k), provider, t);
                    store.add_provider(r.clone());
                    oracle.add_provider(r);
                }
                prop_assert_eq!(store.provider_entry_count(), oracle.provider_entry_count());
                prop_assert_eq!(store.stored_provider_records, oracle.stored_provider_records);
                for k in 0..12 {
                    prop_assert_eq!(store.providers(&key(k), t), oracle.providers(&key(k), t));
                }
            }
        });
    }

    #[test]
    fn expire_is_idempotent_and_monotonic() {
        let mut store = RecordStore::new();
        for n in 0..50u64 {
            store.add_provider(record(key(n), n, SimTime::ZERO));
        }
        let t25 = SimTime::ZERO + SimDuration::from_hours(25);
        assert_eq!(store.expire(t25), 50);
        assert_eq!(store.expire(t25), 0); // second call at same time: no-op
        assert_eq!(store.expire(t25 + SimDuration::from_hours(100)), 0);
    }

    #[test]
    fn far_future_records_expire_on_time() {
        let mut store = RecordStore::new();
        // Received 100 h ahead of anything the store has seen: the deadline
        // heap has no horizon, so it is an entry like any other.
        let at = SimTime::ZERO + SimDuration::from_hours(100);
        store.add_provider(record(key(1), 1, at));
        assert_eq!(store.expire(at + SimDuration::from_hours(23)), 0);
        assert_eq!(store.expire(at + SimDuration::from_hours(25)), 1);
        assert_eq!(store.provider_entry_count(), 0);
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
        store.expire(SimTime::ZERO + SimDuration::from_hours(25));
        assert!(store.bytes_estimate() < full);
    }
}
