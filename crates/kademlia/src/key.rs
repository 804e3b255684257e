//! 256-bit DHT keys and XOR distance.
//!
//! CIDs and PeerIDs share one 256-bit keyspace: each is indexed under the
//! SHA-256 of its binary representation (paper §2.3). Distance between keys
//! is their bitwise XOR interpreted as an unsigned 256-bit integer
//! (Kademlia's XOR metric).
//!
//! [`KeyMap`] is a `HashMap` keyed by [`Key`] whose hasher skips SipHash:
//! a key is already a SHA-256 digest, so keyed hashing against flooding
//! buys nothing, and [`KeyHasher`] (shared with the gateway's CID maps)
//! only has to spread structured keys (`Key::from_bytes`) as well as it
//! spreads digests.

use multiformats::{Cid, KeyHasher, PeerId};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A 256-bit key in the DHT keyspace.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key(pub [u8; 32]);

/// Hashes the 32 key bytes and nothing else (no length prefix).
impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write(&self.0);
    }
}

/// A `HashMap` keyed by [`Key`], hashed by [`KeyHasher`]. Its iteration
/// order is the hasher's, not the keyspace's: callers that iterate one only
/// sum over it.
pub type KeyMap<V> = HashMap<Key, V, BuildHasherDefault<KeyHasher>>;

/// An XOR distance between two keys (totally ordered, big-endian).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Distance(pub [u8; 32]);

impl Key {
    /// The all-zero key.
    pub const ZERO: Key = Key([0u8; 32]);

    /// Indexing key for a CID.
    pub fn from_cid(cid: &Cid) -> Key {
        Key(cid.dht_key())
    }

    /// Indexing key for a PeerID.
    pub fn from_peer(peer: &PeerId) -> Key {
        Key(peer.dht_key())
    }

    /// Key from raw bytes (used in tests and for synthetic keys).
    pub fn from_bytes(bytes: [u8; 32]) -> Key {
        Key(bytes)
    }

    /// XOR distance to another key.
    pub fn distance(&self, other: &Key) -> Distance {
        let mut out = [0u8; 32];
        for (o, (a, b)) in out.iter_mut().zip(self.0.iter().zip(other.0.iter())) {
            *o = a ^ b;
        }
        Distance(out)
    }

    /// The Kademlia bucket index for a peer at this distance from us:
    /// `255 - leading_zeros(distance)`, i.e. bucket 255 holds the farthest
    /// half of the keyspace. Returns `None` for the zero distance (self).
    pub fn bucket_index(&self, other: &Key) -> Option<usize> {
        let d = self.distance(other);
        let lz = d.leading_zeros();
        if lz == 256 {
            None
        } else {
            Some(255 - lz)
        }
    }
}

impl Distance {
    /// The zero distance.
    pub const ZERO: Distance = Distance([0u8; 32]);

    /// Number of leading zero bits (0..=256).
    pub fn leading_zeros(&self) -> usize {
        let mut total = 0;
        for byte in self.0 {
            if byte == 0 {
                total += 8;
            } else {
                total += byte.leading_zeros() as usize;
                break;
            }
        }
        total
    }
}

impl core::fmt::Debug for Key {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Key({:02x}{:02x}{:02x}{:02x}…)", self.0[0], self.0[1], self.0[2], self.0[3])
    }
}

impl core::fmt::Debug for Distance {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Distance(lz={})", self.leading_zeros())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multiformats::Keypair;

    fn key(byte0: u8) -> Key {
        let mut b = [0u8; 32];
        b[0] = byte0;
        Key(b)
    }

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = Key::from_peer(&Keypair::from_seed(1).peer_id());
        let b = Key::from_peer(&Keypair::from_seed(2).peer_id());
        assert_eq!(a.distance(&b), b.distance(&a));
        assert_eq!(a.distance(&a), Distance::ZERO);
    }

    #[test]
    fn triangle_property_of_xor() {
        // XOR metric: d(a,c) = d(a,b) XOR d(b,c) — check the identity.
        let a = key(0b1010_0000);
        let b = key(0b0110_0000);
        let c = key(0b0000_1111);
        let ab = a.distance(&b);
        let bc = b.distance(&c);
        let ac = a.distance(&c);
        let mut combined = [0u8; 32];
        for (c, (x, y)) in combined.iter_mut().zip(ab.0.iter().zip(bc.0.iter())) {
            *c = x ^ y;
        }
        assert_eq!(Distance(combined), ac);
    }

    #[test]
    fn distance_ordering_is_big_endian() {
        let base = Key::ZERO;
        let near = key(0x01);
        let far = key(0x80);
        assert!(base.distance(&near) < base.distance(&far));
    }

    #[test]
    fn bucket_indices() {
        let base = Key::ZERO;
        // Differ in the top bit -> bucket 255.
        assert_eq!(base.bucket_index(&key(0x80)), Some(255));
        // Differ in the second bit -> bucket 254.
        assert_eq!(base.bucket_index(&key(0x40)), Some(254));
        // Differ in the lowest bit -> bucket 0.
        let mut low = [0u8; 32];
        low[31] = 0x01;
        assert_eq!(base.bucket_index(&Key(low)), Some(0));
        // Self -> no bucket.
        assert_eq!(base.bucket_index(&base), None);
    }

    #[test]
    fn leading_zeros_range() {
        assert_eq!(Distance::ZERO.leading_zeros(), 256);
        let mut b = [0u8; 32];
        b[0] = 0xFF;
        assert_eq!(Distance(b).leading_zeros(), 0);
        let mut b = [0u8; 32];
        b[1] = 0x10;
        assert_eq!(Distance(b).leading_zeros(), 11);
    }

    /// For each byte position, 16 base keys × 256 values of that byte:
    /// 4 096 keys that differ only there must fill at least half of a
    /// 4 096-bucket table (random placement fills ≈ 63 %). Half the bases
    /// are structured `Key::from_bytes` keys, where a weak hash — an Fx
    /// fold that lets high bytes drop off the low bits — collapses.
    #[test]
    fn hasher_spreads_structured_keys() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<KeyHasher>::default();
        let mut bases: Vec<[u8; 32]> = vec![[0; 32], [0xff; 32]];
        bases.push(std::array::from_fn(|i| i as u8));
        bases.push(std::array::from_fn(|i| if i % 8 == 7 { 1 } else { 0 }));
        bases.push(std::array::from_fn(|i| if i == 0 { 0x80 } else { 0 }));
        bases.push(std::array::from_fn(|i| if i == 31 { 1 } else { 0 }));
        bases.push(std::array::from_fn(|i| 0xaa ^ i as u8));
        bases.push(std::array::from_fn(|i| (i as u8).wrapping_mul(37)));
        bases.extend((0u64..8).map(|n| Key::from_cid(&Cid::from_raw_data(&n.to_be_bytes())).0));
        assert_eq!(bases.len(), 16);
        for pos in 0..32 {
            let mut buckets = std::collections::HashSet::new();
            for base in &bases {
                for byte in 0..=255u8 {
                    let mut bytes = *base;
                    bytes[pos] = byte;
                    buckets.insert(build.hash_one(Key::from_bytes(bytes)) & 0xfff);
                }
            }
            assert!(buckets.len() >= 2_048, "byte {pos}: {} buckets", buckets.len());
        }
    }

    #[test]
    fn cid_and_peer_keys_coexist() {
        // "CIDs and PeerIDs reside in a common 256-bit key space" (§2.3):
        // both map to Key and are mutually comparable.
        let cid_key = Key::from_cid(&Cid::from_raw_data(b"content"));
        let peer_key = Key::from_peer(&Keypair::from_seed(3).peer_id());
        let _ = cid_key.distance(&peer_key); // compiles, well-defined
        assert_ne!(cid_key, peer_key);
    }
}
