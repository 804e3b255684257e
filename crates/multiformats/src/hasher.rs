//! A fast, unkeyed `Hasher` for maps keyed by content digests.
//!
//! DHT keys and CIDs are (or wrap) SHA-256 digests, so SipHash's keyed
//! hashing against flooding buys nothing in the maps that index them.
//! [`KeyHasher`] only has to spread structured keys (e.g. the DHT's
//! `Key::from_bytes`) as well as it spreads digests. Use it as
//! `HashMap<K, V, BuildHasherDefault<KeyHasher>>`; iteration order is the
//! hasher's, so such a map is for lookups, not for ordered output.

use std::hash::Hasher;

/// Folds the input in 8-byte words and finishes with murmur3's 64-bit
/// mixer. The fold alone is Fx, whose multiplies only carry upward, so a
/// high byte would never reach the low bits that pick a bucket; the mixer
/// spreads every input bit over all 64 (both the bucket index and
/// hashbrown's top-7-bit tag).
#[derive(Debug, Clone, Copy, Default)]
pub struct KeyHasher(u64);

impl Hasher for KeyHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        const K: u64 = 0x517c_c1b7_2722_0a95;
        let mut chunks = bytes.chunks_exact(8);
        for word in &mut chunks {
            let word = u64::from_le_bytes(word.try_into().expect("an 8-byte chunk"));
            self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
        }
        for &byte in chunks.remainder() {
            self.0 = (self.0.rotate_left(5) ^ u64::from(byte)).wrapping_mul(K);
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}
