//! The two stateless 64-bit mixers the simulation derives ids, per-event
//! seeds and fingerprints from. Recorded digests pin their outputs: change
//! a constant here and every `order_fnv`/`metrics_fnv`/trace id moves.

/// FNV-1a 64-bit offset basis: the `h` to start a [`fnv1a`] chain from.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// SplitMix64: golden-gamma increment, then the finalizer — one bijective
/// mixing round.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Folds `bytes` into the FNV-1a chain `h`.
#[inline]
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // First output of the reference SplitMix64 generator seeded with 0.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        // FNV-1a test vectors (Noll's reference suite).
        assert_eq!(fnv1a(FNV_BASIS, b""), FNV_BASIS);
        assert_eq!(fnv1a(FNV_BASIS, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_BASIS, b"foobar"), 0x8594_4171_f739_67e8);
        // Chaining equals one pass over the concatenation.
        assert_eq!(fnv1a(fnv1a(FNV_BASIS, b"foo"), b"bar"), fnv1a(FNV_BASIS, b"foobar"));
    }
}
