//! TinyLFU-style cache admission: a count-min sketch of recent access
//! frequencies behind a doorkeeper bloom filter.
//!
//! The nginx tier's plain LRU admits every response it sees, so a long
//! tail of one-hit wonders (§6.3: most gateway CIDs are requested exactly
//! once per day) continuously flushes the popular head out of the cache.
//! TinyLFU (Einziger et al.) fixes this by letting an insert evict the LRU
//! victim only when the candidate's estimated access frequency exceeds the
//! victim's:
//!
//! * a **doorkeeper** bloom filter absorbs the first occurrence of every
//!   key, so one-hit wonders never consume sketch counters;
//! * a **count-min sketch** of 4 hash rows with saturating 4-bit-style
//!   counters estimates the frequency of everything past the doorkeeper;
//! * **aging**: after `sample_period` recorded accesses every counter is
//!   halved and the doorkeeper cleared, so the sketch tracks *recent*
//!   popularity and a stale head cannot squat forever.
//!
//! Everything is deterministic: hashing is seeded FNV/splitmix with fixed
//! constants, so the same access stream always produces the same
//! admission decisions (a requirement for the byte-identical bench cells).

use multiformats::Cid;

/// Saturation ceiling per sketch counter (classic TinyLFU uses 4-bit
/// counters; 15 is where they clip).
const COUNTER_MAX: u8 = 15;

/// Number of independent sketch rows.
const ROWS: usize = 4;

/// Stable 64-bit key for a CID: an FNV-1a-shaped fold over the multihash
/// digest (unique per object, no allocation). The multiplier is
/// `0x1000_0000_01b3`, one hex digit longer than the FNV prime
/// `0x100_0000_01b3`; recorded gateway digests pin the keys, so it stays.
pub fn cid_key(cid: &Cid) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in cid.hash().digest() {
        h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// The splitmix64 finalizer without the golden-gamma add (so not
/// `simnet::mix::splitmix64`): decorrelates the sketch's per-row indices
/// and places the fleet's ring points.
pub(crate) fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// TinyLFU configuration.
#[derive(Debug, Clone, Copy)]
pub struct TinyLfuConfig {
    /// Counters per sketch row (rounded up to a power of two). Size this
    /// near the number of objects the cache can hold so collisions stay
    /// rare.
    pub counters: usize,
    /// Recorded accesses between aging resets (counter halving +
    /// doorkeeper clear). The classic choice is ~8-10x `counters`.
    pub sample_period: u64,
}

impl Default for TinyLfuConfig {
    fn default() -> Self {
        TinyLfuConfig { counters: 4096, sample_period: 32_768 }
    }
}

/// The admission filter: doorkeeper + count-min sketch + aging.
#[derive(Debug, Clone)]
pub struct TinyLfu {
    /// `ROWS` rows of `width` saturating counters, row-major.
    rows: Vec<u8>,
    width_mask: u64,
    /// Doorkeeper bloom bitset (one u64 word per 64 bits).
    doorkeeper: Vec<u64>,
    dk_bit_mask: u64,
    /// Accesses recorded since the last aging reset.
    ops: u64,
    sample_period: u64,
    /// Lifetime aging resets (for tests and reports).
    pub resets: u64,
}

impl TinyLfu {
    /// Creates a filter with the given configuration.
    pub fn new(cfg: TinyLfuConfig) -> TinyLfu {
        let width = cfg.counters.next_power_of_two().max(64);
        // Doorkeeper sized at 8 bits per counter slot keeps its false
        // positive rate negligible over one sample period.
        let dk_bits = (width * 8).next_power_of_two();
        TinyLfu {
            rows: vec![0; ROWS * width],
            width_mask: width as u64 - 1,
            doorkeeper: vec![0; dk_bits / 64],
            dk_bit_mask: dk_bits as u64 - 1,
            ops: 0,
            sample_period: cfg.sample_period.max(1),
            resets: 0,
        }
    }

    fn width(&self) -> usize {
        self.width_mask as usize + 1
    }

    fn dk_contains(&self, key: u64) -> bool {
        for i in 0..2u64 {
            let bit = mix(key ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i + 1))) & self.dk_bit_mask;
            if self.doorkeeper[(bit / 64) as usize] & (1 << (bit % 64)) == 0 {
                return false;
            }
        }
        true
    }

    fn dk_insert(&mut self, key: u64) {
        for i in 0..2u64 {
            let bit = mix(key ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i + 1))) & self.dk_bit_mask;
            self.doorkeeper[(bit / 64) as usize] |= 1 << (bit % 64);
        }
    }

    /// Records one access to `key` (call on every request, hit or miss).
    pub fn record(&mut self, key: u64) {
        self.ops += 1;
        if !self.dk_contains(key) {
            // First sighting this period: the doorkeeper absorbs it and the
            // sketch stays untouched — one-hit wonders cost one bloom bit.
            self.dk_insert(key);
        } else {
            let width = self.width();
            for row in 0..ROWS {
                let idx = (mix(key ^ (row as u64).wrapping_mul(0xa076_1d64_78bd_642f))
                    & self.width_mask) as usize;
                let c = &mut self.rows[row * width + idx];
                *c = (*c + 1).min(COUNTER_MAX);
            }
        }
        if self.ops >= self.sample_period {
            self.age();
        }
    }

    /// Estimated access frequency of `key` over the current sample window:
    /// the count-min estimate plus one if the doorkeeper has seen it.
    pub fn estimate(&self, key: u64) -> u32 {
        let width = self.width();
        let mut est = COUNTER_MAX as u32;
        for row in 0..ROWS {
            let idx = (mix(key ^ (row as u64).wrapping_mul(0xa076_1d64_78bd_642f))
                & self.width_mask) as usize;
            est = est.min(self.rows[row * width + idx] as u32);
        }
        est + self.dk_contains(key) as u32
    }

    /// The TinyLFU admission duel: admit `candidate` (evicting `victim`)
    /// only when its estimated frequency is strictly higher.
    pub fn admits(&self, candidate: u64, victim: u64) -> bool {
        self.estimate(candidate) > self.estimate(victim)
    }

    /// Aging reset: halve every counter and clear the doorkeeper so the
    /// sketch forgets stale popularity at the same rate it learns.
    fn age(&mut self) {
        for c in self.rows.iter_mut() {
            *c /= 2;
        }
        for w in self.doorkeeper.iter_mut() {
            *w = 0;
        }
        self.ops = 0;
        self.resets += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filter() -> TinyLfu {
        TinyLfu::new(TinyLfuConfig { counters: 256, sample_period: 2_048 })
    }

    #[test]
    fn unseen_keys_estimate_zero() {
        let f = filter();
        for k in 0..50u64 {
            assert_eq!(f.estimate(mix(k)), 0);
        }
    }

    #[test]
    fn doorkeeper_absorbs_first_access() {
        let mut f = filter();
        f.record(7);
        // One sighting: doorkeeper only, estimate 1, sketch counters clean.
        assert_eq!(f.estimate(7), 1);
        f.record(7);
        assert_eq!(f.estimate(7), 2);
    }

    #[test]
    fn frequency_ordering_is_preserved() {
        let mut f = filter();
        for _ in 0..10 {
            f.record(1);
        }
        for _ in 0..3 {
            f.record(2);
        }
        f.record(3);
        assert!(f.estimate(1) > f.estimate(2));
        assert!(f.estimate(2) > f.estimate(3));
        assert!(f.admits(1, 2) && f.admits(2, 3));
        assert!(!f.admits(3, 1));
    }

    #[test]
    fn one_hit_wonders_lose_the_duel() {
        let mut f = filter();
        // A hot key with real frequency vs a parade of one-hit wonders.
        for _ in 0..8 {
            f.record(42);
        }
        for w in 100..200u64 {
            f.record(w);
            assert!(!f.admits(w, 42), "one-hit wonder {w} must not displace the hot key");
        }
    }

    #[test]
    fn counters_saturate() {
        let mut f = filter();
        for _ in 0..1_000 {
            f.record(5);
        }
        assert!(f.estimate(5) <= COUNTER_MAX as u32 + 1);
    }

    #[test]
    fn aging_halves_and_forgets() {
        let mut f = TinyLfu::new(TinyLfuConfig { counters: 64, sample_period: 100 });
        for _ in 0..40 {
            f.record(1);
        }
        let before = f.estimate(1);
        // Push past the sample period with other traffic to force a reset.
        for k in 0..60u64 {
            f.record(1_000 + k);
        }
        assert_eq!(f.resets, 1);
        let after = f.estimate(1);
        assert!(
            after <= before / 2 + 1,
            "aging must at least halve the estimate: {before} -> {after}"
        );
        // The doorkeeper was cleared too: a key seen once before the reset
        // reads as unseen.
        assert_eq!(f.estimate(1_000), 0, "doorkeeper must clear on reset");
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = filter();
        let mut b = filter();
        for k in 0..500u64 {
            a.record(k % 37);
            b.record(k % 37);
        }
        for k in 0..37u64 {
            assert_eq!(a.estimate(k), b.estimate(k));
        }
    }

    #[test]
    fn cid_keys_are_stable_and_distinct() {
        let a = Cid::from_raw_data(b"object-a");
        let b = Cid::from_raw_data(b"object-b");
        assert_eq!(cid_key(&a), cid_key(&a));
        assert_ne!(cid_key(&a), cid_key(&b));
    }
}
