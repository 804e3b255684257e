//! SHA-256 implemented from scratch per FIPS 180-4.
//!
//! IPFS uses sha2-256 as the default multihash function for both CIDs and
//! PeerIDs (paper §2.1, §2.3: "Nodes in the DHT use 256-bit SHA256 keys"),
//! so every imported chunk, every Bitswap block and every DHT key goes
//! through this module.
//!
//! # Structure
//!
//! Everything is built on one core, `compress_blocks(state, blocks)`, which
//! folds any whole number of 64-byte blocks into the eight-word chaining
//! state, reading them straight from the caller's slice. The streaming
//! [`Sha256`] hands runs of whole blocks to the core in a single call and
//! only buffers the sub-block tail; the one-shot [`digest`] never buffers
//! the body at all. Both finish through the same in-place padding step
//! (one or two more blocks).
//!
//! # Backends and dispatch
//!
//! The core has two interchangeable backends, chosen on every call from
//! what the CPU reports (std caches the CPUID probe, so the check is a
//! relaxed atomic load); nothing else — no environment variable, Cargo
//! feature or config field — selects one:
//!
//! - **`sha-ni`** (`x86.rs`, x86-64 only): the Intel SHA extensions, two
//!   rounds per `sha256rnds2`, the message schedule from `sha256msg1/2`,
//!   the state held in two vector registers across all blocks of a call.
//! - **`portable`**: the textbook FIPS 180-4 rounds over a 16-word rolling
//!   schedule. It is the fallback on every other CPU (aarch64 included)
//!   and the oracle the tests hold the vector kernel to.
//!
//! [`backend`] names the one in use.
//!
//! # Safety argument
//!
//! The workspace forbids `unsafe_code` everywhere except the `x86`
//! submodule, which this file admits with the one `allow` attribute on
//! its `mod` line. That module needs it for exactly two things:
//! calling a `#[target_feature]` function — done only after
//! `is_x86_feature_detected!` confirmed `sha`, `ssse3` and `sse4.1` — and
//! unaligned 16-byte vector loads/stores, which only ever touch the
//! `[u32; 8]` state and 64-byte chunks produced by `chunks_exact(64)`, so
//! every access is in bounds by construction. Its one entry point is a
//! safe function; nothing outside it can reach the intrinsics.

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86;

/// Size of a SHA-256 digest in bytes.
pub const DIGEST_SIZE: usize = 32;
/// Size of a SHA-256 message block in bytes.
pub const BLOCK_SIZE: usize = 64;

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes (FIPS 180-4 §4.2.2).
static K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash value: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Folds `blocks` — a whole number of 64-byte blocks — into `state` with
/// the fastest backend this CPU supports.
#[inline]
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % BLOCK_SIZE, 0);
    #[cfg(target_arch = "x86_64")]
    if x86::compress_blocks(state, blocks) {
        return;
    }
    compress_blocks_portable(state, blocks);
}

/// Name of the backend [`digest`] and [`Sha256`] run on this CPU:
/// `"sha-ni"` or `"portable"`.
pub fn backend() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if x86::available() {
        return "sha-ni";
    }
    "portable"
}

/// The FIPS 180-4 §6.2.2 rounds in plain integer arithmetic. Only the last
/// 16 schedule words are ever live, so `w` is a ring indexed mod 16.
fn compress_blocks_portable(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(BLOCK_SIZE) {
        let mut w = [0u32; 16];
        for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            if i >= 16 {
                let w15 = w[(i + 1) & 15];
                let w2 = w[(i + 14) & 15];
                let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
                let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
                w[i & 15] =
                    w[i & 15].wrapping_add(s0).wrapping_add(w[(i + 9) & 15]).wrapping_add(s1);
            }
            let big_s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 =
                h.wrapping_add(big_s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i & 15]);
            let big_s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = big_s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }

        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// Pads the final sub-block `tail` of a `total_len`-byte message (0x80,
/// zeros, 64-bit big-endian bit length: one block, or two when the length
/// field does not fit), folds it into `state` and serializes the digest.
fn finish(mut state: [u32; 8], tail: &[u8], total_len: u64) -> [u8; DIGEST_SIZE] {
    debug_assert!(tail.len() < BLOCK_SIZE);
    let mut pad = [0u8; 2 * BLOCK_SIZE];
    pad[..tail.len()].copy_from_slice(tail);
    pad[tail.len()] = 0x80;
    let padded = if tail.len() < BLOCK_SIZE - 8 { BLOCK_SIZE } else { 2 * BLOCK_SIZE };
    pad[padded - 8..padded].copy_from_slice(&total_len.wrapping_mul(8).to_be_bytes());
    compress_blocks(&mut state, &pad[..padded]);
    state_to_digest(state)
}

/// Serializes the chaining state big-endian (FIPS 180-4 §6.2.2, step 4).
fn state_to_digest(state: [u32; 8]) -> [u8; DIGEST_SIZE] {
    let mut out = [0u8; DIGEST_SIZE];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// A streaming SHA-256 hasher.
///
/// ```
/// use multiformats::sha256::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(
///     hex(&h.finalize()),
///     "b94d27b9934d3e08a52e52d7da7dabfac484efe37a5380ee9088f7ace2efcde9",
/// );
/// fn hex(d: &[u8]) -> String { d.iter().map(|b| format!("{b:02x}")).collect() }
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Total message length in bytes fed so far.
    len: u64,
    /// The not-yet-compressed tail: always fewer than `BLOCK_SIZE` bytes
    /// between calls.
    buf: [u8; BLOCK_SIZE],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 { state: H0, len: 0, buf: [0; BLOCK_SIZE], buf_len: 0 }
    }

    /// Feeds `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut input = data;
        // Top up a partially filled block first.
        if self.buf_len > 0 {
            let take = (BLOCK_SIZE - self.buf_len).min(input.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&input[..take]);
            self.buf_len += take;
            input = &input[take..];
            if self.buf_len < BLOCK_SIZE {
                return;
            }
            compress_blocks(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        // Every whole block in one call, straight from the input.
        let (blocks, tail) = input.split_at(input.len() - input.len() % BLOCK_SIZE);
        compress_blocks(&mut self.state, blocks);
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Consumes the hasher and returns the 32-byte digest.
    pub fn finalize(self) -> [u8; DIGEST_SIZE] {
        finish(self.state, &self.buf[..self.buf_len], self.len)
    }
}

/// One-shot SHA-256 of `data`.
pub fn digest(data: &[u8]) -> [u8; DIGEST_SIZE] {
    let (blocks, tail) = data.split_at(data.len() - data.len() % BLOCK_SIZE);
    let mut state = H0;
    compress_blocks(&mut state, blocks);
    finish(state, tail, data.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    type Core = fn(&mut [u32; 8], &[u8]);

    /// Every backend this host can run, by name.
    fn backends() -> Vec<(&'static str, Core)> {
        let mut all: Vec<(&'static str, Core)> = vec![("portable", compress_blocks_portable)];
        #[cfg(target_arch = "x86_64")]
        if x86::available() {
            all.push(("sha-ni", |state, blocks| assert!(x86::compress_blocks(state, blocks))));
        }
        all
    }

    /// Reference hashing over one named core: pads the whole message into a
    /// fresh buffer (independently of `finish`) and compresses it in a
    /// single multi-block call.
    fn digest_with(core: Core, data: &[u8]) -> [u8; DIGEST_SIZE] {
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % BLOCK_SIZE != BLOCK_SIZE - 8 {
            msg.push(0);
        }
        msg.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        core(&mut state, &msg);
        state_to_digest(state)
    }

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Deterministic filler so tests need no RNG: byte `i` of the pattern.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i.wrapping_mul(131) ^ (i >> 8)) as u8).collect()
    }

    /// FIPS 180-4 examples and NIST CAVS `SHA256ShortMsg` vectors, plus
    /// `0x61 × n` at every padding edge (digests cross-checked against
    /// coreutils `sha256sum`).
    const VECTORS: &[(&[u8], &str)] = &[
        (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
        (
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        ),
        (&[0xd3], "28969cdfa74a12c82f3bad960b0b000aca2ac329deea5c2328ebc6f2ba9802c1"),
        (&[0x11, 0xaf], "5ca7133fa735326081558ac312c620eeca9970d1e70a4b95533d956f072d1f98"),
        (
            &[0x74, 0xba, 0x25, 0x21],
            "b16aa56be3880d18cd41e68384cf1ec8c17680c45a02b1575dc1518923ae8b0e",
        ),
    ];

    /// `(n, sha256("a" × n))` at the lengths where padding changes shape.
    const A_RUNS: &[(usize, &str)] = &[
        (55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"),
        (56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"),
        (63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"),
        (64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"),
        (65, "635361c48bb9eab14198e76ea8ab7f1a41685d6ad62aa9146d301d4f17eb0ae0"),
        (119, "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb"),
        (120, "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c"),
        (128, "6836cf13bac400e9105071cd6af47084dfacad4e5e302c94bfed24e013afb73e"),
    ];

    #[test]
    fn nist_vectors_on_each_backend() {
        let a_runs: Vec<(Vec<u8>, &str)> =
            A_RUNS.iter().map(|&(n, want)| (vec![b'a'; n], want)).collect();
        let vectors = VECTORS
            .iter()
            .map(|&(msg, want)| (msg, want))
            .chain(a_runs.iter().map(|(msg, want)| (&msg[..], *want)));
        for (msg, want) in vectors {
            for (name, core) in backends() {
                assert_eq!(hex(&digest_with(core, msg)), want, "{name}, {} bytes", msg.len());
            }
            assert_eq!(hex(&digest(msg)), want, "one-shot, {} bytes", msg.len());
            let mut h = Sha256::new();
            h.update(msg);
            assert_eq!(hex(&h.finalize()), want, "streaming, {} bytes", msg.len());
        }
    }

    /// Calls the portable core by name, so it stays covered on hosts where
    /// dispatch always picks the vector kernel.
    #[test]
    fn portable_core_direct() {
        let mut state = H0;
        let mut block = [0u8; BLOCK_SIZE];
        block[..3].copy_from_slice(b"abc");
        block[3] = 0x80;
        block[63] = 24;
        compress_blocks_portable(&mut state, &block);
        assert_eq!(
            state,
            [
                0xba7816bf, 0x8f01cfea, 0x414140de, 0x5dae2223, 0xb00361a3, 0x96177a9c, 0xb410ff61,
                0xf20015ad
            ]
        );
        // Zero blocks is a no-op, not a panic.
        compress_blocks_portable(&mut state, &[]);
        assert_eq!(state[0], 0xba7816bf);
    }

    #[test]
    fn backend_name_matches_dispatch() {
        let names: Vec<_> = backends().into_iter().map(|(name, _)| name).collect();
        assert_eq!(backend(), *names.last().unwrap());
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_equals_oneshot_at_all_split_points() {
        let data = pattern(257);
        let expect = digest(&data);
        for split in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), expect, "split at {split}");
        }
    }

    #[test]
    fn block_boundary_lengths() {
        // Lengths that straddle padding edge cases: 55, 56, 63, 64, 65.
        for n in [0usize, 1, 31, 32, 55, 56, 57, 63, 64, 65, 127, 128, 129] {
            let data = vec![0xa5u8; n];
            let once = digest(&data);
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), once, "length {n}");
        }
    }

    /// A chunk-sized block fed in odd-sized pieces: buffered top-ups and
    /// multi-block runs interleave, and every backend agrees on the result.
    #[test]
    fn chunk_sized_block_in_odd_pieces() {
        let data = pattern(256 * 1024);
        let expect = digest(&data);
        for (name, core) in backends() {
            assert_eq!(digest_with(core, &data), expect, "{name}");
        }
        let mut h = Sha256::new();
        let mut rest = &data[..];
        for piece in [1usize, 63, 64, 65, 127, 4097, 1000, 7, 129, 30_011].iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (head, tail) = rest.split_at((*piece).min(rest.len()));
            h.update(head);
            rest = tail;
        }
        assert_eq!(h.finalize(), expect);
    }

    #[test]
    fn proptest_backends_and_apis_agree() {
        use proptest::prelude::*;
        proptest!(ProptestConfig::with_cases(256), |(
            buf in proptest::collection::vec(any::<u8>(), 0..=8192 + 63),
            offset in 0usize..64,
            cuts in proptest::collection::vec(any::<usize>(), 0..6),
        )| {
            // A random unaligned window into the buffer.
            let data = &buf[offset.min(buf.len())..];
            let expect = digest_with(compress_blocks_portable, data);
            for (name, core) in backends() {
                prop_assert_eq!(digest_with(core, data), expect, "{}", name);
            }
            prop_assert_eq!(digest(data), expect);

            let mut splits: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
            splits.sort_unstable();
            let mut h = Sha256::new();
            let mut at = 0;
            for split in splits {
                h.update(&data[at..split]);
                at = split;
            }
            h.update(&data[at..]);
            prop_assert_eq!(h.finalize(), expect);
        });
    }
}
