//! The SHA-NI backend: SHA-256 compression on the x86-64 SHA extensions.
//!
//! This is the only module in the workspace allowed `unsafe` code (see the
//! parent module's safety argument and DESIGN.md). It exposes one safe
//! function, [`compress_blocks`], which refuses to run unless the CPU
//! reports every instruction set the kernel was compiled for.
//!
//! `sha256rnds2` performs two rounds on a state split as `ABEF`/`CDGH`
//! (hence the shuffles on entry and exit) and takes `W[t] + K[t]` for
//! both rounds in the low half of a register; `sha256msg1`/`sha256msg2`
//! produce four schedule words at a time from the previous sixteen.

use super::{BLOCK_SIZE, K};
use core::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
    _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    _mm_shuffle_epi8, _mm_storeu_si128,
};

/// Whether this CPU has everything [`compress_blocks`] needs. std caches
/// the CPUID probe, so this is three relaxed loads and bit tests.
#[inline]
pub(super) fn available() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

/// Folds `blocks` (a whole number of 64-byte blocks; a trailing partial
/// block would be ignored) into `state` and returns `true` — or touches
/// nothing and returns `false` on a CPU without the SHA extensions.
#[inline]
pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) -> bool {
    if !available() {
        return false;
    }
    // SAFETY: `available()` just confirmed the CPU supports every feature
    // `compress_blocks_sha_ni` enables (`sse2` is baseline on x86-64).
    unsafe { compress_blocks_sha_ni(state, blocks) };
    true
}

/// # Safety
///
/// The CPU must support the `sha`, `ssse3` and `sse4.1` extensions.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
unsafe fn compress_blocks_sha_ni(state: &mut [u32; 8], blocks: &[u8]) {
    // Byte shuffle turning four little-endian lanes into big-endian words.
    let be_words = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

    let state_ptr = state.as_mut_ptr().cast::<__m128i>();
    // SAFETY: `state` is 32 bytes, so the 16-byte loads at vector offsets 0
    // and 1 are in bounds; `loadu` has no alignment requirement.
    let (dcba, hgfe) = (_mm_loadu_si128(state_ptr), _mm_loadu_si128(state_ptr.add(1)));
    let cdab = _mm_shuffle_epi32(dcba, 0xb1);
    let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
    let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
    let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

    for block in blocks.chunks_exact(BLOCK_SIZE) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let block_ptr = block.as_ptr().cast::<__m128i>();
        // SAFETY: `chunks_exact` yields exactly `BLOCK_SIZE` = 64 bytes, so
        // the 16-byte loads at vector offsets 0..4 are in bounds; `loadu`
        // has no alignment requirement.
        let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(block_ptr), be_words);
        let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(block_ptr.add(1)), be_words);
        let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(block_ptr.add(2)), be_words);
        let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(block_ptr.add(3)), be_words);

        // Rounds 4i..4i+4 on schedule words `$w` = W[4i..4i+4].
        macro_rules! rounds4 {
            ($i:expr, $w:ident) => {{
                // SAFETY: `K` holds 64 words = 16 vectors and `$i < 16`.
                let k = _mm_loadu_si128(K.as_ptr().cast::<__m128i>().add($i));
                let wk = _mm_add_epi32($w, k);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
            }};
        }
        // Replaces `$w16` = W[t-16..t-12] with W[t..t+4] =
        // σ1(W[t-2..]) + W[t-7..] + σ0(W[t-15..]) + W[t-16..], then runs
        // its four rounds.
        macro_rules! schedule_rounds4 {
            ($i:expr, $w16:ident, $w12:ident, $w8:ident, $w4:ident) => {{
                let partial =
                    _mm_add_epi32(_mm_sha256msg1_epu32($w16, $w12), _mm_alignr_epi8($w4, $w8, 4));
                $w16 = _mm_sha256msg2_epu32(partial, $w4);
                rounds4!($i, $w16);
            }};
        }
        rounds4!(0, w0);
        rounds4!(1, w1);
        rounds4!(2, w2);
        rounds4!(3, w3);
        schedule_rounds4!(4, w0, w1, w2, w3);
        schedule_rounds4!(5, w1, w2, w3, w0);
        schedule_rounds4!(6, w2, w3, w0, w1);
        schedule_rounds4!(7, w3, w0, w1, w2);
        schedule_rounds4!(8, w0, w1, w2, w3);
        schedule_rounds4!(9, w1, w2, w3, w0);
        schedule_rounds4!(10, w2, w3, w0, w1);
        schedule_rounds4!(11, w3, w0, w1, w2);
        schedule_rounds4!(12, w0, w1, w2, w3);
        schedule_rounds4!(13, w1, w2, w3, w0);
        schedule_rounds4!(14, w2, w3, w0, w1);
        schedule_rounds4!(15, w3, w0, w1, w2);
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32(abef, 0x1b);
    let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
    // SAFETY: as for the loads above — two 16-byte stores into the 32-byte
    // `state`, no alignment requirement.
    _mm_storeu_si128(state_ptr, _mm_blend_epi16(feba, dchg, 0xf0));
    _mm_storeu_si128(state_ptr.add(1), _mm_alignr_epi8(dchg, feba, 8));
}
