//! Unsigned varints (LEB128) as specified by the multiformats project.
//!
//! Every multiformat (multihash, CID, multiaddr, multicodec) prefixes its
//! fields with unsigned varints. The multiformats spec restricts varints to
//! at most 9 bytes (63 bits of payload) and requires minimal encodings.

use crate::{Error, Result};

/// Maximum encoded length of a varint under the multiformats spec.
pub const MAX_LEN: usize = 9;

/// Largest value a varint may carry: 63 bits, the most [`MAX_LEN`] bytes
/// hold. It equals `isize::MAX`, so every buffer or collection length fits.
pub const MAX_VALUE: u64 = (1 << 63) - 1;

/// Varint-encodes `value` on the stack: the bytes and how many are used.
///
/// # Panics
///
/// If `value` exceeds [`MAX_VALUE`]: [`decode`] would refuse the 10-byte
/// encoding, so none is written. Callers pass lengths (at most
/// `isize::MAX`), registry codes or values they bound themselves.
pub(crate) fn encode_array(mut value: u64) -> ([u8; MAX_LEN], usize) {
    assert!(value <= MAX_VALUE, "varint {value} exceeds the 63-bit multiformats limit");
    let mut buf = [0u8; MAX_LEN];
    let mut n = 0;
    loop {
        buf[n] = (value & 0x7f) as u8;
        value >>= 7;
        n += 1;
        if value == 0 {
            return (buf, n);
        }
        buf[n - 1] |= 0x80;
    }
}

/// Appends the varint encoding of `value` to `out` and returns the number of
/// bytes written. Whatever it writes, [`decode`] reads back.
///
/// # Panics
///
/// If `value` exceeds [`MAX_VALUE`] (see [`encode_array`]).
pub fn encode(value: u64, out: &mut Vec<u8>) -> usize {
    let (buf, n) = encode_array(value);
    out.extend_from_slice(&buf[..n]);
    n
}

/// Encodes `value` into a fresh buffer.
///
/// # Panics
///
/// If `value` exceeds [`MAX_VALUE`].
pub fn encode_vec(value: u64) -> Vec<u8> {
    let mut v = Vec::with_capacity(MAX_LEN);
    encode(value, &mut v);
    v
}

/// Number of bytes `value` occupies when varint-encoded (for a value above
/// [`MAX_VALUE`], the 10 bytes an unrestricted LEB128 would take).
pub fn encoded_len(value: u64) -> usize {
    // ceil(bits/7), minimum 1.
    let bits = 64 - value.leading_zeros() as usize;
    core::cmp::max(1, bits.div_ceil(7))
}

/// Decodes a varint from the front of `input`, returning the value and the
/// number of bytes consumed.
///
/// Rejects truncated input, encodings longer than 9 bytes, values that
/// overflow 63 bits, and non-minimal ("overlong") encodings such as
/// `[0x80, 0x00]`.
pub fn decode(input: &[u8]) -> Result<(u64, usize)> {
    let mut value: u64 = 0;
    for (i, &byte) in input.iter().enumerate() {
        if i >= MAX_LEN {
            return Err(Error::InvalidVarint);
        }
        let payload = (byte & 0x7f) as u64;
        // 9th byte may only contribute the low 7 bits of a 63-bit value.
        if i == MAX_LEN - 1 && byte & 0x80 != 0 {
            return Err(Error::InvalidVarint);
        }
        value |= payload.checked_shl((7 * i) as u32).ok_or(Error::InvalidVarint)?;
        if byte & 0x80 == 0 {
            // Minimal-encoding check: the last byte of a multi-byte varint
            // must be non-zero.
            if i > 0 && byte == 0 {
                return Err(Error::InvalidVarint);
            }
            return Ok((value, i + 1));
        }
    }
    Err(Error::UnexpectedEnd)
}

/// Decodes a varint and advances `input` past it.
pub fn take(input: &mut &[u8]) -> Result<u64> {
    let (value, used) = decode(input)?;
    *input = &input[used..];
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_examples() {
        // Examples from the multiformats unsigned-varint spec.
        assert_eq!(encode_vec(1), vec![0x01]);
        assert_eq!(encode_vec(127), vec![0x7f]);
        assert_eq!(encode_vec(128), vec![0x80, 0x01]);
        assert_eq!(encode_vec(255), vec![0xff, 0x01]);
        assert_eq!(encode_vec(300), vec![0xac, 0x02]);
        assert_eq!(encode_vec(16384), vec![0x80, 0x80, 0x01]);
    }

    #[test]
    fn roundtrip_edge_values() {
        for v in [0u64, 1, 127, 128, 255, 256, 16383, 16384, u32::MAX as u64, (1 << 63) - 1] {
            let enc = encode_vec(v);
            assert_eq!(enc.len(), encoded_len(v));
            let (dec, used) = decode(&enc).unwrap();
            assert_eq!(dec, v);
            assert_eq!(used, enc.len());
        }
        assert_eq!(encoded_len(MAX_VALUE), MAX_LEN);
    }

    #[test]
    fn encode_refuses_what_decode_rejects() {
        // The 9-byte rule holds on both sides: 2^63 and above would take a
        // tenth byte, which `decode` rejects, so `encode` writes none.
        for v in [MAX_VALUE + 1, 1 << 63 | 12345, u64::MAX] {
            let mut out = vec![0xAA];
            let refused = std::panic::catch_unwind(move || {
                encode(v, &mut out);
                out
            });
            assert!(refused.is_err(), "{v} must be refused");
        }
        assert_eq!(decode(&encode_vec(MAX_VALUE)), Ok((MAX_VALUE, MAX_LEN)));
    }

    #[test]
    fn rejects_truncated() {
        assert_eq!(decode(&[0x80]), Err(Error::UnexpectedEnd));
        assert_eq!(decode(&[]), Err(Error::UnexpectedEnd));
    }

    #[test]
    fn rejects_overlong() {
        // 1 encoded non-minimally as [0x81, 0x00].
        assert_eq!(decode(&[0x81, 0x00]), Err(Error::InvalidVarint));
        assert_eq!(decode(&[0x80, 0x00]), Err(Error::InvalidVarint));
    }

    #[test]
    fn rejects_too_long() {
        let ten = [0x80u8; 10];
        assert_eq!(decode(&ten), Err(Error::InvalidVarint));
    }

    #[test]
    fn take_advances() {
        let buf = [0xac, 0x02, 0x07];
        let mut slice = &buf[..];
        assert_eq!(take(&mut slice).unwrap(), 300);
        assert_eq!(slice, &[0x07]);
    }

    #[test]
    fn ignores_trailing_bytes() {
        let (v, used) = decode(&[0x05, 0xff, 0xff]).unwrap();
        assert_eq!((v, used), (5, 1));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        #[test]
        fn decode_never_panics_on_arbitrary_bytes(
            bytes in proptest::collection::vec(proptest::any::<u8>(), 0..16)
        ) {
            // Whatever it accepts is the minimal encoding of a 63-bit value.
            if let Ok((value, used)) = decode(&bytes) {
                proptest::prop_assert!(value <= MAX_VALUE);
                proptest::prop_assert_eq!(&encode_vec(value)[..], &bytes[..used]);
            }
        }

        #[test]
        fn encode_and_decode_agree_over_all_u64(value in proptest::any::<u64>()) {
            // Encode refuses exactly the values decode rejects.
            match std::panic::catch_unwind(|| encode_vec(value)) {
                Ok(bytes) => {
                    proptest::prop_assert_eq!(decode(&bytes), Ok((value, bytes.len())));
                    proptest::prop_assert_eq!(bytes.len(), encoded_len(value));
                }
                Err(_) => proptest::prop_assert!(value > MAX_VALUE),
            }
        }
    }
}
