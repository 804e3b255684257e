//! Unsigned varints (LEB128) as specified by the multiformats project.
//!
//! Every multiformat (multihash, CID, multiaddr, multicodec) prefixes its
//! fields with unsigned varints. The multiformats spec restricts varints to
//! at most 9 bytes (63 bits of payload) and requires minimal encodings.

use crate::{Error, Result};

/// Maximum encoded length of a varint under the multiformats spec.
pub const MAX_LEN: usize = 9;

/// Varint-encodes `value` on the stack: the bytes and how many are used.
/// (Ten bytes hold any `u64`; values the spec allows need at most
/// [`MAX_LEN`].)
pub(crate) fn encode_array(mut value: u64) -> ([u8; 10], usize) {
    let mut buf = [0u8; 10];
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
/// bytes written.
pub fn encode(value: u64, out: &mut Vec<u8>) -> usize {
    let (buf, n) = encode_array(value);
    out.extend_from_slice(&buf[..n]);
    n
}

/// Encodes `value` into a fresh buffer.
pub fn encode_vec(value: u64) -> Vec<u8> {
    let mut v = Vec::with_capacity(MAX_LEN);
    encode(value, &mut v);
    v
}

/// Number of bytes `value` occupies when varint-encoded.
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
        // Encoding is total even beyond the 63 bits decoders accept.
        assert_eq!(encode_vec(u64::MAX).len(), 10);
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
}
