//! Multihash: self-describing hash digests.
//!
//! Wire format: `<varint fn-code> <varint digest-len> <digest bytes>`.
//! The paper (§2.1) describes the multihash as "a self-describing
//! hash-digest ... includes metadata indicating the hash function used
//! (default sha2-256) and the length (default 32 bytes)".

use crate::{sha256, sha512, varint, Error, Result, Sha256};

/// Hash-function codes from the multicodec registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MultihashCode {
    /// `0x00` — the identity "hash": the digest *is* the data. Used for
    /// inlining small public keys into PeerIDs.
    Identity,
    /// `0x12` — SHA2-256, the IPFS default.
    Sha2_256,
    /// `0x13` — SHA2-512.
    Sha2_512,
}

impl MultihashCode {
    /// Numeric registry code.
    pub fn code(self) -> u64 {
        match self {
            MultihashCode::Identity => 0x00,
            MultihashCode::Sha2_256 => 0x12,
            MultihashCode::Sha2_512 => 0x13,
        }
    }

    /// Looks up a code, rejecting unsupported functions.
    pub fn from_code(code: u64) -> Result<MultihashCode> {
        match code {
            0x00 => Ok(MultihashCode::Identity),
            0x12 => Ok(MultihashCode::Sha2_256),
            0x13 => Ok(MultihashCode::Sha2_512),
            other => Err(Error::UnknownHashCode(other)),
        }
    }

    /// Canonical registry name.
    pub fn name(self) -> &'static str {
        match self {
            MultihashCode::Identity => "identity",
            MultihashCode::Sha2_256 => "sha2-256",
            MultihashCode::Sha2_512 => "sha2-512",
        }
    }
}

/// A decoded multihash: function code plus digest.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Multihash {
    code: u64,
    digest: Vec<u8>,
}

impl Multihash {
    /// Wraps an existing digest under the given function code.
    pub fn wrap(code: MultihashCode, digest: Vec<u8>) -> Multihash {
        Multihash { code: code.code(), digest }
    }

    /// Hashes `data` with sha2-256 and wraps the digest (the IPFS default).
    pub fn sha2_256(data: &[u8]) -> Multihash {
        Multihash { code: MultihashCode::Sha2_256.code(), digest: sha256::digest(data).to_vec() }
    }

    /// Hashes `data` with sha2-512 and wraps the digest.
    pub fn sha2_512(data: &[u8]) -> Multihash {
        Multihash { code: MultihashCode::Sha2_512.code(), digest: sha512::digest(data).to_vec() }
    }

    /// Wraps `data` itself under the identity function.
    pub fn identity(data: &[u8]) -> Multihash {
        Multihash { code: MultihashCode::Identity.code(), digest: data.to_vec() }
    }

    /// The hash-function code.
    pub fn code(&self) -> u64 {
        self.code
    }

    /// The digest bytes.
    pub fn digest(&self) -> &[u8] {
        &self.digest
    }

    /// Serializes to the `<code><len><digest>` wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(2 * varint::MAX_LEN + self.digest.len());
        varint::encode(self.code, &mut out);
        varint::encode(self.digest.len() as u64, &mut out);
        out.extend_from_slice(&self.digest);
        out
    }

    /// Feeds the wire format into `hasher` field by field — what hashing
    /// [`Multihash::to_bytes`] would feed it, without building the `Vec`.
    pub(crate) fn hash_wire_format(&self, hasher: &mut Sha256) {
        for field in [self.code, self.digest.len() as u64] {
            let (buf, n) = varint::encode_array(field);
            hasher.update(&buf[..n]);
        }
        hasher.update(&self.digest);
    }

    /// Parses a multihash, requiring the input to be fully consumed.
    pub fn from_bytes(bytes: &[u8]) -> Result<Multihash> {
        let mut slice = bytes;
        let mh = Multihash::read(&mut slice)?;
        if !slice.is_empty() {
            return Err(Error::DigestLengthMismatch {
                declared: mh.digest.len(),
                actual: mh.digest.len() + slice.len(),
            });
        }
        Ok(mh)
    }

    /// Parses a multihash from the front of `input`, advancing it.
    pub fn read(input: &mut &[u8]) -> Result<Multihash> {
        let code = varint::take(input)?;
        // Validate the function is known (future codes would need registry
        // entries before we can trust their digest semantics).
        MultihashCode::from_code(code)?;
        let len = varint::take(input)? as usize;
        if input.len() < len {
            return Err(Error::UnexpectedEnd);
        }
        let digest = input[..len].to_vec();
        *input = &input[len..];
        Ok(Multihash { code, digest })
    }

    /// Verifies that `data` hashes to this multihash. This is the
    /// self-certification check at the heart of IPFS (paper §2.1): "content
    /// cannot be altered without modifying its CID".
    pub fn verify(&self, data: &[u8]) -> bool {
        match MultihashCode::from_code(self.code) {
            Ok(MultihashCode::Sha2_256) => self.digest == sha256::digest(data),
            Ok(MultihashCode::Sha2_512) => self.digest == sha512::digest(data),
            Ok(MultihashCode::Identity) => data == self.digest,
            Err(_) => false,
        }
    }
}

impl core::fmt::Debug for Multihash {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let name = MultihashCode::from_code(self.code).map(|c| c.name()).unwrap_or("unknown");
        write!(f, "Multihash({name}:")?;
        for b in self.digest.iter().take(6) {
            write!(f, "{b:02x}")?;
        }
        write!(f, "…)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sha2_256_wire_format() {
        let mh = Multihash::sha2_256(b"hello");
        let bytes = mh.to_bytes();
        assert_eq!(bytes[0], 0x12); // sha2-256 code
        assert_eq!(bytes[1], 0x20); // 32-byte digest
        assert_eq!(bytes.len(), 34);
        assert_eq!(Multihash::from_bytes(&bytes).unwrap(), mh);
    }

    #[test]
    fn known_digest() {
        // sha2-256("multihash") from the multihash spec examples.
        let mh = Multihash::sha2_256(b"multihash");
        let hex: String = mh.digest().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, "9cbc07c3f991725836a3aa2a581ca2029198aa420b9d99bc0e131d9f3e2cbe47");
    }

    #[test]
    fn identity_roundtrip() {
        let mh = Multihash::identity(b"tiny key");
        assert_eq!(mh.digest(), b"tiny key");
        let back = Multihash::from_bytes(&mh.to_bytes()).unwrap();
        assert_eq!(back, mh);
        assert!(back.verify(b"tiny key"));
        assert!(!back.verify(b"tiny keX"));
    }

    #[test]
    fn verify_detects_tamper() {
        let mh = Multihash::sha2_256(b"content");
        assert!(mh.verify(b"content"));
        assert!(!mh.verify(b"Content"));
    }

    #[test]
    fn rejects_unknown_function() {
        // code 0x16 (sha3-256) is not in our registry subset.
        let bytes = [0x16u8, 0x02, 0xaa, 0xbb];
        assert_eq!(Multihash::from_bytes(&bytes), Err(Error::UnknownHashCode(0x16)));
    }

    #[test]
    fn sha2_512_wire_and_verify() {
        let mh = Multihash::sha2_512(b"hello");
        let bytes = mh.to_bytes();
        assert_eq!(bytes[0], 0x13);
        assert_eq!(bytes[1], 0x40); // 64-byte digest
        assert_eq!(bytes.len(), 66);
        let back = Multihash::from_bytes(&bytes).unwrap();
        assert!(back.verify(b"hello"));
        assert!(!back.verify(b"Hello"));
    }

    #[test]
    fn functions_share_one_keyspace() {
        // The same content under different hash functions yields distinct
        // multihashes — both verifiable, both addressable.
        let a = Multihash::sha2_256(b"same data");
        let b = Multihash::sha2_512(b"same data");
        assert_ne!(a, b);
        assert!(a.verify(b"same data") && b.verify(b"same data"));
    }

    #[test]
    fn rejects_truncated_digest() {
        let mut bytes = Multihash::sha2_256(b"x").to_bytes();
        bytes.truncate(10);
        assert_eq!(Multihash::from_bytes(&bytes), Err(Error::UnexpectedEnd));
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = Multihash::sha2_256(b"x").to_bytes();
        bytes.push(0xff);
        assert!(Multihash::from_bytes(&bytes).is_err());
    }

    #[test]
    fn read_advances() {
        let mut buf = Multihash::sha2_256(b"a").to_bytes();
        buf.extend_from_slice(&Multihash::identity(b"b").to_bytes());
        let mut slice = &buf[..];
        let first = Multihash::read(&mut slice).unwrap();
        let second = Multihash::read(&mut slice).unwrap();
        assert!(slice.is_empty());
        assert!(first.verify(b"a"));
        assert!(second.verify(b"b"));
    }

    /// Arbitrary bytes never panic the decoder, and every value it accepts
    /// re-encodes to bytes that decode back to an equal value. A valid
    /// encoding with one byte overwritten reaches the `Ok` path that random
    /// bytes seldom do.
    #[test]
    fn proptest_from_bytes_survives_arbitrary_input() {
        use proptest::prelude::*;
        let valid = Multihash::sha2_256(b"valid").to_bytes();
        proptest!(ProptestConfig::with_cases(256), |(
            bytes in proptest::collection::vec(any::<u8>(), 0..96),
            at in any::<usize>(),
            byte in any::<u8>(),
        )| {
            let mut mutated = valid.clone();
            mutated[at % valid.len()] = byte;
            for input in [&bytes, &mutated] {
                if let Ok(mh) = Multihash::from_bytes(input) {
                    prop_assert_eq!(Multihash::from_bytes(&mh.to_bytes()).unwrap(), mh);
                }
            }
        });
    }
}
