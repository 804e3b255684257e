//! Self-describing data formats used by IPFS, implemented from scratch.
//!
//! This crate provides the content- and peer-addressing primitives described
//! in Section 2 of *Design and Evaluation of IPFS* (SIGCOMM '22):
//!
//! - [`sha256`] — a from-scratch FIPS 180-4 SHA-256 implementation (the
//!   default multihash function in IPFS), hardware-accelerated where the
//!   CPU has SHA extensions.
//! - [`varint`] — unsigned LEB128 varints, the length/code prefix format
//!   shared by every multiformat.
//! - [`base`] — multibase: base16/32/36/58btc/64 codecs with the
//!   single-character multibase prefix.
//! - [`multicodec`] — the registry of content-encoding codes (raw, dag-pb,
//!   dag-cbor, libp2p-key, ...).
//! - [`multihash`] — self-describing hash digests
//!   (`<fn-code><digest-len><digest>`).
//! - [`cid`] — Content Identifiers, versions 0 and 1 (Figure 1 of the
//!   paper).
//! - [`multiaddr`] — self-describing network addresses (Figure 2 of the
//!   paper).
//! - [`peer`] — PeerIDs and the simulation keypair scheme used to
//!   self-certify peers and sign IPNS records.
//! - [`hasher`] — [`KeyHasher`], the unkeyed hasher for maps keyed by
//!   digests (DHT keys, CIDs).
//!
//! Everything here is dependency-free and deterministic; the rest of the
//! workspace builds on these primitives.

#![warn(missing_docs)]
// `deny`, not `forbid`, so that exactly one module — `sha256::x86`, the
// SHA-NI kernel — can opt back in; see the `sha256` module docs.
#![deny(unsafe_code)]

pub mod base;
pub mod cid;
pub mod hasher;
pub mod multiaddr;
pub mod multicodec;
pub mod multihash;
pub mod peer;
pub mod sha256;
pub mod sha512;
pub mod varint;

pub use base::Multibase;
pub use cid::{Cid, Version};
pub use hasher::KeyHasher;
pub use multiaddr::{Multiaddr, Protocol};
pub use multicodec::Multicodec;
pub use multihash::{Multihash, MultihashCode};
pub use peer::{Keypair, PeerId, PublicKey, Signature};
pub use sha256::Sha256;
pub use sha512::Sha512;

/// Errors produced when parsing or decoding any multiformat value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A varint was malformed (overlong, overflowing, or truncated).
    InvalidVarint,
    /// The multibase prefix character is unknown.
    UnknownBase(char),
    /// The payload characters are invalid for the selected base.
    InvalidBaseChar(char),
    /// Base payload has an impossible length (e.g. dangling bits).
    InvalidBaseLength,
    /// The multicodec code is not in the registry.
    UnknownCodec(u64),
    /// The multihash function code is not supported.
    UnknownHashCode(u64),
    /// A digest length did not match the declared length.
    DigestLengthMismatch {
        /// Length declared in the multihash header.
        declared: usize,
        /// Length of the actual digest payload.
        actual: usize,
    },
    /// The CID version is unknown (only v0 and v1 exist).
    UnknownCidVersion(u64),
    /// A CIDv0 was constructed from something other than sha2-256/dag-pb.
    InvalidCidV0,
    /// The buffer ended before the value was complete.
    UnexpectedEnd,
    /// A multiaddr protocol name or code is unknown.
    UnknownProtocol(String),
    /// A multiaddr component value is malformed (bad IP, port, etc.).
    InvalidAddressValue(String),
    /// A signature failed verification.
    BadSignature,
}

impl core::fmt::Display for Error {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Error::InvalidVarint => write!(f, "malformed unsigned varint"),
            Error::UnknownBase(c) => write!(f, "unknown multibase prefix {c:?}"),
            Error::InvalidBaseChar(c) => write!(f, "invalid character {c:?} for base"),
            Error::InvalidBaseLength => write!(f, "invalid payload length for base"),
            Error::UnknownCodec(c) => write!(f, "unknown multicodec 0x{c:x}"),
            Error::UnknownHashCode(c) => write!(f, "unknown multihash function 0x{c:x}"),
            Error::DigestLengthMismatch { declared, actual } => {
                write!(f, "digest length mismatch: declared {declared}, got {actual}")
            }
            Error::UnknownCidVersion(v) => write!(f, "unknown CID version {v}"),
            Error::InvalidCidV0 => write!(f, "CIDv0 must be sha2-256 + dag-pb"),
            Error::UnexpectedEnd => write!(f, "unexpected end of input"),
            Error::UnknownProtocol(p) => write!(f, "unknown multiaddr protocol {p:?}"),
            Error::InvalidAddressValue(v) => write!(f, "invalid multiaddr value {v:?}"),
            Error::BadSignature => write!(f, "signature verification failed"),
        }
    }
}

impl std::error::Error for Error {}

/// Crate-wide result alias.
pub type Result<T> = core::result::Result<T, Error>;
