//! Multicodec: the registry of self-describing content-type codes.
//!
//! The multicodec identifier inside a CID tells a consumer how the addressed
//! bytes are encoded (paper §2.1, Figure 1: "protobuf, json, cbor, etc.").
//! We carry the subset of the registry relevant to IPFS data and key
//! material, plus the multihash function codes (the registry is shared).

use crate::{Error, Result};

/// Content-encoding codes from the multicodec registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Multicodec {
    /// `0x55` — raw binary block.
    Raw,
    /// `0x70` — MerkleDAG protobuf (UnixFS; the CIDv0 implied codec).
    DagPb,
    /// `0x71` — MerkleDAG CBOR.
    DagCbor,
    /// `0x0129` — MerkleDAG JSON.
    DagJson,
    /// `0x72` — libp2p public key (used by PeerIDs / IPNS keys).
    Libp2pKey,
    /// `0x51` — plain CBOR.
    Cbor,
    /// `0x0200` — plain JSON.
    Json,
    /// Any other registered code we pass through without interpretation.
    Other(u64),
}

impl Multicodec {
    /// The numeric registry code.
    pub fn code(self) -> u64 {
        match self {
            Multicodec::Raw => 0x55,
            Multicodec::DagPb => 0x70,
            Multicodec::DagCbor => 0x71,
            Multicodec::DagJson => 0x0129,
            Multicodec::Libp2pKey => 0x72,
            Multicodec::Cbor => 0x51,
            Multicodec::Json => 0x0200,
            Multicodec::Other(c) => c,
        }
    }

    /// Maps a registry code to a codec. Unknown codes are preserved as
    /// [`Multicodec::Other`] so that CIDs with exotic codecs still round-trip.
    /// A code travels as a varint, so one above [`crate::varint::MAX_VALUE`]
    /// cannot be encoded (decoded CIDs never carry one).
    pub fn from_code(code: u64) -> Multicodec {
        match code {
            0x55 => Multicodec::Raw,
            0x70 => Multicodec::DagPb,
            0x71 => Multicodec::DagCbor,
            0x0129 => Multicodec::DagJson,
            0x72 => Multicodec::Libp2pKey,
            0x51 => Multicodec::Cbor,
            0x0200 => Multicodec::Json,
            other => Multicodec::Other(other),
        }
    }

    /// The canonical registry name.
    pub fn name(self) -> &'static str {
        match self {
            Multicodec::Raw => "raw",
            Multicodec::DagPb => "dag-pb",
            Multicodec::DagCbor => "dag-cbor",
            Multicodec::DagJson => "dag-json",
            Multicodec::Libp2pKey => "libp2p-key",
            Multicodec::Cbor => "cbor",
            Multicodec::Json => "json",
            Multicodec::Other(_) => "unknown",
        }
    }

    /// Parses a canonical registry name.
    pub fn from_name(name: &str) -> Result<Multicodec> {
        Ok(match name {
            "raw" => Multicodec::Raw,
            "dag-pb" => Multicodec::DagPb,
            "dag-cbor" => Multicodec::DagCbor,
            "dag-json" => Multicodec::DagJson,
            "libp2p-key" => Multicodec::Libp2pKey,
            "cbor" => Multicodec::Cbor,
            "json" => Multicodec::Json,
            _ => return Err(Error::UnknownCodec(u64::MAX)),
        })
    }
}

impl core::fmt::Display for Multicodec {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Multicodec::Other(c) => write!(f, "codec-0x{c:x}"),
            other => f.write_str(other.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_match_registry() {
        assert_eq!(Multicodec::Raw.code(), 0x55);
        assert_eq!(Multicodec::DagPb.code(), 0x70);
        assert_eq!(Multicodec::DagCbor.code(), 0x71);
        assert_eq!(Multicodec::Libp2pKey.code(), 0x72);
    }

    #[test]
    fn roundtrip_all_known() {
        for codec in [
            Multicodec::Raw,
            Multicodec::DagPb,
            Multicodec::DagCbor,
            Multicodec::DagJson,
            Multicodec::Libp2pKey,
            Multicodec::Cbor,
            Multicodec::Json,
        ] {
            assert_eq!(Multicodec::from_code(codec.code()), codec);
            assert_eq!(Multicodec::from_name(codec.name()).unwrap(), codec);
        }
    }

    #[test]
    fn unknown_codes_preserved() {
        let c = Multicodec::from_code(0xb201);
        assert_eq!(c, Multicodec::Other(0xb201));
        assert_eq!(c.code(), 0xb201);
    }
}
