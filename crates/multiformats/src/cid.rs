//! Content Identifiers (CIDs), versions 0 and 1.
//!
//! A CID is the base primitive that decouples a content name from its
//! storage location (paper §2.1, Figure 1). A CIDv1 is
//! `<multibase prefix> ( <varint version> <varint multicodec> <multihash> )`;
//! a CIDv0 is the bare sha2-256 multihash rendered in base58btc (always
//! starting with `Qm`), with dag-pb implied.

use crate::{base, varint, Error, Multibase, Multicodec, Multihash, Result};

/// CID version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Version {
    /// Legacy CIDv0: bare base58btc multihash, implied dag-pb + sha2-256.
    V0,
    /// CIDv1: explicit version, codec, and multibase.
    V1,
}

/// A Content Identifier.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Cid {
    version: Version,
    codec: Multicodec,
    hash: Multihash,
}

impl Cid {
    /// Creates a CIDv1 from a codec and multihash.
    pub fn new_v1(codec: Multicodec, hash: Multihash) -> Cid {
        Cid { version: Version::V1, codec, hash }
    }

    /// Creates a CIDv0. Only sha2-256 multihashes are allowed (and the codec
    /// is implicitly dag-pb).
    pub fn new_v0(hash: Multihash) -> Result<Cid> {
        if hash.code() != crate::MultihashCode::Sha2_256.code() || hash.digest().len() != 32 {
            return Err(Error::InvalidCidV0);
        }
        Ok(Cid { version: Version::V0, codec: Multicodec::DagPb, hash })
    }

    /// Convenience: CIDv1/raw of `data` hashed with sha2-256 — the form used
    /// for leaf chunks throughout this workspace.
    pub fn from_raw_data(data: &[u8]) -> Cid {
        Cid::new_v1(Multicodec::Raw, Multihash::sha2_256(data))
    }

    /// Convenience: CIDv1/dag-pb of an encoded DAG node.
    pub fn from_dag_node(encoded: &[u8]) -> Cid {
        Cid::new_v1(Multicodec::DagPb, Multihash::sha2_256(encoded))
    }

    /// The CID version.
    pub fn version(&self) -> Version {
        self.version
    }

    /// The content codec.
    pub fn codec(&self) -> Multicodec {
        self.codec
    }

    /// The multihash.
    pub fn hash(&self) -> &Multihash {
        &self.hash
    }

    /// Serializes to binary. CIDv0 is the bare multihash; CIDv1 is
    /// `<version><codec><multihash>`.
    pub fn to_bytes(&self) -> Vec<u8> {
        match self.version {
            Version::V0 => self.hash.to_bytes(),
            Version::V1 => {
                let mut out = Vec::with_capacity(4 + 34);
                varint::encode(1, &mut out);
                varint::encode(self.codec.code(), &mut out);
                out.extend_from_slice(&self.hash.to_bytes());
                out
            }
        }
    }

    /// Parses a binary CID (v0 or v1).
    pub fn from_bytes(bytes: &[u8]) -> Result<Cid> {
        // CIDv0 heuristic from the spec: 34 bytes starting 0x12 0x20 is a
        // bare sha2-256 multihash.
        if bytes.len() == 34 && bytes[0] == 0x12 && bytes[1] == 0x20 {
            return Cid::new_v0(Multihash::from_bytes(bytes)?);
        }
        let mut slice = bytes;
        let version = varint::take(&mut slice)?;
        match version {
            1 => {
                let codec = Multicodec::from_code(varint::take(&mut slice)?);
                let hash = Multihash::read(&mut slice)?;
                if !slice.is_empty() {
                    return Err(Error::InvalidVarint);
                }
                Ok(Cid::new_v1(codec, hash))
            }
            other => Err(Error::UnknownCidVersion(other)),
        }
    }

    /// Renders the CID as a string: base58btc for v0, the requested
    /// multibase for v1.
    pub fn to_string_of_base(&self, mb: Multibase) -> String {
        match self.version {
            Version::V0 => Multibase::Base58Btc.encode_raw(&self.to_bytes()),
            Version::V1 => mb.encode(&self.to_bytes()),
        }
    }

    /// Parses a CID string: either a bare `Qm...` CIDv0 or a multibase CIDv1.
    pub fn parse(s: &str) -> Result<Cid> {
        if s.len() == 46 && s.starts_with("Qm") {
            let bytes = Multibase::Base58Btc.decode_raw(s)?;
            return Cid::from_bytes(&bytes);
        }
        let (_, bytes) = base::decode(s)?;
        Cid::from_bytes(&bytes)
    }

    /// Upgrades a CIDv0 to the equivalent CIDv1 (same hash, dag-pb codec).
    /// CIDv1 inputs are returned unchanged.
    pub fn into_v1(self) -> Cid {
        Cid { version: Version::V1, codec: self.codec, hash: self.hash }
    }

    /// The 32-byte SHA-256 of the *binary CID*, which is the key under which
    /// this CID is indexed in the DHT keyspace (paper §2.3: "CIDs and
    /// PeerIDs reside in a common 256-bit key space by using the SHA256
    /// hashes of their binary representations as indexing keys").
    pub fn dht_key(&self) -> [u8; 32] {
        // Streams the fields `to_bytes` would serialize: no allocation per
        // key.
        let mut hasher = crate::Sha256::new();
        if self.version == Version::V1 {
            for field in [1, self.codec.code()] {
                let (buf, n) = varint::encode_array(field);
                hasher.update(&buf[..n]);
            }
        }
        self.hash.hash_wire_format(&mut hasher);
        hasher.finalize()
    }
}

impl Default for Cid {
    /// The CIDv1/raw of the empty byte string — a convenient, well-defined
    /// placeholder (it is the CID an empty file imports to).
    fn default() -> Self {
        Cid::from_raw_data(b"")
    }
}

impl core::fmt::Display for Cid {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.to_string_of_base(Multibase::Base32))
    }
}

impl core::fmt::Debug for Cid {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = self.to_string();
        let head = &s[..s.len().min(16)];
        write!(f, "Cid({head}…)")
    }
}

impl core::str::FromStr for Cid {
    type Err = Error;
    fn from_str(s: &str) -> Result<Cid> {
        Cid::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v1_roundtrip_bytes_and_string() {
        let cid = Cid::from_raw_data(b"hello world");
        assert_eq!(cid.version(), Version::V1);
        assert_eq!(cid.codec(), Multicodec::Raw);

        let bytes = cid.to_bytes();
        assert_eq!(Cid::from_bytes(&bytes).unwrap(), cid);

        let s = cid.to_string();
        assert!(s.starts_with('b'), "CIDv1 default base32: {s}");
        assert_eq!(Cid::parse(&s).unwrap(), cid);
    }

    #[test]
    fn known_cid_v1_raw() {
        // CIDv1/raw/sha2-256 of "hello world" — cross-checked against kubo:
        // `ipfs add --raw-leaves --cid-version=1`.
        let cid = Cid::from_raw_data(b"hello world");
        assert_eq!(cid.to_string(), "bafkreifzjut3te2nhyekklss27nh3k72ysco7y32koao5eei66wof36n5e");
    }

    #[test]
    fn v0_roundtrip() {
        let mh = Multihash::sha2_256(b"some dag-pb node");
        let cid = Cid::new_v0(mh).unwrap();
        let s = cid.to_string_of_base(Multibase::Base32);
        assert!(s.starts_with("Qm"), "CIDv0 renders base58btc: {s}");
        assert_eq!(s.len(), 46);
        assert_eq!(Cid::parse(&s).unwrap(), cid);
        assert_eq!(Cid::from_bytes(&cid.to_bytes()).unwrap(), cid);
    }

    #[test]
    fn v0_rejects_non_sha256() {
        let mh = Multihash::identity(b"short");
        assert_eq!(Cid::new_v0(mh), Err(Error::InvalidCidV0));
    }

    #[test]
    fn v0_to_v1_preserves_hash() {
        let mh = Multihash::sha2_256(b"node");
        let v0 = Cid::new_v0(mh.clone()).unwrap();
        let v1 = v0.clone().into_v1();
        assert_eq!(v1.version(), Version::V1);
        assert_eq!(v1.codec(), Multicodec::DagPb);
        assert_eq!(v1.hash(), &mh);
        assert_ne!(v0.to_string(), v1.to_string());
    }

    #[test]
    fn parse_all_bases() {
        let cid = Cid::from_raw_data(b"multi-base me");
        for mb in [Multibase::Base16, Multibase::Base32, Multibase::Base58Btc, Multibase::Base64] {
            let s = cid.to_string_of_base(mb);
            assert_eq!(Cid::parse(&s).unwrap(), cid, "{mb:?}");
        }
    }

    #[test]
    fn distinct_content_distinct_cid() {
        assert_ne!(Cid::from_raw_data(b"a"), Cid::from_raw_data(b"b"));
        // Same data, different codec => different CID.
        let mh = Multihash::sha2_256(b"a");
        assert_ne!(Cid::new_v1(Multicodec::Raw, mh.clone()), Cid::new_v1(Multicodec::DagPb, mh));
    }

    #[test]
    fn dht_key_is_sha256_of_binary_cid() {
        let v1 = Cid::from_raw_data(b"dht");
        let v0 = Cid::new_v0(Multihash::sha2_256(b"dht")).unwrap();
        // The widest fields the 9-byte varint rule allows.
        let wide =
            Cid::new_v1(Multicodec::from_code(varint::MAX_VALUE), Multihash::sha2_512(b"dht"));
        for cid in [v1, v0, wide] {
            assert_eq!(cid.dht_key(), crate::sha256::digest(&cid.to_bytes()));
        }
    }

    #[test]
    fn rejects_bad_version() {
        let mut bytes = Vec::new();
        varint::encode(7, &mut bytes);
        varint::encode(0x55, &mut bytes);
        bytes.extend_from_slice(&Multihash::sha2_256(b"x").to_bytes());
        assert_eq!(Cid::from_bytes(&bytes), Err(Error::UnknownCidVersion(7)));
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut bytes = Cid::from_raw_data(b"x").to_bytes();
        bytes.push(0);
        assert!(Cid::from_bytes(&bytes).is_err());
    }

    /// Arbitrary bytes never panic the decoder, and every value it accepts
    /// re-encodes to bytes that decode back to an equal value. Valid v0 and
    /// v1 encodings with one byte overwritten reach the `Ok` path that
    /// random bytes seldom do.
    #[test]
    fn proptest_from_bytes_survives_arbitrary_input() {
        use proptest::prelude::*;
        let hash = Multihash::sha2_256(b"valid");
        let v0 = Cid::new_v0(hash.clone()).unwrap().to_bytes();
        let v1 = Cid::new_v1(Multicodec::DagPb, hash).to_bytes();
        proptest!(ProptestConfig::with_cases(256), |(
            bytes in proptest::collection::vec(any::<u8>(), 0..96),
            at in any::<usize>(),
            byte in any::<u8>(),
        )| {
            let (mut m0, mut m1) = (v0.clone(), v1.clone());
            m0[at % v0.len()] = byte;
            m1[at % v1.len()] = byte;
            for input in [&bytes, &m0, &m1] {
                if let Ok(cid) = Cid::from_bytes(input) {
                    prop_assert_eq!(Cid::from_bytes(&cid.to_bytes()).unwrap(), cid);
                }
            }
        });
    }
}
