//! PeerIDs and the simulation keypair scheme.
//!
//! Every IPFS peer is identified by its **PeerID**, the multihash of its
//! public key (paper §2.2). The PeerID is used to (a) verify that the key
//! securing a channel is the key that identifies the peer, and (b) sign IPNS
//! records (paper §3.3).
//!
//! # Security note on the keypair scheme
//!
//! go-ipfs uses Ed25519/RSA. This reproduction substitutes a **deterministic
//! hash-based scheme** (`sign(sk, m) = SHA256(pk ‖ m)` with
//! `pk = SHA256("ipfs-repro/pub" ‖ sk)`): it preserves the *semantics* every
//! experiment in the paper relies on — stable identity derivation,
//! deterministic sign/verify, corruption detection — but it is **not
//! cryptographically secure** (anyone holding a public key can forge). No
//! measured quantity in the paper depends on signature hardness; see
//! DESIGN.md §2 for the substitution rationale.

use crate::{Error, Multibase, Multihash, Result, Sha256};

/// Domain-separation prefixes for key derivation and signing.
const PUB_DOMAIN: &[u8] = b"ipfs-repro/pub/v1";
const SIG_DOMAIN: &[u8] = b"ipfs-repro/sig/v1";

/// A peer's public key (32 bytes, derived from the secret key).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct PublicKey(pub [u8; 32]);

/// A detached signature over a message.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Signature(pub [u8; 32]);

/// A secret/public keypair for one peer.
#[derive(Clone)]
pub struct Keypair {
    secret: [u8; 32],
    public: PublicKey,
}

impl Keypair {
    /// Derives a keypair deterministically from 32 bytes of secret material.
    pub fn from_secret(secret: [u8; 32]) -> Keypair {
        let mut h = Sha256::new();
        h.update(PUB_DOMAIN);
        h.update(&secret);
        Keypair { secret, public: PublicKey(h.finalize()) }
    }

    /// Derives a keypair from a simulation seed. Distinct seeds yield
    /// distinct, stable identities — used everywhere in the simulator.
    pub fn from_seed(seed: u64) -> Keypair {
        let mut secret = [0u8; 32];
        secret[..8].copy_from_slice(&seed.to_be_bytes());
        secret[8..16].copy_from_slice(&seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).to_be_bytes());
        Keypair::from_secret(secret)
    }

    /// The public key.
    pub fn public(&self) -> PublicKey {
        self.public
    }

    /// The PeerID identifying this keypair: the multihash of the public key
    /// (identity multihash, since the key is small — mirroring how libp2p
    /// inlines Ed25519 keys).
    pub fn peer_id(&self) -> PeerId {
        PeerId::from_public_key(&self.public)
    }

    /// Signs `msg`.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        let mut h = Sha256::new();
        h.update(SIG_DOMAIN);
        h.update(&self.public.0);
        h.update(msg);
        // Bind the secret length so the scheme is at least not a plain MAC
        // of public data in the simulation's own logs.
        h.update(&[self.secret.len() as u8]);
        Signature(h.finalize())
    }
}

impl PublicKey {
    /// Verifies `sig` over `msg` under this public key.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> Result<()> {
        let mut h = Sha256::new();
        h.update(SIG_DOMAIN);
        h.update(&self.0);
        h.update(msg);
        h.update(&[32u8]);
        if h.finalize() == sig.0 {
            Ok(())
        } else {
            Err(Error::BadSignature)
        }
    }

    /// Serializes the key (plain 32 bytes).
    pub fn to_bytes(&self) -> [u8; 32] {
        self.0
    }
}

impl core::fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "PublicKey({:02x}{:02x}{:02x}…)", self.0[0], self.0[1], self.0[2])
    }
}

impl core::fmt::Debug for Signature {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Signature({:02x}{:02x}…)", self.0[0], self.0[1])
    }
}

/// A peer identifier: the multihash of the peer's public key.
///
/// Rendered base58btc (`Qm...` for sha2-256-hashed keys, `12D3...`-style for
/// identity-inlined keys in real libp2p; here we hash, so IDs render `Qm...`
/// like the paper's Figure 2 example).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PeerId(Multihash);

impl PeerId {
    /// Derives a PeerID from a public key (sha2-256 of the key bytes).
    pub fn from_public_key(pk: &PublicKey) -> PeerId {
        PeerId(Multihash::sha2_256(&pk.0))
    }

    /// Wraps an existing multihash as a PeerID.
    pub fn from_multihash(mh: Multihash) -> PeerId {
        PeerId(mh)
    }

    /// The underlying multihash.
    pub fn as_multihash(&self) -> &Multihash {
        &self.0
    }

    /// Serializes the PeerID (its multihash bytes).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.0.to_bytes()
    }

    /// Parses a base58btc PeerID string.
    pub fn parse(s: &str) -> Result<PeerId> {
        let bytes = Multibase::Base58Btc.decode_raw(s)?;
        Ok(PeerId(Multihash::from_bytes(&bytes)?))
    }

    /// Verifies that `pk` is the key this PeerID names — the
    /// self-certification step performed when a secure channel is
    /// established (paper §2.2).
    pub fn certifies(&self, pk: &PublicKey) -> bool {
        &PeerId::from_public_key(pk) == self
    }

    /// The 32-byte DHT indexing key: SHA256 of the PeerID bytes, putting
    /// peers and CIDs in one 256-bit keyspace (paper §2.3).
    pub fn dht_key(&self) -> [u8; 32] {
        let mut hasher = Sha256::new();
        self.0.hash_wire_format(&mut hasher);
        hasher.finalize()
    }
}

impl core::fmt::Display for PeerId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&Multibase::Base58Btc.encode_raw(&self.to_bytes()))
    }
}

impl core::fmt::Debug for PeerId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = self.to_string();
        write!(f, "PeerId({}…)", &s[..s.len().min(8)])
    }
}

impl core::str::FromStr for PeerId {
    type Err = Error;
    fn from_str(s: &str) -> Result<PeerId> {
        PeerId::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_determinism() {
        let a = Keypair::from_seed(42);
        let b = Keypair::from_seed(42);
        let c = Keypair::from_seed(43);
        assert_eq!(a.peer_id(), b.peer_id());
        assert_ne!(a.peer_id(), c.peer_id());
    }

    #[test]
    fn peer_id_renders_base58_qm() {
        let id = Keypair::from_seed(1).peer_id();
        let s = id.to_string();
        assert!(s.starts_with("Qm"), "sha2-256 PeerIDs start Qm: {s}");
        assert_eq!(s.len(), 46);
        assert_eq!(PeerId::parse(&s).unwrap(), id);
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = Keypair::from_seed(9);
        let sig = kp.sign(b"ipns record payload");
        assert!(kp.public().verify(b"ipns record payload", &sig).is_ok());
    }

    #[test]
    fn verify_rejects_tampered_message() {
        let kp = Keypair::from_seed(9);
        let sig = kp.sign(b"payload");
        assert_eq!(kp.public().verify(b"payloaX", &sig), Err(Error::BadSignature));
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let kp = Keypair::from_seed(9);
        let other = Keypair::from_seed(10);
        let sig = kp.sign(b"payload");
        assert_eq!(other.public().verify(b"payload", &sig), Err(Error::BadSignature));
    }

    #[test]
    fn self_certification() {
        let kp = Keypair::from_seed(5);
        let id = kp.peer_id();
        assert!(id.certifies(&kp.public()));
        assert!(!id.certifies(&Keypair::from_seed(6).public()));
    }

    #[test]
    fn dht_key_stable_and_distinct() {
        let a = Keypair::from_seed(1).peer_id();
        let b = Keypair::from_seed(2).peer_id();
        assert_eq!(a.dht_key(), crate::sha256::digest(&a.to_bytes()));
        assert_ne!(a.dht_key(), b.dht_key());
    }
}
