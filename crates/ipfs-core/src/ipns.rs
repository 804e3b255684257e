//! IPNS: mutable naming over immutable content (paper §3.3).
//!
//! "IPFS provides the option of publishing content based on the hash of
//! the publisher's public key ... Those, so called InterPlanetary Name
//! System (IPNS) records, map the CID of the publisher's public key to
//! another CID signed by the corresponding private key. This way, content
//! can be updated and obtain a different CID, but an immutable reference
//! is created and used."
//!
//! A record carries a monotonically increasing sequence number so that
//! resolvers converge on the newest version, and a signature binding
//! (value, sequence, validity) to the publisher's key.

use multiformats::{varint, Cid, Keypair, PeerId, PublicKey, Signature};
use simnet::{SimDuration, SimTime};
use std::collections::HashMap;

/// Default record validity window (go-ipfs: 24 h).
pub const IPNS_VALIDITY: SimDuration = SimDuration::from_hours(24);

/// A signed IPNS record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IpnsRecord {
    /// The name: the publisher's PeerID (hash of its public key).
    pub name: PeerId,
    /// The publisher's public key (needed to verify; real IPNS embeds it
    /// the same way for non-inlineable keys).
    pub public_key: PublicKey,
    /// The CID the name currently points at.
    pub value: Cid,
    /// Monotonic sequence number; higher wins.
    pub sequence: u64,
    /// When the record was created.
    pub created_at: SimTime,
    /// How long the record stays valid.
    pub validity: SimDuration,
    /// Signature over (value, sequence, validity).
    pub signature: Signature,
}

impl IpnsRecord {
    /// Creates and signs a record with `keypair`.
    pub fn sign(
        keypair: &Keypair,
        value: Cid,
        sequence: u64,
        created_at: SimTime,
        validity: SimDuration,
    ) -> IpnsRecord {
        let payload = Self::payload(&value, sequence, validity);
        IpnsRecord {
            name: keypair.peer_id(),
            public_key: keypair.public(),
            value,
            sequence,
            created_at,
            validity,
            signature: keypair.sign(&payload),
        }
    }

    fn payload(value: &Cid, sequence: u64, validity: SimDuration) -> Vec<u8> {
        let mut out = b"ipns-record:".to_vec();
        out.extend_from_slice(&value.to_bytes());
        out.extend_from_slice(&sequence.to_be_bytes());
        out.extend_from_slice(&validity.as_nanos().to_be_bytes());
        out
    }

    /// Validates the record at time `now`: the key must match the name
    /// (self-certification), the signature must verify, and the record
    /// must not have expired.
    pub fn validate(&self, now: SimTime) -> Result<(), IpnsError> {
        if !self.name.certifies(&self.public_key) {
            return Err(IpnsError::KeyMismatch);
        }
        let payload = Self::payload(&self.value, self.sequence, self.validity);
        self.public_key.verify(&payload, &self.signature).map_err(|_| IpnsError::BadSignature)?;
        if now.since(self.created_at) >= self.validity {
            return Err(IpnsError::Expired);
        }
        Ok(())
    }
}

impl IpnsRecord {
    /// Serializes the record to the opaque byte form that travels through
    /// the DHT's PUT_VALUE/GET_VALUE (§3.3). Layout:
    /// `name-mh | pubkey(32) | cid | seq | created_ns | validity_ns | sig(32)`,
    /// each variable field varint-length-prefixed.
    ///
    /// # Panics
    ///
    /// If the sequence number, creation time or validity (in nanoseconds)
    /// exceeds [`varint::MAX_VALUE`], which [`IpnsRecord::decode`] could not
    /// read back. 2^63 ns is 292 years, and decoded records never carry one.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(160);
        let name = self.name.to_bytes();
        varint::encode(name.len() as u64, &mut out);
        out.extend_from_slice(&name);
        out.extend_from_slice(&self.public_key.0);
        let cid = self.value.to_bytes();
        varint::encode(cid.len() as u64, &mut out);
        out.extend_from_slice(&cid);
        varint::encode(self.sequence, &mut out);
        varint::encode(self.created_at.as_nanos(), &mut out);
        varint::encode(self.validity.as_nanos(), &mut out);
        out.extend_from_slice(&self.signature.0);
        out
    }

    /// Parses the byte form back into a record (no validation — call
    /// [`IpnsRecord::validate`] after).
    pub fn decode(bytes: &[u8]) -> Option<IpnsRecord> {
        let mut s = bytes;
        let name_len = varint::take(&mut s).ok()? as usize;
        if s.len() < name_len {
            return None;
        }
        let name =
            PeerId::from_multihash(multiformats::Multihash::from_bytes(&s[..name_len]).ok()?);
        s = &s[name_len..];
        if s.len() < 32 {
            return None;
        }
        let mut pk = [0u8; 32];
        pk.copy_from_slice(&s[..32]);
        s = &s[32..];
        let cid_len = varint::take(&mut s).ok()? as usize;
        if s.len() < cid_len {
            return None;
        }
        let value = Cid::from_bytes(&s[..cid_len]).ok()?;
        s = &s[cid_len..];
        let sequence = varint::take(&mut s).ok()?;
        let created = varint::take(&mut s).ok()?;
        let validity = varint::take(&mut s).ok()?;
        if s.len() != 32 {
            return None;
        }
        let mut sig = [0u8; 32];
        sig.copy_from_slice(s);
        Some(IpnsRecord {
            name,
            public_key: PublicKey(pk),
            value,
            sequence,
            created_at: SimTime(created),
            validity: SimDuration::from_nanos(validity),
            signature: Signature(sig),
        })
    }
}

/// The DHT value selector for IPNS (plugged into
/// `kademlia::DhtConfig::value_selector`): a new record replaces a stored
/// one only if it decodes, its key matches its name, its signature
/// verifies, and its sequence number is strictly higher (or the stored
/// bytes are garbage).
pub fn ipns_value_selector(new: &[u8], old: &[u8]) -> bool {
    let Some(new_rec) = IpnsRecord::decode(new) else {
        return false;
    };
    // Structural validity (signature + key binding); expiry is judged at
    // resolve time, not store time.
    if !new_rec.name.certifies(&new_rec.public_key) {
        return false;
    }
    if new_rec
        .public_key
        .verify(
            &signable_payload(&new_rec.value, new_rec.sequence, new_rec.validity),
            &new_rec.signature,
        )
        .is_err()
    {
        return false;
    }
    match IpnsRecord::decode(old) {
        Some(old_rec) => new_rec.sequence > old_rec.sequence,
        None => true,
    }
}

fn signable_payload(value: &Cid, sequence: u64, validity: SimDuration) -> Vec<u8> {
    // Mirror of IpnsRecord::payload (kept private there).
    let mut out = b"ipns-record:".to_vec();
    out.extend_from_slice(&value.to_bytes());
    out.extend_from_slice(&sequence.to_be_bytes());
    out.extend_from_slice(&validity.as_nanos().to_be_bytes());
    out
}

/// Validation failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IpnsError {
    /// The embedded key does not hash to the record's name.
    KeyMismatch,
    /// The signature does not verify.
    BadSignature,
    /// The record's validity window has passed.
    Expired,
    /// A stored record has a sequence number >= the offered one.
    SequenceTooOld,
}

impl core::fmt::Display for IpnsError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            IpnsError::KeyMismatch => write!(f, "public key does not match IPNS name"),
            IpnsError::BadSignature => write!(f, "bad IPNS record signature"),
            IpnsError::Expired => write!(f, "IPNS record expired"),
            IpnsError::SequenceTooOld => write!(f, "IPNS record sequence is stale"),
        }
    }
}

impl std::error::Error for IpnsError {}

/// Store of the best-known record per name (kept by DHT servers near the
/// name's key, and by resolvers as a cache).
#[derive(Debug, Clone, Default)]
pub struct IpnsStore {
    records: HashMap<PeerId, IpnsRecord>,
}

impl IpnsStore {
    /// Creates an empty store.
    pub fn new() -> IpnsStore {
        IpnsStore::default()
    }

    /// Accepts a record if it validates and is newer than what is stored.
    pub fn put(&mut self, record: IpnsRecord, now: SimTime) -> Result<(), IpnsError> {
        record.validate(now)?;
        if let Some(existing) = self.records.get(&record.name) {
            if existing.sequence >= record.sequence {
                return Err(IpnsError::SequenceTooOld);
            }
        }
        self.records.insert(record.name.clone(), record);
        Ok(())
    }

    /// Resolves a name to its current record, dropping it if expired.
    pub fn resolve(&mut self, name: &PeerId, now: SimTime) -> Option<&IpnsRecord> {
        let expired = match self.records.get(name) {
            Some(r) => r.validate(now).is_err(),
            None => return None,
        };
        if expired {
            self.records.remove(name);
            return None;
        }
        self.records.get(name)
    }

    /// Number of names stored.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cid(n: u8) -> Cid {
        Cid::from_raw_data(&[n])
    }

    #[test]
    fn sign_and_validate() {
        let kp = Keypair::from_seed(1);
        let rec = IpnsRecord::sign(&kp, cid(1), 1, SimTime::ZERO, IPNS_VALIDITY);
        assert_eq!(rec.validate(SimTime::ZERO), Ok(()));
        assert_eq!(rec.name, kp.peer_id());
    }

    #[test]
    fn tampered_value_rejected() {
        let kp = Keypair::from_seed(1);
        let mut rec = IpnsRecord::sign(&kp, cid(1), 1, SimTime::ZERO, IPNS_VALIDITY);
        rec.value = cid(2);
        assert_eq!(rec.validate(SimTime::ZERO), Err(IpnsError::BadSignature));
    }

    #[test]
    fn wrong_key_rejected() {
        let kp = Keypair::from_seed(1);
        let other = Keypair::from_seed(2);
        let mut rec = IpnsRecord::sign(&kp, cid(1), 1, SimTime::ZERO, IPNS_VALIDITY);
        rec.public_key = other.public();
        assert_eq!(rec.validate(SimTime::ZERO), Err(IpnsError::KeyMismatch));
    }

    #[test]
    fn expiry_enforced() {
        let kp = Keypair::from_seed(1);
        let rec = IpnsRecord::sign(&kp, cid(1), 1, SimTime::ZERO, SimDuration::from_hours(1));
        let later = SimTime::ZERO + SimDuration::from_hours(2);
        assert_eq!(rec.validate(later), Err(IpnsError::Expired));
    }

    #[test]
    fn store_prefers_newer_sequence() {
        let kp = Keypair::from_seed(1);
        let mut store = IpnsStore::new();
        let v1 = IpnsRecord::sign(&kp, cid(1), 1, SimTime::ZERO, IPNS_VALIDITY);
        let v2 = IpnsRecord::sign(&kp, cid(2), 2, SimTime::ZERO, IPNS_VALIDITY);
        store.put(v1.clone(), SimTime::ZERO).unwrap();
        store.put(v2.clone(), SimTime::ZERO).unwrap();
        assert_eq!(store.resolve(&kp.peer_id(), SimTime::ZERO).unwrap().value, cid(2));
        // Replaying the older record is rejected.
        assert_eq!(store.put(v1, SimTime::ZERO), Err(IpnsError::SequenceTooOld));
    }

    #[test]
    fn mutable_pointer_immutable_name() {
        // The §3.3 property: the name never changes while the value does.
        let kp = Keypair::from_seed(7);
        let mut store = IpnsStore::new();
        for seq in 1..=5u64 {
            let rec = IpnsRecord::sign(&kp, cid(seq as u8), seq, SimTime::ZERO, IPNS_VALIDITY);
            store.put(rec, SimTime::ZERO).unwrap();
            let resolved = store.resolve(&kp.peer_id(), SimTime::ZERO).unwrap();
            assert_eq!(resolved.name, kp.peer_id(), "name is stable");
            assert_eq!(resolved.value, cid(seq as u8), "value tracks updates");
        }
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn resolve_drops_expired() {
        let kp = Keypair::from_seed(1);
        let mut store = IpnsStore::new();
        let rec = IpnsRecord::sign(&kp, cid(1), 1, SimTime::ZERO, SimDuration::from_hours(1));
        store.put(rec, SimTime::ZERO).unwrap();
        assert!(store.resolve(&kp.peer_id(), SimTime::ZERO).is_some());
        let later = SimTime::ZERO + SimDuration::from_hours(3);
        assert!(store.resolve(&kp.peer_id(), later).is_none());
        assert!(store.is_empty());
    }

    /// A signed record from a seed: its key, value, sequence, creation time
    /// and validity all vary, each below the 63-bit varint limit.
    fn record_of(seed: u64) -> IpnsRecord {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let kp = Keypair::from_seed(next());
        let value = Cid::from_raw_data(&next().to_le_bytes());
        let created_at = SimTime(next() >> (1 + next() % 63));
        let validity = SimDuration::from_nanos(next() >> (1 + next() % 63));
        IpnsRecord::sign(&kp, value, next() >> (1 + next() % 63), created_at, validity)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn decode_never_panics_on_arbitrary_bytes(
            bytes in proptest::collection::vec(proptest::any::<u8>(), 0..256)
        ) {
            let _ = IpnsRecord::decode(&bytes);
        }

        #[test]
        fn decode_never_panics_on_mutated_records(
            seed in proptest::any::<u64>(),
            edits in proptest::collection::vec(
                (proptest::any::<usize>(), proptest::any::<u8>()), 1..6),
            cut in proptest::any::<usize>(),
        ) {
            // Mutations of a valid record get past the name and key, so
            // they reach the CID, varint and signature parsers.
            let mut bytes = record_of(seed).encode();
            for (at, byte) in edits {
                let at = at % bytes.len();
                bytes[at] = byte;
            }
            bytes.truncate(cut % (bytes.len() + 1));
            if let Some(rec) = IpnsRecord::decode(&bytes) {
                proptest::prop_assert_eq!(IpnsRecord::decode(&rec.encode()), Some(rec));
            }
        }

        #[test]
        fn decode_encode_decode_roundtrips(seed in proptest::any::<u64>()) {
            let rec = record_of(seed);
            let bytes = rec.encode();
            let back = IpnsRecord::decode(&bytes).unwrap();
            proptest::prop_assert_eq!(&back, &rec);
            proptest::prop_assert_eq!(back.encode(), bytes);
            proptest::prop_assert_eq!(back.validate(back.created_at), rec.validate(rec.created_at));
        }
    }
}
