//! DAG nodes and their deterministic binary encoding.
//!
//! A node "combines all CIDs of its descendant nodes" (paper §2.1). Our wire
//! format is a compact dag-pb work-alike:
//!
//! ```text
//! node  := <varint link-count> link* <varint data-len> data
//! link  := <varint cid-len> cid-bytes <varint name-len> name <varint tsize>
//! ```
//!
//! Encoding is canonical (links in insertion order, minimal varints), so a
//! node's CID is stable across encode/decode round trips.

use crate::{Error, Result};
use bytes::Bytes;
use multiformats::{varint, Cid};

/// A named, sized link to a child node — the IPFS "link" triple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Link {
    /// The child's CID.
    pub cid: Cid,
    /// Optional UnixFS-style name (empty for file-internal links).
    pub name: String,
    /// Cumulative size in bytes of the subtree the child roots (`Tsize`).
    /// Encodes as a varint, so at most [`varint::MAX_VALUE`].
    pub tsize: u64,
}

/// A Merkle-DAG node: an ordered list of links plus an opaque data segment.
///
/// Leaf chunks are *not* wrapped in nodes — they are raw blocks addressed by
/// CIDv1/raw. `DagNode` is used for interior (branch) nodes and directory
/// objects.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DagNode {
    /// Links to children, in deterministic order.
    pub links: Vec<Link>,
    /// Opaque payload (UnixFS metadata in real IPFS; unused for plain files).
    pub data: Bytes,
}

impl DagNode {
    /// Creates a branch node over the given links.
    pub fn branch(links: Vec<Link>) -> DagNode {
        DagNode { links, data: Bytes::new() }
    }

    /// Encodes the node into its canonical binary form.
    ///
    /// # Panics
    ///
    /// If a link's `tsize` exceeds [`varint::MAX_VALUE`], which
    /// [`DagNode::decode`] could not read back. Decoded nodes never carry
    /// one, and the builder's sizes count the bytes of one payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len_estimate());
        varint::encode(self.links.len() as u64, &mut out);
        for link in &self.links {
            let cid_bytes = link.cid.to_bytes();
            varint::encode(cid_bytes.len() as u64, &mut out);
            out.extend_from_slice(&cid_bytes);
            varint::encode(link.name.len() as u64, &mut out);
            out.extend_from_slice(link.name.as_bytes());
            varint::encode(link.tsize, &mut out);
        }
        varint::encode(self.data.len() as u64, &mut out);
        out.extend_from_slice(&self.data);
        out
    }

    fn encoded_len_estimate(&self) -> usize {
        16 + self.links.iter().map(|l| 48 + l.name.len()).sum::<usize>() + self.data.len()
    }

    /// Decodes a node from its binary form, requiring full consumption.
    pub fn decode(bytes: &[u8]) -> Result<DagNode> {
        let mut slice = bytes;
        let count = varint::take(&mut slice).map_err(Error::InvalidNode)? as usize;
        // Guard: each link needs at least 3 bytes; reject absurd counts
        // before allocating.
        if count > slice.len() {
            return Err(Error::InvalidNode(multiformats::Error::UnexpectedEnd));
        }
        let mut links = Vec::with_capacity(count);
        for _ in 0..count {
            let cid_len = varint::take(&mut slice).map_err(Error::InvalidNode)? as usize;
            if slice.len() < cid_len {
                return Err(Error::InvalidNode(multiformats::Error::UnexpectedEnd));
            }
            let cid = Cid::from_bytes(&slice[..cid_len]).map_err(Error::InvalidNode)?;
            slice = &slice[cid_len..];
            let name_len = varint::take(&mut slice).map_err(Error::InvalidNode)? as usize;
            if slice.len() < name_len {
                return Err(Error::InvalidNode(multiformats::Error::UnexpectedEnd));
            }
            let name = String::from_utf8(slice[..name_len].to_vec())
                .map_err(|_| Error::InvalidNode(multiformats::Error::InvalidBaseLength))?;
            slice = &slice[name_len..];
            let tsize = varint::take(&mut slice).map_err(Error::InvalidNode)?;
            links.push(Link { cid, name, tsize });
        }
        let data_len = varint::take(&mut slice).map_err(Error::InvalidNode)? as usize;
        if slice.len() != data_len {
            return Err(Error::InvalidNode(multiformats::Error::UnexpectedEnd));
        }
        Ok(DagNode { links, data: Bytes::copy_from_slice(slice) })
    }

    /// The CID of this node (CIDv1 / dag-pb / sha2-256 over the encoding).
    pub fn cid(&self) -> Cid {
        Cid::from_dag_node(&self.encode())
    }

    /// Total size of the subtree this node roots: sum of child `tsize`s plus
    /// this node's own data payload.
    pub fn tsize(&self) -> u64 {
        self.links.iter().map(|l| l.tsize).sum::<u64>() + self.data.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(data: &[u8]) -> Link {
        Link { cid: Cid::from_raw_data(data), name: String::new(), tsize: data.len() as u64 }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let node = DagNode::branch(vec![leaf(b"one"), leaf(b"two"), leaf(b"three")]);
        let bytes = node.encode();
        assert_eq!(DagNode::decode(&bytes).unwrap(), node);
    }

    #[test]
    fn empty_node_roundtrip() {
        let node = DagNode::default();
        assert_eq!(DagNode::decode(&node.encode()).unwrap(), node);
        assert_eq!(node.tsize(), 0);
    }

    #[test]
    fn named_links_roundtrip() {
        let node = DagNode::branch(vec![
            Link { cid: Cid::from_raw_data(b"f1"), name: "file1.txt".into(), tsize: 2 },
            Link { cid: Cid::from_raw_data(b"f2"), name: "file2.txt".into(), tsize: 2 },
        ]);
        let back = DagNode::decode(&node.encode()).unwrap();
        assert_eq!(back.links[0].name, "file1.txt");
        assert_eq!(back, node);
    }

    #[test]
    fn cid_is_stable_and_content_sensitive() {
        let a = DagNode::branch(vec![leaf(b"x"), leaf(b"y")]);
        let b = DagNode::branch(vec![leaf(b"x"), leaf(b"y")]);
        let c = DagNode::branch(vec![leaf(b"y"), leaf(b"x")]); // order matters
        assert_eq!(a.cid(), b.cid());
        assert_ne!(a.cid(), c.cid());
    }

    #[test]
    fn tsize_accumulates() {
        let node = DagNode::branch(vec![leaf(b"aaaa"), leaf(b"bb")]);
        assert_eq!(node.tsize(), 6);
    }

    #[test]
    fn decode_rejects_truncation_everywhere() {
        let node = DagNode::branch(vec![leaf(b"one"), leaf(b"two")]);
        let bytes = node.encode();
        for cut in 1..bytes.len() {
            assert!(DagNode::decode(&bytes[..cut]).is_err(), "truncation at {cut} must fail");
        }
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut bytes = DagNode::branch(vec![leaf(b"one")]).encode();
        bytes.push(0xAB);
        assert!(DagNode::decode(&bytes).is_err());
    }

    /// A node from a seed: 0–7 links with names of 0–11 chars (some
    /// multi-byte) and sizes over the whole `u64` range (about one in eight
    /// past the 63-bit varint limit), plus 0–63 bytes of data.
    fn node_of(seed: u64) -> DagNode {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let links = (0..next() % 8)
            .map(|i| Link {
                cid: Cid::from_raw_data(&next().to_le_bytes()),
                name: (0..next() % 12)
                    .map(|j| ['a', 'z', '7', 'é', '🌍'][(i + j) as usize % 5])
                    .collect(),
                tsize: next() >> (next() % 64).saturating_sub(16),
            })
            .collect();
        let data: Vec<u8> = (0..next() % 64).map(|_| next() as u8).collect();
        DagNode { links, data: Bytes::from(data) }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        #[test]
        fn decode_never_panics_on_arbitrary_bytes(
            bytes in proptest::collection::vec(proptest::any::<u8>(), 0..256)
        ) {
            let _ = DagNode::decode(&bytes);
        }

        #[test]
        fn decode_never_panics_on_mutated_nodes(
            seed in proptest::any::<u64>(),
            edits in proptest::collection::vec(
                (proptest::any::<usize>(), proptest::any::<u8>()), 1..6),
            cut in proptest::any::<usize>(),
        ) {
            // Mutations of a valid encoding get past the first varint, so
            // they reach the link and data parsers that random bytes rarely do.
            let mut node = node_of(seed);
            for link in &mut node.links {
                link.tsize &= varint::MAX_VALUE;
            }
            let mut bytes = node.encode();
            for (at, byte) in edits {
                let at = at % bytes.len();
                bytes[at] = byte;
            }
            bytes.truncate(cut % (bytes.len() + 1));
            if let Ok(node) = DagNode::decode(&bytes) {
                proptest::prop_assert_eq!(node.encode(), bytes);
            }
        }

        #[test]
        fn decode_encode_decode_roundtrips(seed in proptest::any::<u64>()) {
            // Encode refuses exactly the sizes decode could not read back.
            let node = node_of(seed);
            let too_large = node.links.iter().any(|l| l.tsize > varint::MAX_VALUE);
            match std::panic::catch_unwind(|| node.encode()) {
                Err(_) => proptest::prop_assert!(too_large),
                Ok(bytes) => {
                    proptest::prop_assert!(!too_large);
                    let back = DagNode::decode(&bytes).unwrap();
                    proptest::prop_assert_eq!(&back, &node);
                    proptest::prop_assert_eq!(back.encode(), bytes);
                    proptest::prop_assert_eq!(back.cid(), node.cid());
                }
            }
        }
    }

    #[test]
    fn decode_rejects_absurd_link_count() {
        // varint claiming 2^40 links with a 3-byte body.
        let mut bytes = Vec::new();
        varint::encode(1 << 40, &mut bytes);
        bytes.extend_from_slice(&[0, 0, 0]);
        assert!(DagNode::decode(&bytes).is_err());
    }
}
