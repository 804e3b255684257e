//! Content-addressed archives (CAR-style DAG export/import).
//!
//! Real IPFS ships DAGs between nodes and pinning services as CAR files
//! (`.car`): a header naming the roots followed by length-prefixed
//! `(CID, block)` pairs. This module implements a compatible-in-spirit
//! format over our own primitives:
//!
//! ```text
//! archive := magic "IPFSCAR1" | <varint root-count> root*
//!          | ( <varint cid-len> cid <varint block-len> block )*
//! root    := <varint cid-len> cid
//! ```
//!
//! Import verifies every block against its CID before storing it — an
//! archive from an untrusted source cannot inject corrupt blocks.

use crate::blockstore::BlockStore;
use crate::resolver::Resolver;
use crate::{Error, Result};
use bytes::Bytes;
use multiformats::{varint, Cid};

/// Archive magic bytes.
const MAGIC: &[u8; 8] = b"IPFSCAR1";

/// Exports the DAGs rooted at `roots` from `store` into an archive.
/// Blocks shared between roots are emitted once.
pub fn export<S: BlockStore>(store: &mut S, roots: &[Cid]) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    varint::encode(roots.len() as u64, &mut out);
    for root in roots {
        let cid_bytes = root.to_bytes();
        varint::encode(cid_bytes.len() as u64, &mut out);
        out.extend_from_slice(&cid_bytes);
    }
    let mut emitted = std::collections::HashSet::new();
    for root in roots {
        let cids = Resolver::new(store).block_list(root)?;
        for cid in cids {
            if !emitted.insert(cid.clone()) {
                continue;
            }
            let block = store.get(&cid).ok_or_else(|| Error::BlockNotFound(cid.clone()))?;
            let cid_bytes = cid.to_bytes();
            varint::encode(cid_bytes.len() as u64, &mut out);
            out.extend_from_slice(&cid_bytes);
            varint::encode(block.len() as u64, &mut out);
            out.extend_from_slice(&block);
        }
    }
    Ok(out)
}

/// Summary of an import.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImportReport {
    /// The archive's declared roots.
    pub roots: Vec<Cid>,
    /// Blocks written to the store.
    pub blocks: usize,
    /// Total block bytes written.
    pub bytes: u64,
}

/// Imports an archive into `store`, verifying every block against its
/// CID. Fails on the first corrupt or malformed entry (nothing after it
/// is written; earlier valid blocks remain — they are correct by hash).
pub fn import<S: BlockStore>(store: &mut S, archive: &[u8]) -> Result<ImportReport> {
    let mut slice = archive;
    if slice.len() < MAGIC.len() || &slice[..MAGIC.len()] != MAGIC {
        return Err(Error::InvalidArchive("bad magic".into()));
    }
    slice = &slice[MAGIC.len()..];
    let take_cid = |s: &mut &[u8]| -> Result<Cid> {
        let len = varint::take(s).map_err(Error::InvalidNode)? as usize;
        if s.len() < len {
            return Err(Error::InvalidArchive("truncated CID".into()));
        }
        let cid = Cid::from_bytes(&s[..len]).map_err(Error::InvalidNode)?;
        *s = &s[len..];
        Ok(cid)
    };
    let root_count = varint::take(&mut slice).map_err(Error::InvalidNode)? as usize;
    if root_count > archive.len() {
        return Err(Error::InvalidArchive("absurd root count".into()));
    }
    let mut roots = Vec::with_capacity(root_count);
    for _ in 0..root_count {
        roots.push(take_cid(&mut slice)?);
    }
    let mut blocks = 0usize;
    let mut bytes = 0u64;
    while !slice.is_empty() {
        let cid = take_cid(&mut slice)?;
        let len = varint::take(&mut slice).map_err(Error::InvalidNode)? as usize;
        if slice.len() < len {
            return Err(Error::InvalidArchive("truncated block".into()));
        }
        let block = &slice[..len];
        slice = &slice[len..];
        if !cid.hash().verify(block) {
            return Err(Error::HashMismatch(cid));
        }
        store.put(cid, Bytes::copy_from_slice(block));
        blocks += 1;
        bytes += len as u64;
    }
    Ok(ImportReport { roots, blocks, bytes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blockstore::MemoryBlockStore;
    use crate::builder::{DagBuilder, DagLayout};
    use crate::chunker::FixedSizeChunker;

    fn sample(len: usize, seed: u8) -> Bytes {
        Bytes::from((0..len).map(|i| ((i * 37) as u8).wrapping_add(seed)).collect::<Vec<_>>())
    }

    fn build(store: &mut MemoryBlockStore, data: &Bytes) -> Cid {
        DagBuilder::new(store)
            .with_layout(DagLayout { fanout: 4 })
            .add_with_chunker(data, &FixedSizeChunker::new(256))
            .unwrap()
            .root
    }

    #[test]
    fn export_import_roundtrip() {
        let mut src = MemoryBlockStore::new();
        let data = sample(5000, 1);
        let root = build(&mut src, &data);
        let archive = export(&mut src, std::slice::from_ref(&root)).unwrap();

        let mut dst = MemoryBlockStore::new();
        let report = import(&mut dst, &archive).unwrap();
        assert_eq!(report.roots, vec![root.clone()]);
        assert!(report.blocks > 1);
        assert_eq!(Resolver::new(&mut dst).read_file(&root).unwrap(), data);
    }

    #[test]
    fn multi_root_dedup() {
        let mut src = MemoryBlockStore::new();
        // Two files sharing all but one chunk.
        let a = sample(2048, 2);
        let mut b_v = a.to_vec();
        b_v.extend_from_slice(&[0xFF; 256]);
        let b = Bytes::from(b_v);
        let ra = build(&mut src, &a);
        let rb = build(&mut src, &b);

        let both = export(&mut src, &[ra.clone(), rb.clone()]).unwrap();
        let only_a = export(&mut src, std::slice::from_ref(&ra)).unwrap();
        // Shared chunks are emitted once: the two-root archive is much
        // smaller than two single-root archives.
        assert!(both.len() < only_a.len() * 2);

        let mut dst = MemoryBlockStore::new();
        import(&mut dst, &both).unwrap();
        assert_eq!(Resolver::new(&mut dst).read_file(&ra).unwrap(), a);
        assert_eq!(Resolver::new(&mut dst).read_file(&rb).unwrap(), b);
    }

    /// A valid archive of one or two DAGs sized from `seed`.
    fn archive_of(seed: u64) -> Vec<u8> {
        let mut src = MemoryBlockStore::new();
        let roots: Vec<Cid> = (0..1 + seed % 2)
            .map(|i| build(&mut src, &sample((seed as usize >> 1) % 3000 + 1, (seed + i) as u8)))
            .collect();
        export(&mut src, &roots).unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn import_never_panics_on_arbitrary_bytes(
            body in proptest::collection::vec(proptest::any::<u8>(), 0..256),
            with_magic in proptest::any::<bool>(),
        ) {
            let mut bytes = if with_magic { MAGIC.to_vec() } else { Vec::new() };
            bytes.extend_from_slice(&body);
            let _ = import(&mut MemoryBlockStore::new(), &bytes);
        }

        #[test]
        fn import_never_panics_on_mutated_archives(
            seed in proptest::any::<u64>(),
            edits in proptest::collection::vec(
                (proptest::any::<usize>(), proptest::any::<u8>()), 1..6),
            cut in proptest::any::<usize>(),
        ) {
            let mut bytes = archive_of(seed);
            for (at, byte) in edits {
                let at = at % bytes.len();
                bytes[at] = byte;
            }
            bytes.truncate(cut % (bytes.len() + 1));
            let mut dst = MemoryBlockStore::new();
            let _ = import(&mut dst, &bytes);
            // Whatever was stored self-certifies, even when import failed
            // part-way through the archive.
            for cid in dst.cids().cloned().collect::<Vec<_>>() {
                proptest::prop_assert!(cid.hash().verify(&dst.get(&cid).unwrap()));
            }
        }

        #[test]
        fn import_export_import_roundtrips(seed in 0u64..4096) {
            let archive = archive_of(seed);
            let mut dst = MemoryBlockStore::new();
            let first = import(&mut dst, &archive).unwrap();
            let again = export(&mut dst, &first.roots).unwrap();
            proptest::prop_assert_eq!(&again, &archive);
            let second = import(&mut MemoryBlockStore::new(), &again).unwrap();
            proptest::prop_assert_eq!(second, first);
        }
    }

    #[test]
    fn corrupt_block_rejected() {
        let mut src = MemoryBlockStore::new();
        let root = build(&mut src, &sample(1000, 3));
        let mut archive = export(&mut src, &[root]).unwrap();
        // Flip a byte in the last block's payload.
        let n = archive.len();
        archive[n - 1] ^= 0xFF;
        let mut dst = MemoryBlockStore::new();
        assert!(matches!(import(&mut dst, &archive), Err(Error::HashMismatch(_))));
    }

    #[test]
    fn truncated_archive_rejected() {
        let mut src = MemoryBlockStore::new();
        let root = build(&mut src, &sample(1000, 4));
        let archive = export(&mut src, &[root]).unwrap();
        for cut in [3usize, 9, archive.len() / 2, archive.len() - 1] {
            let mut dst = MemoryBlockStore::new();
            assert!(import(&mut dst, &archive[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut dst = MemoryBlockStore::new();
        assert!(matches!(import(&mut dst, b"NOTACAR1rest"), Err(Error::InvalidArchive(_))));
    }

    #[test]
    fn directories_travel_in_archives() {
        use crate::unixfs::{read_path, DirectoryBuilder};
        let mut src = MemoryBlockStore::new();
        let file = sample(700, 5);
        let f_root = build(&mut src, &file);
        let mut dir = DirectoryBuilder::new();
        dir.add_entry("data.bin", f_root, file.len() as u64).unwrap();
        let d_root = dir.build(&mut src);

        let archive = export(&mut src, std::slice::from_ref(&d_root)).unwrap();
        let mut dst = MemoryBlockStore::new();
        import(&mut dst, &archive).unwrap();
        assert_eq!(read_path(&mut dst, &d_root, "data.bin").unwrap(), file);
    }
}
