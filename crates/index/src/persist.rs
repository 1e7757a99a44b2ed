//! Index-checkpoint (de)serialization.
//!
//! The storage layer persists one opaque blob per checkpoint (see
//! `txdb_storage::ckpt`); this module defines what is inside it:
//!
//! ```text
//! [format varint]
//! [covers: n, then per doc (doc, covered_entries, purged_in_prefix)]
//! [full-text index — FullTextIndex::encode_into]
//! ```
//!
//! The **cover** is the staleness contract. `covered` is the number of
//! version entries of the document the serialized indexes reflect — the
//! high-water mark; at open, only entries past it are replayed. `purged`
//! counts `Purged` entries among those first `covered` entries: a vacuum
//! rewrites history *below* the high-water mark, so a purged count
//! mismatch (or a shrunk entry list) marks the document stale and forces
//! a full replay of just that document. The EID-time index is *not* part
//! of the blob — it already persists in the shared B+-tree — but it relies
//! on the same covers to avoid re-replaying covered history.

use txdb_base::{DocId, Error, Result};

use crate::fti::FullTextIndex;

/// Blob format version. Format 1 also carried the §7.2 delta-content
/// index; it is rejected like any unknown format, so the open falls back
/// to one full replay and the next checkpoint writes format 2.
pub const FORMAT: u64 = 2;

/// What the serialized indexes cover for one document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DocCover {
    /// The document.
    pub doc: DocId,
    /// Number of version entries (from the start of the document's delta
    /// index) reflected in the serialized indexes.
    pub covered: u32,
    /// Number of `Purged` entries among the first `covered` entries when
    /// the checkpoint was taken. A vacuum changes this, invalidating the
    /// cover.
    pub purged: u32,
}

/// A decoded index checkpoint.
pub struct IndexCheckpoint {
    /// Per-document coverage stamps.
    pub covers: Vec<DocCover>,
    /// The full-text index as of the covers.
    pub fti: FullTextIndex,
}

/// Serializes covers + FTI into one blob.
pub fn encode(covers: &[DocCover], fti: &FullTextIndex) -> Vec<u8> {
    let mut out = Vec::with_capacity(4096);
    write_varint(&mut out, FORMAT);
    write_varint(&mut out, covers.len() as u64);
    for c in covers {
        write_varint(&mut out, c.doc.0 as u64);
        write_varint(&mut out, c.covered as u64);
        write_varint(&mut out, c.purged as u64);
    }
    fti.encode_into(&mut out);
    out
}

/// Decodes a blob written by [`encode`]. Trailing bytes are an error —
/// a truncated or padded blob means the checkpoint machinery is broken.
pub fn decode(blob: &[u8]) -> Result<IndexCheckpoint> {
    let mut b = blob;
    let input = &mut b;
    let format = read_varint(input)?;
    if format != FORMAT {
        return Err(Error::Corrupt(format!("index checkpoint: unknown blob format {format}")));
    }
    let n = read_varint(input)? as usize;
    let mut covers = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let doc = DocId(
            u32::try_from(read_varint(input)?)
                .map_err(|_| Error::Corrupt("index checkpoint: doc id overflow".into()))?,
        );
        let covered = u32::try_from(read_varint(input)?)
            .map_err(|_| Error::Corrupt("index checkpoint: cover overflow".into()))?;
        let purged = u32::try_from(read_varint(input)?)
            .map_err(|_| Error::Corrupt("index checkpoint: cover overflow".into()))?;
        covers.push(DocCover { doc, covered, purged });
    }
    let fti = FullTextIndex::decode_from(input)?;
    if !input.is_empty() {
        return Err(Error::Corrupt(format!("index checkpoint: {} trailing byte(s)", input.len())));
    }
    Ok(IndexCheckpoint { covers, fti })
}

/// LEB128-style varint writer (same wire format as `txdb_xml::codec`).
pub(crate) fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

/// Varint reader over a shrinking slice.
pub(crate) fn read_varint(b: &mut &[u8]) -> Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let (&byte, rest) = b
            .split_first()
            .ok_or_else(|| Error::Corrupt("index checkpoint: truncated varint".into()))?;
        *b = rest;
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift >= 64 {
            return Err(Error::Corrupt("index checkpoint: varint overflow".into()));
        }
    }
}

/// Single-byte reader over a shrinking slice.
pub(crate) fn read_u8(b: &mut &[u8]) -> Result<u8> {
    let (&byte, rest) =
        b.split_first().ok_or_else(|| Error::Corrupt("index checkpoint: truncated byte".into()))?;
    *b = rest;
    Ok(byte)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fti::OccKind;
    use txdb_base::{VersionId, Xid};

    #[test]
    fn empty_checkpoint_round_trips() {
        let blob = encode(&[], &FullTextIndex::new());
        let ckpt = decode(&blob).unwrap();
        assert!(ckpt.covers.is_empty());
        assert_eq!(ckpt.fti.posting_count(), 0);
    }

    #[test]
    fn covers_round_trip() {
        let covers = vec![
            DocCover { doc: DocId(1), covered: 70, purged: 0 },
            DocCover { doc: DocId(9), covered: 3, purged: 2 },
        ];
        let blob = encode(&covers, &FullTextIndex::new());
        let ckpt = decode(&blob).unwrap();
        assert_eq!(ckpt.covers, covers);
    }

    #[test]
    fn full_blob_round_trips() {
        let mut fti = FullTextIndex::new();
        fti.open_posting(
            "napoli",
            DocId(1),
            Xid(3),
            OccKind::Word,
            &[Xid(1), Xid(3)],
            VersionId(0),
        );
        let covers = vec![DocCover { doc: DocId(1), covered: 1, purged: 0 }];
        let blob = encode(&covers, &fti);
        let ckpt = decode(&blob).unwrap();
        assert_eq!(ckpt.covers, covers);
        assert_eq!(ckpt.fti.lookup("napoli", OccKind::Word).len(), 1);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut blob = encode(&[], &FullTextIndex::new());
        blob.push(0);
        assert!(matches!(decode(&blob), Err(Error::Corrupt(_))));
    }

    #[test]
    fn unknown_format_rejected() {
        let mut blob = encode(&[], &FullTextIndex::new());
        // 1 is the previous format (it also held the delta-content index).
        for format in [99, 1] {
            blob[0] = format;
            let Err(Error::Corrupt(note)) = decode(&blob) else {
                panic!("format {format} accepted");
            };
            assert!(note.contains(&format!("unknown blob format {format}")), "{note}");
        }
    }

    #[test]
    fn truncation_anywhere_is_an_error_not_a_panic() {
        let mut fti = FullTextIndex::new();
        fti.open_posting("word", DocId(2), Xid(5), OccKind::Word, &[Xid(5)], VersionId(1));
        let covers = vec![DocCover { doc: DocId(2), covered: 2, purged: 0 }];
        let blob = encode(&covers, &fti);
        for cut in 0..blob.len() {
            assert!(decode(&blob[..cut]).is_err(), "truncation at {cut} accepted");
        }
    }
}
