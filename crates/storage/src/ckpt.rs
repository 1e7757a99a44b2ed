//! Durable index-checkpoint blob storage.
//!
//! The in-memory indexes (temporal full-text index and delta-content
//! index) are rebuilt at open by replaying document history — O(history).
//! To make open O(index) instead, the database layer serializes them into
//! a single blob at checkpoint time and [`CheckpointStore`] persists that
//! blob in ordinary storage pages, rooted at
//! [`crate::repo::roots::FTI_META`].
//!
//! ## Page format
//!
//! The root page holds a fixed header:
//!
//! ```text
//! [magic u32 "TXCK"][format u32][generation u64]
//! [total_len u64][total_crc u32][first_page u64][chain_pages u32]
//! ```
//!
//! The blob is chunked across a singly-linked chain of pages:
//!
//! ```text
//! [next u64][chunk_len u32][chunk_crc u32] payload…
//! ```
//!
//! Every chunk carries its own CRC32 (the same polynomial as the page
//! trailers and WAL records from PR 1) **in addition to** the pager's
//! physical page trailer. The application-level CRC matters because the
//! memory backend has no page trailers, and because a torn multi-page
//! checkpoint can be composed of individually-valid pages from two
//! different generations — the `total_crc` over the reassembled blob
//! catches exactly that.
//!
//! A checkpoint is strictly advisory: every read failure is surfaced as a
//! structured error that the open path treats as "no checkpoint, replay
//! everything". Corruption here can cost time, never data.

use std::sync::Arc;

use txdb_base::{Error, Result};

use crate::buffer::BufferPool;
use crate::pager::{PageId, PAGE_SIZE};
use crate::wal::crc32;

const MAGIC: u32 = 0x5458_434B; // "TXCK"
const FORMAT: u32 = 1;
const ROOT_HEADER: usize = 4 + 4 + 8 + 8 + 4 + 8 + 4;
const CHAIN_HEADER: usize = 8 + 4 + 4;
const CHUNK_CAP: usize = PAGE_SIZE - CHAIN_HEADER;

/// Summary of the stored checkpoint (for `stats` / `fsck`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointInfo {
    /// Monotonic write counter (1 = first checkpoint ever written).
    pub generation: u64,
    /// Size of the serialized index blob in bytes.
    pub bytes: u64,
    /// Pages occupied by the blob chain (excluding the root page).
    pub pages: u32,
}

/// Blob storage for serialized indexes, rooted at a pager root slot.
///
/// Concurrency: callers serialize writes externally (the document store
/// invokes [`CheckpointStore::write`] under its writer lock); reads at
/// open time race with nothing.
pub struct CheckpointStore {
    pool: Arc<BufferPool>,
    slot: usize,
}

impl CheckpointStore {
    /// Attaches to `slot` of the pool's pager. No I/O happens until the
    /// first read or write.
    pub fn new(pool: Arc<BufferPool>, slot: usize) -> CheckpointStore {
        CheckpointStore { pool, slot }
    }

    fn read_root(&self) -> Result<Option<(Vec<u8>, PageId)>> {
        let root = self.pool.pager().root(self.slot);
        if root.is_null() {
            return Ok(None);
        }
        let frame = self.pool.get(root)?;
        let buf = frame.read().to_vec();
        Ok(Some((buf, root)))
    }

    fn parse_root(buf: &[u8]) -> Result<(u64, u64, u32, PageId, u32)> {
        let magic = u32::from_le_bytes(buf[0..4].try_into().expect("fixed-width slice"));
        if magic != MAGIC {
            return Err(Error::Corrupt(format!("index checkpoint: bad magic {magic:#010x}")));
        }
        let format = u32::from_le_bytes(buf[4..8].try_into().expect("fixed-width slice"));
        if format != FORMAT {
            return Err(Error::Corrupt(format!("index checkpoint: unknown format {format}")));
        }
        let generation = u64::from_le_bytes(buf[8..16].try_into().expect("fixed-width slice"));
        let total_len = u64::from_le_bytes(buf[16..24].try_into().expect("fixed-width slice"));
        let total_crc = u32::from_le_bytes(buf[24..28].try_into().expect("fixed-width slice"));
        let first = PageId(u64::from_le_bytes(buf[28..36].try_into().expect("fixed-width slice")));
        let pages = u32::from_le_bytes(buf[36..40].try_into().expect("fixed-width slice"));
        Ok((generation, total_len, total_crc, first, pages))
    }

    /// Reads the stored blob. `Ok(None)` means no checkpoint has ever
    /// been written; any structural or CRC problem is an error (callers
    /// fall back to a full rebuild).
    pub fn read(&self) -> Result<Option<Vec<u8>>> {
        let Some((root_buf, _)) = self.read_root()? else {
            return Ok(None);
        };
        let (_, total_len, total_crc, first, pages) = Self::parse_root(&root_buf)?;
        let mut blob = Vec::with_capacity(total_len as usize);
        let mut next = first;
        let mut walked = 0u32;
        while !next.is_null() {
            if walked >= pages {
                return Err(Error::Corrupt("index checkpoint: chain longer than header".into()));
            }
            walked += 1;
            let frame = self.pool.get(next)?;
            let page = frame.read();
            next = PageId(u64::from_le_bytes(page[0..8].try_into().expect("fixed-width slice")));
            let len =
                u32::from_le_bytes(page[8..12].try_into().expect("fixed-width slice")) as usize;
            let stored = u32::from_le_bytes(page[12..16].try_into().expect("fixed-width slice"));
            if len > CHUNK_CAP {
                return Err(Error::Corrupt(format!("index checkpoint: chunk of {len} bytes")));
            }
            let chunk = &page[CHAIN_HEADER..CHAIN_HEADER + len];
            let actual = crc32(chunk);
            if stored != actual {
                return Err(Error::Corrupt(format!(
                    "index checkpoint: chunk crc mismatch (stored {stored:#010x}, computed {actual:#010x})"
                )));
            }
            blob.extend_from_slice(chunk);
        }
        if walked != pages {
            return Err(Error::Corrupt(format!(
                "index checkpoint: chain ended after {walked} of {pages} page(s)"
            )));
        }
        if blob.len() as u64 != total_len {
            return Err(Error::Corrupt(format!(
                "index checkpoint: {} bytes reassembled, header says {total_len}",
                blob.len()
            )));
        }
        let actual = crc32(&blob);
        if actual != total_crc {
            return Err(Error::Corrupt(format!(
                "index checkpoint: blob crc mismatch (stored {total_crc:#010x}, computed {actual:#010x})"
            )));
        }
        Ok(Some(blob))
    }

    /// Writes a new blob, replacing any previous checkpoint, and returns
    /// the new generation number. Pages of the old chain are freed; the
    /// root page is reused in place so the root slot is written at most
    /// once in the store's lifetime.
    pub fn write(&self, blob: &[u8]) -> Result<u64> {
        // Inspect the old root (tolerating corruption: a damaged old
        // checkpoint must not block writing a fresh one).
        let old = self.read_root()?;
        let (generation, old_first, old_pages, root_id) = match &old {
            Some((buf, id)) => match Self::parse_root(buf) {
                Ok((generation, _, _, first, pages)) => (generation + 1, first, pages, *id),
                Err(_) => (1, PageId::NULL, 0, *id),
            },
            None => {
                let (id, _) = self.pool.allocate()?;
                (1, PageId::NULL, 0, id)
            }
        };

        // Write the new chain back-to-front so every `next` pointer is
        // known when its page is filled.
        let chunks: Vec<&[u8]> =
            if blob.is_empty() { Vec::new() } else { blob.chunks(CHUNK_CAP).collect() };
        let mut next = PageId::NULL;
        for chunk in chunks.iter().rev() {
            let (id, frame) = self.pool.allocate()?;
            {
                let mut page = frame.write();
                page[0..8].copy_from_slice(&next.0.to_le_bytes());
                page[8..12].copy_from_slice(&(chunk.len() as u32).to_le_bytes());
                page[12..16].copy_from_slice(&crc32(chunk).to_le_bytes());
                page[CHAIN_HEADER..CHAIN_HEADER + chunk.len()].copy_from_slice(chunk);
            }
            self.pool.mark_dirty(id);
            next = id;
        }

        // Point the root at the new chain, then retire the old one.
        let frame = self.pool.get(root_id)?;
        {
            let mut page = frame.write();
            page[..ROOT_HEADER].fill(0);
            page[0..4].copy_from_slice(&MAGIC.to_le_bytes());
            page[4..8].copy_from_slice(&FORMAT.to_le_bytes());
            page[8..16].copy_from_slice(&generation.to_le_bytes());
            page[16..24].copy_from_slice(&(blob.len() as u64).to_le_bytes());
            page[24..28].copy_from_slice(&crc32(blob).to_le_bytes());
            page[28..36].copy_from_slice(&next.0.to_le_bytes());
            page[36..40].copy_from_slice(&(chunks.len() as u32).to_le_bytes());
        }
        self.pool.mark_dirty(root_id);
        if old.is_none() {
            self.pool.pager().set_root(self.slot, root_id);
        }
        self.free_chain(old_first, old_pages);
        Ok(generation)
    }

    /// Frees up to `pages` chain pages starting at `first`, stopping
    /// quietly on any damage — leaking pages beats failing a checkpoint.
    fn free_chain(&self, first: PageId, pages: u32) {
        let mut next = first;
        let mut walked = 0u32;
        while !next.is_null() && walked < pages {
            walked += 1;
            let Ok(frame) = self.pool.get(next) else { break };
            let after = PageId(u64::from_le_bytes(
                frame.read()[0..8].try_into().expect("fixed-width slice"),
            ));
            if self.pool.free_page(next).is_err() {
                break;
            }
            next = after;
        }
    }

    /// Every page the checkpoint occupies (root page plus blob chain).
    /// Best-effort: a referenced page is included even when it cannot be
    /// read, the walk just stops following the chain there. Used by
    /// fsck's reachability sweep.
    pub fn pages(&self) -> Vec<PageId> {
        let root = self.pool.pager().root(self.slot);
        if root.is_null() {
            return Vec::new();
        }
        let mut out = vec![root];
        let Ok(Some((buf, _))) = self.read_root() else { return out };
        let Ok((_, _, _, first, pages)) = Self::parse_root(&buf) else { return out };
        let mut next = first;
        let mut walked = 0u32;
        let mut seen = std::collections::HashSet::new();
        while !next.is_null() && walked <= pages && seen.insert(next.0) {
            out.push(next);
            walked += 1;
            let Ok(frame) = self.pool.get(next) else { break };
            next = PageId(u64::from_le_bytes(
                frame.read()[0..8].try_into().expect("fixed-width slice"),
            ));
        }
        out
    }

    /// Describes the stored checkpoint without validating chunk CRCs.
    /// `Ok(None)` when absent; an error when the root page itself is
    /// unreadable or malformed.
    pub fn info(&self) -> Result<Option<CheckpointInfo>> {
        let Some((buf, _)) = self.read_root()? else {
            return Ok(None);
        };
        let (generation, total_len, _, _, pages) = Self::parse_root(&buf)?;
        Ok(Some(CheckpointInfo { generation, bytes: total_len, pages }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::Pager;

    fn store() -> CheckpointStore {
        let pool = Arc::new(BufferPool::new(Pager::memory(), 64));
        CheckpointStore::new(pool, crate::repo::roots::FTI_META)
    }

    #[test]
    fn absent_reads_none() {
        let s = store();
        assert_eq!(s.read().unwrap(), None);
        assert_eq!(s.info().unwrap(), None);
    }

    #[test]
    fn round_trip_small_and_multi_page() {
        let s = store();
        for blob in [
            Vec::new(),
            b"hello".to_vec(),
            vec![0xabu8; PAGE_SIZE], // exactly forces 2 chunks
            (0..40_000u32).flat_map(|x| x.to_le_bytes()).collect::<Vec<u8>>(),
        ] {
            let generation = s.write(&blob).unwrap();
            assert!(generation >= 1);
            assert_eq!(s.read().unwrap().as_deref(), Some(blob.as_slice()));
            let info = s.info().unwrap().unwrap();
            assert_eq!(info.generation, generation);
            assert_eq!(info.bytes, blob.len() as u64);
        }
    }

    #[test]
    fn rewrite_bumps_generation_and_frees_old_chain() {
        let s = store();
        let big = vec![7u8; 3 * PAGE_SIZE];
        s.write(&big).unwrap();
        let generation = s.write(&big).unwrap();
        assert_eq!(generation, 2);
        // The new chain is allocated before the old one is freed, so the
        // second write grows the file once — but after that every rewrite
        // recycles the freed chain and the page count stays flat.
        let steady = s.pool.pager().page_count();
        for _ in 0..5 {
            s.write(&big).unwrap();
        }
        assert_eq!(s.pool.pager().page_count(), steady, "old chains leaked");
        assert_eq!(s.read().unwrap().as_deref(), Some(big.as_slice()));
        assert_eq!(s.info().unwrap().unwrap().generation, 7);
    }

    #[test]
    fn chunk_corruption_is_a_structured_error() {
        let s = store();
        s.write(&[5u8; 100]).unwrap();
        // Flip a payload byte in the chain page behind the store's back.
        let root = s.pool.pager().root(crate::repo::roots::FTI_META);
        let root_buf = s.pool.get(root).unwrap().read().to_vec();
        let (_, _, _, first, _) = CheckpointStore::parse_root(&root_buf).unwrap();
        {
            let frame = s.pool.get(first).unwrap();
            frame.write()[CHAIN_HEADER + 3] ^= 0x40;
        }
        match s.read() {
            Err(Error::Corrupt(msg)) => assert!(msg.contains("crc"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_is_a_structured_error() {
        let s = store();
        s.write(b"x").unwrap();
        let root = s.pool.pager().root(crate::repo::roots::FTI_META);
        {
            let frame = s.pool.get(root).unwrap();
            frame.write()[0] ^= 0xff;
        }
        assert!(matches!(s.read(), Err(Error::Corrupt(_))));
        assert!(matches!(s.info(), Err(Error::Corrupt(_))));
        // And a fresh write recovers (generation restarts).
        let generation = s.write(b"y").unwrap();
        assert_eq!(generation, 1);
        assert_eq!(s.read().unwrap().as_deref(), Some(&b"y"[..]));
    }
}
