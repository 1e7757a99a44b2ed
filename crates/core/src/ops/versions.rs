//! `PreviousTS`, `NextTS` and `CurrentTS` (§7.3.7).
//!
//! "These operators can be evaluated by a lookup in the delta index for a
//! particular document. The EID gives the document identifier, and given a
//! certain timestamp the previous, next, and current timestamps can be
//! found by a lookup in the delta index." The returned timestamp together
//! with the EID (i.e. a TEID) can then be fed to `Reconstruct`.
//!
//! Semantics around tombstones: only *content* versions have timestamps to
//! return; the version chain may contain deletion gaps, which these
//! operators step across. `CurrentTS` returns `None` when the document is
//! deleted (there is no current version); `NextTS` of the last version is
//! `None`; `PreviousTS` of the first is `None` — matching the paper's note
//! that the current version's timestamp "is given implicitly".

use txdb_base::{Eid, Error, Result, Teid, Timestamp};
use txdb_storage::repo::{VersionEntry, VersionKind};

use crate::db::Database;

/// Which version [`neighbour`] looks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Neighbour {
    /// The content version before the one valid at the TEID's time.
    Previous,
    /// The content version after it.
    Next,
    /// The document's current version.
    Current,
}

/// The delta-index lookup behind `PreviousTS`/`NextTS`/`CurrentTS`, over
/// one document's version list (`entries`, as
/// [`txdb_storage::repo::DocumentStore::versions`] returns it). `Previous` and
/// `Next` fail with [`Error::NotValidAt`] when no content version is
/// valid at `teid`'s time.
pub fn neighbour(
    entries: &[VersionEntry],
    teid: Teid,
    which: Neighbour,
) -> Result<Option<&VersionEntry>> {
    let content = |e: &&VersionEntry| e.kind == VersionKind::Content;
    if which == Neighbour::Current {
        return Ok(entries.last().filter(|e| e.kind != VersionKind::Tombstone));
    }
    let v = entries
        .partition_point(|e| e.ts <= teid.ts)
        .checked_sub(1)
        .filter(|&i| entries[i].kind == VersionKind::Content)
        .ok_or(Error::NotValidAt(teid.doc(), teid.ts))?;
    Ok(if which == Neighbour::Previous {
        entries[..v].iter().rev().find(content)
    } else {
        entries[v + 1..].iter().find(content)
    })
}

impl Database {
    /// `PreviousTS(TEID)` — the timestamp of the previous (content) version
    /// of the element's document.
    pub fn previous_ts(&self, teid: Teid) -> Result<Option<Timestamp>> {
        self.neighbour_ts(teid, Neighbour::Previous)
    }

    /// `NextTS(TEID)` — the timestamp of the next (content) version.
    pub fn next_ts(&self, teid: Teid) -> Result<Option<Timestamp>> {
        self.neighbour_ts(teid, Neighbour::Next)
    }

    /// `CurrentTS(EID)` — the timestamp of the current version of the
    /// element's document ("timestamp is not needed for the current
    /// version, as this is given implicitly"); `None` if deleted.
    pub fn current_ts(&self, eid: Eid) -> Result<Option<Timestamp>> {
        self.neighbour_ts(eid.at(Timestamp::FOREVER), Neighbour::Current)
    }

    fn neighbour_ts(&self, teid: Teid, which: Neighbour) -> Result<Option<Timestamp>> {
        let entries = self.store().versions(teid.doc())?;
        Ok(neighbour(&entries, teid, which)?.map(|e| e.ts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txdb_base::{DocId, Xid};

    fn ts(n: u64) -> Timestamp {
        Timestamp::from_micros(n * 1000)
    }

    fn db3() -> (Database, DocId, Eid) {
        let db = Database::in_memory();
        let doc = db.put("d", "<a>1</a>", ts(10)).unwrap().doc;
        db.put("d", "<a>2</a>", ts(20)).unwrap();
        db.put("d", "<a>3</a>", ts(30)).unwrap();
        let eid = Eid::new(doc, Xid(1));
        (db, doc, eid)
    }

    #[test]
    fn previous_next_current_chain() {
        let (db, _, eid) = db3();
        // At t=25 we are in version 1 (@20).
        let teid = eid.at(ts(25));
        assert_eq!(db.previous_ts(teid).unwrap(), Some(ts(10)));
        assert_eq!(db.next_ts(teid).unwrap(), Some(ts(30)));
        assert_eq!(db.current_ts(eid).unwrap(), Some(ts(30)));
        // Hopping: PREVIOUS(PREVIOUS(current)) reaches v0.
        let prev = db.previous_ts(eid.at(ts(99))).unwrap().unwrap();
        let prev2 = db.previous_ts(eid.at(prev)).unwrap().unwrap();
        assert_eq!(prev2, ts(10));
    }

    #[test]
    fn boundaries_are_none() {
        let (db, _, eid) = db3();
        assert_eq!(db.previous_ts(eid.at(ts(10))).unwrap(), None);
        assert_eq!(db.next_ts(eid.at(ts(35))).unwrap(), None);
    }

    #[test]
    fn tombstones_are_stepped_over() {
        let db = Database::in_memory();
        let doc = db.put("d", "<a>1</a>", ts(10)).unwrap().doc;
        db.delete("d", ts(20)).unwrap();
        db.put("d", "<a>2</a>", ts(30)).unwrap();
        let eid = Eid::new(doc, Xid(1));
        // From the resurrected version, previous content version is v0.
        assert_eq!(db.previous_ts(eid.at(ts(30))).unwrap(), Some(ts(10)));
        // From v0, next content version skips the tombstone.
        assert_eq!(db.next_ts(eid.at(ts(10))).unwrap(), Some(ts(30)));
        assert_eq!(db.current_ts(eid).unwrap(), Some(ts(30)));
        db.delete("d", ts(40)).unwrap();
        assert_eq!(db.current_ts(eid).unwrap(), None);
    }

    #[test]
    fn combined_with_reconstruct() {
        // The §6 example: retrieve the previous version of an element.
        let (db, _, eid) = db3();
        let prev_ts = db.previous_ts(eid.at(ts(99))).unwrap().unwrap();
        let prev_tree = db.reconstruct(eid.at(prev_ts)).unwrap();
        assert_eq!(txdb_xml::serialize::to_string(&prev_tree), "<a>2</a>");
    }

    #[test]
    fn invalid_time_errors() {
        let (db, _, eid) = db3();
        assert!(db.previous_ts(eid.at(ts(1))).is_err());
    }
}
