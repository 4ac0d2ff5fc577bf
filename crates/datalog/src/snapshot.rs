//! Epoch-versioned database generations for snapshot-isolated readers.
//!
//! A [`GenerationStore`] holds the latest committed [`Database`] behind
//! an epoch counter. Readers call [`GenerationStore::snapshot`] to pin
//! the current generation — an O(1) `Arc` clone that never blocks on a
//! writer and keeps the generation alive for as long as the handle
//! lives. Writers build the *next* generation copy-on-write (cloning a
//! `Database` shares all relation segments; see
//! [`Database::clone`](Database)) and [`publish`](GenerationStore::publish)
//! it atomically: a brief pointer swap under a write lock that readers
//! only contend on for the duration of one `Arc` clone.
//!
//! The store deliberately knows nothing about transactions or rule
//! evaluation — it is the narrow waist between the incremental
//! maintenance layer (which produces generations) and the session layer
//! (which hands out pinned snapshots per reader).

use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::storage::Database;

/// A pinned, immutable view of one published database generation.
///
/// Cloning a snapshot is O(1) and snapshots are `Send + Sync`: reader
/// threads can hold them across arbitrary query work while writers
/// publish newer generations. Deref yields the underlying [`Database`],
/// so anything that queries a `&Database` (e.g.
/// [`run_query`](crate::run_query)) works on a snapshot unchanged.
#[derive(Clone, Debug)]
pub struct Snapshot {
    epoch: u64,
    db: Arc<Database>,
}

impl Snapshot {
    /// The epoch at which this generation was published. Epoch 0 is the
    /// store's initial database; each publish increments by one.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The pinned database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The shared handle to the pinned database, for callers that need
    /// to keep the generation alive independently of the snapshot.
    pub fn shared(&self) -> Arc<Database> {
        Arc::clone(&self.db)
    }
}

impl std::ops::Deref for Snapshot {
    type Target = Database;

    fn deref(&self) -> &Database {
        &self.db
    }
}

/// The epoch-versioned store of published database generations.
///
/// One writer at a time builds the next generation (the store does not
/// arbitrate writers — the session layer does) and publishes it here;
/// any number of readers pin generations concurrently.
#[derive(Debug)]
pub struct GenerationStore {
    current: RwLock<Snapshot>,
}

/// Read the lock even if a panicking writer poisoned it: the guarded
/// value is only ever replaced wholesale (no torn intermediate states),
/// so the last published generation is always consistent.
fn read_current(lock: &RwLock<Snapshot>) -> RwLockReadGuard<'_, Snapshot> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

fn write_current(lock: &RwLock<Snapshot>) -> RwLockWriteGuard<'_, Snapshot> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

impl GenerationStore {
    /// Create a store whose epoch-0 generation is `db`.
    pub fn new(db: Database) -> Self {
        GenerationStore {
            current: RwLock::new(Snapshot {
                epoch: 0,
                db: Arc::new(db),
            }),
        }
    }

    /// Pin the current generation. Never blocks on generation
    /// construction — only on the pointer swap inside
    /// [`publish`](GenerationStore::publish), which is O(1).
    pub fn snapshot(&self) -> Snapshot {
        read_current(&self.current).clone()
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        read_current(&self.current).epoch
    }

    /// Publish `db` as the next generation and return its epoch.
    ///
    /// Existing snapshots keep their pinned generation; only snapshots
    /// taken after this call observe the new one.
    pub fn publish(&self, db: Database) -> u64 {
        // Allocate the Arc outside the critical section; the lock is
        // held only for the swap.
        let db = Arc::new(db);
        let mut current = write_current(&self.current);
        current.epoch += 1;
        current.db = db;
        current.epoch
    }

    /// Replace the current generation with `db` *without* advancing the
    /// epoch: for a writer that rebuilt the same committed state in a
    /// wider form (more relations, the old ones unchanged). Snapshots
    /// already pinned keep the database they pinned.
    pub fn replace(&self, db: Database) {
        let db = Arc::new(db);
        write_current(&self.current).db = db;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Const;

    fn db_with(facts: &[(&str, &str)]) -> Database {
        let mut db = Database::new();
        for (p, a) in facts {
            db.insert(p, vec![Const::sym(a)]);
        }
        db
    }

    #[test]
    fn snapshot_pins_generation_across_publish() {
        let store = GenerationStore::new(db_with(&[("p", "a")]));
        let pinned = store.snapshot();
        assert_eq!(pinned.epoch(), 0);

        let mut next = pinned.database().clone();
        next.insert("p", vec![Const::sym("b")]);
        let epoch = store.publish(next);
        assert_eq!(epoch, 1);
        assert_eq!(store.epoch(), 1);

        // The old snapshot still sees exactly the old generation.
        assert_eq!(pinned.fact_count(), 1);
        assert!(!pinned.contains("p", &[Const::sym("b")]));
        // A fresh snapshot sees the new one.
        let fresh = store.snapshot();
        assert_eq!(fresh.epoch(), 1);
        assert!(fresh.contains("p", &[Const::sym("b")]));
    }

    #[test]
    fn replace_keeps_the_epoch_and_pinned_snapshots() {
        let store = GenerationStore::new(db_with(&[("p", "a")]));
        store.publish(db_with(&[("p", "b")]));
        let pinned = store.snapshot();
        store.replace(db_with(&[("p", "b"), ("q", "b")]));
        assert_eq!(store.epoch(), 1);
        assert_eq!(store.snapshot().epoch(), 1);
        assert!(store.snapshot().contains("q", &[Const::sym("b")]));
        // The pinned snapshot still sees the generation it pinned.
        assert!(!pinned.contains("q", &[Const::sym("b")]));
        assert_eq!(store.publish(db_with(&[("p", "c")])), 2);
    }

    #[test]
    fn cow_clone_shares_untouched_relations() {
        let base = db_with(&[("p", "a"), ("q", "a")]);
        let mut next = base.clone();
        next.insert("p", vec![Const::sym("b")]);
        // `q` is untouched: both databases reference the same segment.
        assert!(std::ptr::eq(
            base.relation("q").expect("q exists"),
            next.relation("q").expect("q exists"),
        ));
        // `p` was detached by the write.
        assert!(!std::ptr::eq(
            base.relation("p").expect("p exists"),
            next.relation("p").expect("p exists"),
        ));
        assert_eq!(base.relation("p").expect("p exists").len(), 1);
        assert_eq!(next.relation("p").expect("p exists").len(), 2);
    }

    #[test]
    fn noop_retract_does_not_detach_segment() {
        let base = db_with(&[("p", "a")]);
        let mut next = base.clone();
        assert!(!next.retract("p", &[Const::sym("zzz")]));
        assert!(std::ptr::eq(
            base.relation("p").expect("p exists"),
            next.relation("p").expect("p exists"),
        ));
    }

    #[test]
    fn snapshots_are_send_sync_and_cross_threads() {
        let store = Arc::new(GenerationStore::new(db_with(&[("p", "a")])));
        let snap = store.snapshot();
        let handle = std::thread::spawn(move || snap.fact_count());
        let mut next = store.snapshot().database().clone();
        next.insert("p", vec![Const::sym("b")]);
        store.publish(next);
        assert_eq!(handle.join().expect("reader thread"), 1);
        assert_eq!(store.snapshot().fact_count(), 2);
    }
}
