//! A long-lived, concurrent belief service over the τ reduction: one
//! writer, any number of readers at (possibly distinct) clearance
//! levels, with **snapshot isolation** between them.
//!
//! ## Architecture
//!
//! The τ reduction bakes the querying clearance into the generated
//! program (the `dominate(_, user)` no-read-up guards of §6.2), so one
//! materialized fixpoint serves exactly one clearance level. The server
//! therefore keeps one incremental [`ReducedEngine`] per clearance level
//! with an open reader, created lazily at the first `open` for that
//! level and caught up by replaying the committed update history.
//!
//! Each level also owns a [`dl::GenerationStore`]: after every committed
//! batch the writer publishes that level's new materialization as the
//! next *generation* (a copy-on-write [`dl::Database`] clone — an
//! O(#relations) handle, not a copy of the facts). Readers pin a
//! generation when they open (or [`ReaderSession::refresh`]) and answer
//! every goal from that pinned snapshot through a detached
//! [`GoalTranslator`] — they never touch the engines, so a reader never
//! blocks on a writer's delta propagation, and a writer never waits for
//! readers. The only shared lock a reader takes is the generation
//! store's pointer read, held for one `Arc` clone.
//!
//! Epochs are global: every level's store counts the same committed
//! batches, so "epoch *e* at level *l*" names the reduction of exactly
//! the base database plus the first *e* committed batches — the property
//! the snapshot-consistency stress oracle checks.
//!
//! ## Clients
//!
//! The server is the one place updates are committed: the `multilog
//! serve` line protocol and the CLI REPL (one writer plus one reader at
//! its clearance) both commit through [`WriterSession::commit`] and
//! answer from [`ReaderSession`]s.
//!
//! ## Failure semantics
//!
//! A commit applies the batch to the level engines in level order
//! before publishing anything. If a level fails, no generation is
//! published, the epoch does not advance, and the writer sees that
//! level's typed error. The engines the batch reached are rebuilt from
//! the base database plus the committed history: every level that
//! committed the batch, and the failing level itself unless the batch
//! was rejected before touching it (a non-ground or undeclared-level
//! update). Levels after the failing one never saw the batch and are
//! left alone, so a rejected batch costs no rebuild at all. A level
//! whose rebuild fails is parked and healed on the next commit or open;
//! its readers keep answering from their pinned generations throughout.

// Long-lived service path: invariant violations must surface as typed
// errors to one session, never crash the process (same policy as the
// incremental back-end).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use multilog_datalog as dl;

use crate::ast::Goal;
use crate::db::MultiLogDb;
use crate::engine::{Answer, EngineOptions};
use crate::reduce::{EdbUpdate, GoalTranslator, ReducedEngine};
use crate::{MultiLogError, Result};

/// Per-level state: the incremental engine producing generations and the
/// store readers pin them from. `engine` is `None` while the level is
/// parked after a failed post-abort rebuild; the store (and thus every
/// pinned snapshot) survives parking.
struct LevelSlot {
    engine: Option<ReducedEngine>,
    store: Arc<dl::GenerationStore>,
}

struct ServerInner {
    db: MultiLogDb,
    options: EngineOptions,
    levels: BTreeMap<String, LevelSlot>,
    /// Every committed update, in commit order; replayed into engines
    /// created (or rebuilt) after the commits happened.
    history: Vec<EdbUpdate>,
    /// Number of committed batches == the epoch of every level store.
    commits: u64,
    writer_open: bool,
}

/// What one committed batch did, per level.
#[derive(Clone, Debug)]
pub struct CommitSummary {
    /// The epoch the batch was published at (same across levels).
    pub epoch: u64,
    /// Per-clearance-level maintenance statistics.
    pub levels: BTreeMap<String, dl::CommitStats>,
}

/// A multi-session belief server: share it (behind an `Arc`) between one
/// writer and any number of reader threads.
pub struct BeliefServer {
    inner: Mutex<ServerInner>,
}

/// Lock the server state even if a panicking holder poisoned the mutex:
/// every mutation either completes or restores a consistent state (see
/// the failure-semantics contract above), so the guarded value is usable
/// after a poison.
fn lock(inner: &Mutex<ServerInner>) -> MutexGuard<'_, ServerInner> {
    inner.lock().unwrap_or_else(|e| e.into_inner())
}

impl BeliefServer {
    /// Create a server over `db`. Engines are created lazily per
    /// clearance level, each under `options` (fact budget, deadline,
    /// cancellation) — the same guard plumbing the single-session
    /// engines use.
    pub fn new(db: MultiLogDb, options: EngineOptions) -> Self {
        BeliefServer {
            inner: Mutex::new(ServerInner {
                db,
                options,
                levels: BTreeMap::new(),
                history: Vec::new(),
                commits: 0,
                writer_open: false,
            }),
        }
    }

    /// Open a reader session at clearance `user`, pinned to the
    /// generation current *now*: later commits are invisible until
    /// [`ReaderSession::refresh`]. The first open at a level pays for
    /// that level's materialization (plus history replay); subsequent
    /// opens are O(1).
    ///
    /// # Errors
    ///
    /// [`MultiLogError::NotAdmissible`] for an undeclared level, or any
    /// evaluation error from materializing the level.
    pub fn open_reader(&self, user: &str) -> Result<ReaderSession> {
        let mut inner = lock(&self.inner);
        let (translator, store) = inner.level_handles(user)?;
        let snapshot = store.snapshot();
        Ok(ReaderSession {
            translator,
            store,
            snapshot,
        })
    }

    /// Open *the* writer session. The server is single-writer: a second
    /// open fails with [`MultiLogError::WriterBusy`] until the first
    /// session drops.
    pub fn open_writer(&self) -> Result<WriterSession<'_>> {
        let mut inner = lock(&self.inner);
        if inner.writer_open {
            return Err(MultiLogError::WriterBusy);
        }
        inner.writer_open = true;
        Ok(WriterSession { server: self })
    }

    /// The current global epoch (number of committed batches).
    pub fn epoch(&self) -> u64 {
        lock(&self.inner).commits
    }

    /// The clearance levels with instantiated engines, in order.
    pub fn open_levels(&self) -> Vec<String> {
        lock(&self.inner).levels.keys().cloned().collect()
    }
}

impl std::fmt::Debug for BeliefServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = lock(&self.inner);
        f.debug_struct("BeliefServer")
            .field("epoch", &inner.commits)
            .field("levels", &inner.levels.keys().collect::<Vec<_>>())
            .field("writer_open", &inner.writer_open)
            .finish_non_exhaustive()
    }
}

impl ServerInner {
    /// A fresh engine for `user`: the base database materialized under
    /// the server options, with the committed history replayed on top.
    fn fresh_engine(
        db: &MultiLogDb,
        options: &EngineOptions,
        user: &str,
        history: &[EdbUpdate],
    ) -> Result<ReducedEngine> {
        let mut engine = ReducedEngine::with_options(db, user, options.clone())?;
        if !history.is_empty() {
            engine.apply_updates(history)?;
        }
        Ok(engine)
    }

    /// Ensure `user` has a live level slot; return its translator and
    /// store. Creates the engine (and a store aligned to the global
    /// epoch) on first open, and revives a parked engine.
    fn level_handles(&mut self, user: &str) -> Result<(GoalTranslator, Arc<dl::GenerationStore>)> {
        let ServerInner {
            db,
            options,
            levels,
            history,
            commits,
            ..
        } = self;
        if let Some(slot) = levels.get_mut(user) {
            if slot.engine.is_none() {
                // Parked after a failed rebuild: heal, keeping the store
                // (existing readers' refresh must keep working) but
                // aligning its contents with the committed state.
                let engine = Self::fresh_engine(db, options, user, history)?;
                let current = engine.database_snapshot();
                slot.store.publish_at(*commits, current);
                slot.engine = Some(engine);
            }
            let engine = slot
                .engine
                .as_ref()
                .ok_or_else(|| MultiLogError::Internal {
                    detail: format!("level `{user}` has no engine after healing"),
                })?;
            return Ok((engine.goal_translator(), Arc::clone(&slot.store)));
        }
        let engine = Self::fresh_engine(db, options, user, history)?;
        let store = Arc::new(dl::GenerationStore::with_epoch(
            *commits,
            engine.database_snapshot(),
        ));
        let translator = engine.goal_translator();
        levels.insert(
            user.to_owned(),
            LevelSlot {
                engine: Some(engine),
                store: Arc::clone(&store),
            },
        );
        Ok((translator, store))
    }

    /// Apply one batch to every level and publish the next generation
    /// everywhere, or restore the pre-commit state and publish nothing.
    fn commit(&mut self, updates: &[EdbUpdate]) -> Result<CommitSummary> {
        if updates.is_empty() {
            return Ok(CommitSummary {
                epoch: self.commits,
                levels: BTreeMap::new(),
            });
        }
        // Phase 0: heal any parked levels so the batch reaches them too.
        let parked: Vec<String> = self
            .levels
            .iter()
            .filter(|(_, s)| s.engine.is_none())
            .map(|(n, _)| n.clone())
            .collect();
        for name in parked {
            // A level that cannot be healed stays parked; the commit
            // must not proceed half-blind, so surface the error.
            self.level_handles(&name)?;
        }
        // Phase 1: apply to every engine in level order, publishing
        // nothing yet.
        let mut stats: BTreeMap<String, dl::CommitStats> = BTreeMap::new();
        let mut failure: Option<(String, MultiLogError)> = None;
        for (name, slot) in &mut self.levels {
            let applied = match slot.engine.as_mut() {
                Some(engine) => engine.apply_updates(updates),
                None => Err(MultiLogError::Internal {
                    detail: format!("level `{name}` parked during commit"),
                }),
            };
            match applied {
                Ok(s) => {
                    stats.insert(name.clone(), s);
                }
                Err(e) => {
                    failure = Some((name.clone(), e));
                    break;
                }
            }
        }
        if let Some((failed, error)) = failure {
            // Rebuild exactly the engines the batch reached: the levels
            // that committed it, and the failing level unless the batch
            // was rejected before it touched that engine (validation
            // errors, see `ReducedEngine::apply_updates`). Later levels
            // never saw the batch. Stores are untouched — no generation
            // was published.
            let rejected = matches!(
                error,
                MultiLogError::NonGroundUpdate { .. } | MultiLogError::NotAdmissible { .. }
            );
            let ServerInner {
                db,
                options,
                levels,
                history,
                ..
            } = self;
            for (name, slot) in levels.iter_mut() {
                let reached = stats.contains_key(name) || (*name == failed && !rejected);
                if reached {
                    // A failed rebuild parks the level; readers keep
                    // their snapshots and the next commit/open retries.
                    slot.engine = Self::fresh_engine(db, options, name, history).ok();
                }
            }
            return Err(error);
        }
        // Phase 2: all levels succeeded — record and publish atomically
        // per level (each publish is one pointer swap).
        self.commits += 1;
        self.history.extend_from_slice(updates);
        for slot in self.levels.values_mut() {
            if let Some(engine) = &slot.engine {
                slot.store
                    .publish_at(self.commits, engine.database_snapshot());
            }
        }
        Ok(CommitSummary {
            epoch: self.commits,
            levels: stats,
        })
    }
}

/// A reader session: a pinned generation plus the goal translator for
/// its clearance. `Send`, cheap to move into a thread, and entirely
/// independent of the server's engines — queries here can never block a
/// commit and vice versa.
#[derive(Clone, Debug)]
pub struct ReaderSession {
    translator: GoalTranslator,
    store: Arc<dl::GenerationStore>,
    snapshot: dl::Snapshot,
}

impl ReaderSession {
    /// The clearance level this session reads at.
    pub fn user(&self) -> &str {
        self.translator.user()
    }

    /// The epoch of the pinned generation.
    pub fn epoch(&self) -> u64 {
        self.snapshot.epoch()
    }

    /// The newest published epoch (what [`refresh`](Self::refresh) would
    /// pin).
    pub fn latest_epoch(&self) -> u64 {
        self.store.epoch()
    }

    /// Re-pin to the newest published generation; returns its epoch.
    pub fn refresh(&mut self) -> u64 {
        self.snapshot = self.store.snapshot();
        self.snapshot.epoch()
    }

    /// The pinned snapshot itself.
    pub fn snapshot(&self) -> &dl::Snapshot {
        &self.snapshot
    }

    /// Answer a goal from the pinned generation, under the session's
    /// guards. Repeating a query between refreshes always returns the
    /// same answers, regardless of concurrent commits.
    pub fn query(&self, goal: &Goal) -> Result<Vec<Answer>> {
        self.translator.solve_on(self.snapshot.database(), goal)
    }

    /// Parse and answer a textual goal from the pinned generation.
    pub fn query_text(&self, goal: &str) -> Result<Vec<Answer>> {
        self.translator
            .solve_text_on(self.snapshot.database(), goal)
    }
}

/// The single writer session. Batches committed here become visible to
/// readers only at their next refresh/open. Dropping the session frees
/// the writer slot.
pub struct WriterSession<'a> {
    server: &'a BeliefServer,
}

impl WriterSession<'_> {
    /// Commit one batch of extensional updates across every open level
    /// and publish the next generation. Atomic server-wide: on error
    /// nothing is published, the epoch does not advance, and all levels
    /// are restored to the committed state.
    pub fn commit(&mut self, updates: &[EdbUpdate]) -> Result<CommitSummary> {
        lock(&self.server.inner).commit(updates)
    }

    /// The current global epoch.
    pub fn epoch(&self) -> u64 {
        self.server.epoch()
    }
}

impl Drop for WriterSession<'_> {
    fn drop(&mut self) {
        lock(&self.server.inner).writer_open = false;
    }
}

impl std::fmt::Debug for WriterSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WriterSession")
            .field("epoch", &self.server.epoch())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Head;
    use crate::parser::{parse_clause, parse_database};

    const SRC: &str = r#"
        level(u). level(c). level(s).
        order(u, c). order(c, s).
        u[p(k : a -u-> v)].
        c[p(k : a -c-> t)] <- q(j).
        q(j).
    "#;

    fn server() -> BeliefServer {
        let db = parse_database(SRC).unwrap();
        BeliefServer::new(db, EngineOptions::default())
    }

    fn assert_fact(text: &str) -> EdbUpdate {
        let clause = parse_clause(text).unwrap().remove(0);
        let Head::M(m) = clause.head else {
            panic!("not an m-fact: {text}");
        };
        EdbUpdate::Assert(m)
    }

    fn retract_fact(text: &str) -> EdbUpdate {
        let EdbUpdate::Assert(m) = assert_fact(text) else {
            unreachable!()
        };
        EdbUpdate::Retract(m)
    }

    #[test]
    fn readers_pin_generations_until_refresh() {
        let server = server();
        let mut reader = server.open_reader("s").unwrap();
        assert_eq!(reader.epoch(), 0);
        let goal = "s[p(k2 : a -C-> V)] << opt";
        assert!(reader.query_text(goal).unwrap().is_empty());

        let mut writer = server.open_writer().unwrap();
        let summary = writer
            .commit(&[assert_fact("u[p(k2 : a -u-> w)].")])
            .unwrap();
        assert_eq!(summary.epoch, 1);
        assert_eq!(summary.levels["s"].edb_inserted, 1);

        // Still pinned at epoch 0: the commit is invisible.
        assert_eq!(reader.epoch(), 0);
        assert!(reader.query_text(goal).unwrap().is_empty());
        assert_eq!(reader.latest_epoch(), 1);
        // Refresh moves to the new generation.
        assert_eq!(reader.refresh(), 1);
        assert_eq!(reader.query_text(goal).unwrap().len(), 1);
    }

    #[test]
    fn readers_at_distinct_levels_see_their_own_views() {
        let server = server();
        let low = server.open_reader("u").unwrap();
        let high = server.open_reader("s").unwrap();
        // No read up: the c-level derived cell is invisible at u.
        assert!(low.query_text("c[p(k : a -c-> t)]").unwrap().is_empty());
        assert_eq!(high.query_text("c[p(k : a -c-> t)]").unwrap().len(), 1);
        assert_eq!(server.open_levels(), vec!["s", "u"]);
    }

    #[test]
    fn late_opened_level_replays_history() {
        let server = server();
        {
            let mut writer = server.open_writer().unwrap();
            writer
                .commit(&[assert_fact("u[p(k2 : a -u-> w)].")])
                .unwrap();
            writer
                .commit(&[assert_fact("u[p(k3 : a -u-> x)].")])
                .unwrap();
            writer
                .commit(&[retract_fact("u[p(k3 : a -u-> x)].")])
                .unwrap();
        }
        // First open at c happens after three commits: the engine must
        // replay history and the store must align with the global epoch.
        let reader = server.open_reader("c").unwrap();
        assert_eq!(reader.epoch(), 3);
        assert_eq!(
            reader
                .query_text("c[p(k2 : a -u-> w)] << opt")
                .unwrap()
                .len(),
            1
        );
        assert!(reader
            .query_text("c[p(k3 : a -u-> x)] << opt")
            .unwrap()
            .is_empty());
    }

    #[test]
    fn single_writer_enforced() {
        let server = server();
        let first = server.open_writer().unwrap();
        assert!(matches!(
            server.open_writer().err(),
            Some(MultiLogError::WriterBusy)
        ));
        drop(first);
        assert!(server.open_writer().is_ok());
    }

    #[test]
    fn failed_commit_publishes_nothing_and_recovers() {
        let db = parse_database(SRC).unwrap();
        // A budget that clears the base materialization (which
        // transiently buffers ~54 tuples for SRC at level s) but cannot
        // absorb a 60-fact batch and its derived beliefs.
        let server = BeliefServer::new(
            db,
            EngineOptions {
                fact_limit: 100,
                ..EngineOptions::default()
            },
        );
        let mut reader = server.open_reader("s").unwrap();
        // A point goal: the session's fact budget also guards reader
        // queries, and this budget is deliberately small.
        let goal = "s[p(k2 : a -u-> w)] << opt";
        let before = reader.query_text(goal).unwrap();
        let mut writer = server.open_writer().unwrap();
        let batch: Vec<EdbUpdate> = (0..60)
            .map(|i| assert_fact(&format!("u[p(k{i} : a -u-> w)].")))
            .collect();
        let err = writer.commit(&batch);
        assert!(
            matches!(err, Err(MultiLogError::BudgetExceeded { .. })),
            "{err:?}"
        );
        // Nothing published; the reader's world is unchanged even after
        // refresh.
        assert_eq!(server.epoch(), 0);
        assert_eq!(reader.refresh(), 0);
        assert_eq!(reader.query_text(goal).unwrap(), before);
        // The server still works: a retract (which shrinks the database)
        // commits fine afterwards.
        let summary = writer
            .commit(&[retract_fact("u[p(k : a -u-> v)].")])
            .unwrap();
        assert_eq!(summary.epoch, 1);
        assert_eq!(reader.refresh(), 1);
        assert!(reader
            .query_text("s[p(k : a -u-> v)] << opt")
            .unwrap()
            .is_empty());
    }

    #[test]
    fn rejected_batch_rebuilds_no_engine() {
        let cancel = dl::CancelToken::new();
        let server = BeliefServer::new(
            parse_database(SRC).unwrap(),
            EngineOptions {
                cancel: Some(cancel.clone()),
                ..EngineOptions::default()
            },
        );
        server.open_reader("u").unwrap();
        server.open_reader("s").unwrap();
        // Every evaluation from here on is cancelled, rebuilds included.
        cancel.cancel();
        let mut writer = server.open_writer().unwrap();
        let err = writer.commit(&[assert_fact("u[p(K : a -u-> w)].")]);
        assert!(
            matches!(err, Err(MultiLogError::NonGroundUpdate { .. })),
            "{err:?}"
        );
        // The batch was rejected before it reached any engine, so no
        // level was rebuilt (and parked by the cancelled rebuild):
        // opening at an open level needs no evaluation.
        for user in ["u", "s"] {
            let reader = server.open_reader(user).unwrap();
            assert_eq!(reader.epoch(), 0);
        }
        cancel.reset();
        assert_eq!(
            writer
                .commit(&[assert_fact("u[p(k2 : a -u-> w)].")])
                .unwrap()
                .epoch,
            1
        );
    }

    #[test]
    fn empty_commit_is_a_noop() {
        let server = server();
        let _ = server.open_reader("u").unwrap();
        let mut writer = server.open_writer().unwrap();
        let summary = writer.commit(&[]).unwrap();
        assert_eq!(summary.epoch, 0);
        assert!(summary.levels.is_empty());
        assert_eq!(server.epoch(), 0);
    }

    #[test]
    fn unknown_level_rejected_on_open() {
        let server = server();
        assert!(matches!(
            server.open_reader("zz").err(),
            Some(MultiLogError::NotAdmissible { .. })
        ));
    }

    #[test]
    fn reader_sessions_cross_threads() {
        let server = Arc::new(server());
        let reader = server.open_reader("s").unwrap();
        let handle = std::thread::spawn(move || {
            reader
                .query_text("s[p(k : a -u-> v)] << opt")
                .unwrap()
                .len()
        });
        {
            let mut writer = server.open_writer().unwrap();
            writer
                .commit(&[assert_fact("u[p(k9 : a -u-> z)].")])
                .unwrap();
        }
        assert_eq!(handle.join().unwrap(), 1);
    }

    #[test]
    fn validation_errors_do_not_advance_the_epoch() {
        let server = server();
        let _ = server.open_reader("s").unwrap();
        let mut writer = server.open_writer().unwrap();
        let err = writer.commit(&[assert_fact("u[p(K : a -u-> w)].")]);
        assert!(matches!(err, Err(MultiLogError::NonGroundUpdate { .. })));
        assert_eq!(server.epoch(), 0);
        let EdbUpdate::Assert(mut m) = assert_fact("u[p(k : a -u-> w)].") else {
            unreachable!()
        };
        m.level = crate::ast::Term::sym("zz");
        let err = writer.commit(&[EdbUpdate::Assert(m)]);
        assert!(matches!(err, Err(MultiLogError::NotAdmissible { .. })));
        assert_eq!(server.epoch(), 0);
    }
}
