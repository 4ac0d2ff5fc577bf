//! A long-lived, concurrent belief service over the τ reduction: one
//! writer, any number of readers at (possibly distinct) clearance
//! levels, with **snapshot isolation** between them.
//!
//! ## Architecture
//!
//! The server keeps **one** incremental [`ReducedEngine`] for every
//! clearance: a shared reduction ([`ReducedEngine::for_clearances`]).
//! The Figure 12 axioms carry the belief level, and a rule whose body
//! labels are provably dominated by its head level derives nothing a
//! clearance could not see, so such rules run once, without the
//! `dominate(_, u)` no-read-up guards of §6.2; each reader's goal-time
//! guards hide what lies above its clearance (the restriction lemma,
//! docs/SEMANTICS.md). The remaining rules — the dependent cone — run
//! once per open clearance, under renamed predicates. The engine is built at the first `open` (or
//! commit); opening another clearance records it, and rebuilds the
//! engine over its current base only when the cone is not empty.
//!
//! The engine publishes into one [`dl::GenerationStore`]: after every
//! committed batch the writer publishes the new materialization as the
//! next *generation* (a copy-on-write [`dl::Database`] clone — an
//! O(#relations) handle, not a copy of the facts). Readers pin a
//! generation when they open (or [`ReaderSession::refresh`]) and answer
//! every goal from that pinned snapshot through a detached
//! [`GoalTranslator`] — they never touch the engine, so a reader never
//! blocks on a writer's delta propagation, and a writer never waits for
//! readers. The only shared lock a reader takes is the generation
//! store's pointer read, held for one `Arc` clone. The store's epoch
//! counts committed batches: "epoch *e*" names the reduction of exactly
//! the base database plus the first *e* committed batches, at every
//! clearance — the property the snapshot-consistency stress oracle
//! checks.
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
//! A commit applies the batch to the engine, then publishes. If it
//! fails, nothing is published, the epoch does not advance, and the
//! writer sees the typed error. A batch rejected before it reaches the
//! engine (a non-ground or undeclared-level update) changes nothing. A
//! commit that fails mid-maintenance (a guard trip) leaves the base
//! rolled back to its pre-commit state and the engine poisoned; the
//! server rematerializes it over that base at once, and again before the
//! next commit if that heal failed too. Readers keep answering from
//! their pinned generations throughout.

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
use crate::reduce::{EdbUpdate, GoalTranslator, PreparedStats, ReducedEngine};
use crate::{MultiLogError, Result};

/// The key of the one entry in [`CommitSummary::levels`]: the shared
/// engine every clearance reads.
pub const SHARED_ENGINE: &str = "shared";

struct ServerInner {
    db: MultiLogDb,
    options: EngineOptions,
    /// The one reduction every clearance reads and the store it
    /// publishes to; built at the first open or commit.
    engine: Option<(ReducedEngine, Arc<dl::GenerationStore>)>,
    writer_open: bool,
}

/// What one committed batch did.
#[derive(Clone, Debug)]
pub struct CommitSummary {
    /// The epoch the batch was published at.
    pub epoch: u64,
    /// Maintenance statistics: one entry, keyed [`SHARED_ENGINE`], for
    /// the engine every clearance reads (none for an empty batch). A map
    /// for the clients that read it per engine. Boxed because a map node
    /// reserves room for eleven values: unboxed, a one-entry map held
    /// ~1.5 KB per summary for clients that keep one per commit.
    pub levels: BTreeMap<String, Box<dl::CommitStats>>,
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
    /// Create a server over `db`. The engine is built at the first open
    /// or commit, under `options` (fact budget, deadline, cancellation) —
    /// the same guard plumbing the single-session engines use.
    pub fn new(db: MultiLogDb, options: EngineOptions) -> Self {
        BeliefServer {
            inner: Mutex::new(ServerInner {
                db,
                options,
                engine: None,
                writer_open: false,
            }),
        }
    }

    /// Open a reader session at clearance `user`, pinned to the
    /// generation current *now*: later commits are invisible until
    /// [`ReaderSession::refresh`]. The first open pays for the
    /// materialization. Opening another clearance evaluates nothing
    /// unless the program has a clearance-dependent cone, which is then
    /// copied for `user` by rebuilding the engine over its current base.
    ///
    /// # Errors
    ///
    /// [`MultiLogError::NotAdmissible`] for an undeclared level, or any
    /// evaluation error from materializing.
    pub fn open_reader(&self, user: &str) -> Result<ReaderSession> {
        let mut inner = lock(&self.inner);
        let (engine, store) = inner.serve(Some(user))?;
        Ok(ReaderSession {
            translator: engine.goal_translator(user)?,
            store: Arc::clone(store),
            snapshot: store.snapshot(),
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
        lock(&self.inner).epoch()
    }

    /// The clearance levels readers have opened, in order.
    pub fn open_levels(&self) -> Vec<String> {
        let inner = lock(&self.inner);
        let mut levels = inner
            .engine
            .as_ref()
            .map_or_else(Vec::new, |(e, _)| e.clearances().to_vec());
        levels.sort();
        levels
    }
}

impl std::fmt::Debug for BeliefServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = lock(&self.inner);
        f.debug_struct("BeliefServer")
            .field("epoch", &inner.epoch())
            .field("engine", &inner.engine.as_ref().map(|(e, _)| e))
            .field("writer_open", &inner.writer_open)
            .finish_non_exhaustive()
    }
}

impl ServerInner {
    fn epoch(&self) -> u64 {
        self.engine.as_ref().map_or(0, |(_, store)| store.epoch())
    }

    /// The engine and its store, built on first use, serving `user` when
    /// one is given. A rebuild for a new clearance replaces the current
    /// generation at the same epoch: it holds the same committed state.
    fn serve(
        &mut self,
        user: Option<&str>,
    ) -> Result<(&mut ReducedEngine, &Arc<dl::GenerationStore>)> {
        let slot = match self.engine.take() {
            Some(slot) => slot,
            None => {
                let clearances: Vec<String> = user.into_iter().map(str::to_owned).collect();
                let engine =
                    ReducedEngine::for_clearances(&self.db, &clearances, self.options.clone())?;
                let store = Arc::new(dl::GenerationStore::new(engine.database_snapshot()));
                (engine, store)
            }
        };
        let (engine, store) = self.engine.insert(slot);
        if let Some(user) = user {
            if engine.open_clearance(&self.db, user)? {
                store.replace(engine.database_snapshot());
            }
        }
        Ok((engine, store))
    }

    /// Apply one batch to the engine and publish the next generation, or
    /// publish nothing and leave the committed state as it was.
    fn commit(&mut self, updates: &[EdbUpdate]) -> Result<CommitSummary> {
        if updates.is_empty() {
            return Ok(CommitSummary {
                epoch: self.epoch(),
                levels: BTreeMap::new(),
            });
        }
        let (engine, store) = self.serve(None)?;
        if engine.is_poisoned() {
            engine.rematerialize()?;
        }
        match engine.apply_updates(updates) {
            Ok(stats) => Ok(CommitSummary {
                epoch: store.publish(engine.database_snapshot()),
                levels: BTreeMap::from([(SHARED_ENGINE.to_owned(), Box::new(stats))]),
            }),
            Err(error) => {
                // The back-end rolled the base back; heal over it now (a
                // failed heal is retried by the next commit).
                if engine.is_poisoned() {
                    let _ = engine.rematerialize();
                }
                Err(error)
            }
        }
    }
}

/// A reader session: a pinned generation plus the goal translator for
/// its clearance, which keeps the session's prepared queries (one per
/// goal shape; a clone starts with none). `Send`, cheap to move into a
/// thread, and entirely independent of the server's engines — queries
/// here can never block a commit and vice versa.
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

    /// How many query plans this session compiled, and how many goals a
    /// cached plan answered: one plan per goal shape, reused across
    /// refreshes. A clone starts counting from zero.
    pub fn prepared_stats(&self) -> PreparedStats {
        self.translator.prepared_stats()
    }
}

/// The single writer session. Batches committed here become visible to
/// readers only at their next refresh/open. Dropping the session frees
/// the writer slot.
pub struct WriterSession<'a> {
    server: &'a BeliefServer,
}

impl WriterSession<'_> {
    /// Commit one batch of extensional updates and publish the next
    /// generation, which every clearance reads. Atomic: on error nothing
    /// is published, the epoch does not advance, and the engine is
    /// restored to the committed state.
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
    use crate::reduce::ReducedEngine;

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

    /// Whether the server's engine is poisoned (awaiting a heal).
    fn poisoned(server: &BeliefServer) -> bool {
        let inner = lock(&server.inner);
        inner.engine.as_ref().is_some_and(|(e, _)| e.is_poisoned())
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
        assert_eq!(summary.levels[SHARED_ENGINE].edb_inserted, 1);

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

    /// Three commits: assert k2 and k3, retract k3.
    fn commit_three(server: &BeliefServer) {
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

    #[test]
    fn late_opened_level_evaluates_nothing_with_an_empty_cone() {
        let cancel = dl::CancelToken::new();
        let server = BeliefServer::new(
            parse_database(SRC).unwrap(),
            EngineOptions {
                cancel: Some(cancel.clone()),
                ..EngineOptions::default()
            },
        );
        server.open_reader("s").unwrap();
        commit_three(&server);
        // Every rule of SRC is clearance-free: the fixpoint already holds
        // c's answers, so opening c must not evaluate (a cancelled
        // evaluation would fail the open).
        cancel.cancel();
        let reader = server.open_reader("c").unwrap();
        cancel.reset();
        assert_eq!(reader.epoch(), 3);
        assert_eq!(server.open_levels(), vec!["c", "s"]);
        let k2 = reader.query_text("c[p(k2 : a -u-> w)] << opt").unwrap();
        assert_eq!(k2.len(), 1);
        let k3 = reader.query_text("c[p(k3 : a -u-> x)] << opt").unwrap();
        assert!(k3.is_empty());
    }

    /// SRC plus a write-down rule and a p-atom head over a guarded body:
    /// both depend on the clearance, so each open level gets a copy.
    const CONE_SRC: &str = r#"
        level(u). level(c). level(s).
        order(u, c). order(c, s).
        u[p(k : a -u-> v)].
        c[p(k : a -c-> t)] <- q(j).
        c[p(k5 : a -c-> z)].
        q(j).
        u[low(K : a -u-> V)] <- c[p(K : a -C-> V)].
        hot(K) <- L[p(K : a -C-> V)].
    "#;

    #[test]
    fn late_opened_level_with_a_dependent_cone_matches_a_fresh_reduction() {
        let cancel = dl::CancelToken::new();
        let server = BeliefServer::new(
            parse_database(CONE_SRC).unwrap(),
            EngineOptions {
                cancel: Some(cancel.clone()),
                ..EngineOptions::default()
            },
        );
        let mut top = server.open_reader("s").unwrap();
        commit_three(&server);
        // The cone is not empty: opening u rebuilds the engine, so a
        // cancelled evaluation fails the open and leaves the server as
        // it was.
        cancel.cancel();
        assert!(matches!(
            server.open_reader("u"),
            Err(MultiLogError::Cancelled)
        ));
        cancel.reset();
        assert_eq!(server.open_levels(), vec!["s"]);
        let readers: Vec<ReaderSession> = ["u", "c"]
            .iter()
            .map(|user| server.open_reader(user).unwrap())
            .collect();
        // The rebuild replaced the generation at the same epoch.
        assert_eq!(top.refresh(), 3);
        let committed = format!("{CONE_SRC} u[p(k2 : a -u-> w)].");
        let db = parse_database(&committed).unwrap();
        for reader in readers.iter().chain([&top]) {
            assert_eq!(reader.epoch(), 3);
            let fresh = ReducedEngine::new(&db, reader.user()).unwrap();
            for goal in [
                "L[p(K : a -C-> V)] << opt",
                "L[low(K : a -C-> V)]",
                "L[low(K : a -C-> V)] << cau",
                "hot(K)",
            ] {
                assert_eq!(
                    reader.query_text(goal).unwrap(),
                    fresh.solve_text(goal).unwrap(),
                    "`{goal}` at {}",
                    reader.user()
                );
            }
        }
        // The copies differ by clearance: u derives nothing from the c
        // cells it may not read.
        let count = |r: &ReaderSession, goal: &str| r.query_text(goal).unwrap().len();
        let at_each = |goal: &str| {
            let [u, c] = [&readers[0], &readers[1]].map(|r| count(r, goal));
            (u, c, count(&top, goal))
        };
        assert_eq!(at_each("hot(K)"), (2, 3, 3));
        assert_eq!(at_each("u[low(K : a -C-> V)]"), (0, 2, 2));
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
        // refresh. The engine was healed over the rolled-back base.
        assert!(!poisoned(&server));
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
        // The batch was rejected before it reached the engine, so there
        // was nothing to heal (a cancelled heal would leave it poisoned),
        // and opening at an open level needs no evaluation.
        assert!(!poisoned(&server));
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

    /// Goal `i` of a serve client that names its variables afresh in
    /// every goal: 200 shapes — one or two m-/b-atoms, each binding or
    /// leaving open its key, class and value — each asked five times in a
    /// row, with rotating constants in every bound position.
    fn fresh_goal(i: usize) -> String {
        let shape = (i / 5) % 200;
        let atom = |pattern: usize, key: &str, tag: &str| {
            let pick = |bit: usize, constant: String, var: String| {
                if pattern & bit == 0 {
                    constant
                } else {
                    var
                }
            };
            let level = ["u", "c", "s"][(i / 5) % 3];
            let key = pick(1, ["k1", "k2", "k3"][i % 3].to_owned(), key.to_owned());
            let class = pick(2, ["u", "c"][(i / 2) % 2].to_owned(), format!("C{tag}{i}"));
            let value = pick(
                4,
                ["v1", "v2", "v3"][(i / 3) % 3].to_owned(),
                format!("V{tag}{i}"),
            );
            let m = format!("{level}[p({key} : a -{class}-> {value})]");
            if pattern & 8 == 0 {
                m
            } else {
                format!("{m} << {}", ["fir", "opt", "cau"][shape % 3])
            }
        };
        let key = format!("K{i}");
        let first = atom(shape % 16, &key, "a");
        match shape / 16 {
            0 => first,
            n => format!("{first}, {}", atom(n - 1, &key, "b")),
        }
    }

    #[test]
    fn prepared_cache_stays_bounded_under_fresh_goals() {
        let src = r#"
            level(u). level(c). level(s).
            order(u, c). order(c, s).
            u[p(k1 : a -u-> v1)]. c[p(k1 : a -c-> v2)]. s[p(k2 : a -u-> v1)].
            c[p(k2 : a -u-> v3)]. u[p(k3 : a -u-> v2)].
            c[p(k3 : a -c-> v3)] <- q(k3).
            q(k3).
        "#;
        let db = parse_database(src).unwrap();
        let op = crate::MultiLogEngine::new(&db, "c").unwrap();
        let server = BeliefServer::new(db, EngineOptions::default());
        let reader = server.open_reader("c").unwrap();
        let mut answered = 0;
        for i in 0..10_000 {
            let goal = fresh_goal(i);
            let answers = reader.query_text(&goal).unwrap();
            assert_eq!(answers, op.solve_text(&goal).unwrap(), "`{goal}`");
            answered += usize::from(!answers.is_empty());
            let stats = reader.prepared_stats();
            assert!(stats.cached <= crate::reduce::MAX_PREPARED, "{stats:?}");
        }
        assert!(answered >= 1_000, "only {answered} goals have answers");
        // Four of every five goals repeat the previous goal's shape.
        let stats = reader.prepared_stats();
        assert_eq!(stats.compiled + stats.hits, 10_000);
        assert_eq!(stats.hits, 8_000, "{stats:?}");
        // Renaming variables alone reuses the plan.
        let goal = "c[p(K : a -C-> V)] << opt, u[p(K : a -u-> W)]";
        let renamed = "c[p(Key : a -Class-> Val)] << opt, u[p(Key : a -u-> Other)]";
        let want = reader.query_text(goal).unwrap();
        let before = reader.prepared_stats();
        let got = reader.query_text(renamed).unwrap();
        let after = reader.prepared_stats();
        assert_eq!(
            (after.compiled, after.cached),
            (before.compiled, before.cached)
        );
        assert_eq!(after.hits, before.hits + 1);
        let values = |answers: &[Answer], vars: [&str; 4]| -> Vec<Vec<String>> {
            let mut out: Vec<Vec<String>> = answers
                .iter()
                .map(|a| vars.iter().map(|v| a[v].to_string()).collect())
                .collect();
            out.sort();
            out
        };
        assert!(!want.is_empty());
        assert_eq!(
            values(&got, ["Key", "Class", "Val", "Other"]),
            values(&want, ["K", "C", "V", "W"])
        );
        // A clone starts with an empty cache.
        assert_eq!(reader.clone().prepared_stats(), PreparedStats::default());
    }
}
