//! A long-lived, concurrent belief service over the τ reduction: one
//! writer, any number of readers at (possibly distinct) clearance
//! levels, with **snapshot isolation** between them.
//!
//! ## Architecture
//!
//! The server keeps **one** incremental [`ReducedEngine`] for every
//! clearance: τ holds the clearance as data. The Figure 12 axioms carry
//! the belief level, and a rule whose body labels are provably dominated
//! by its head level derives nothing a clearance could not see, so such
//! rules run once, without the `dominate(_, u)` no-read-up guards of
//! §6.2; each reader's goal-time guards hide what lies above its
//! clearance (the restriction lemma, docs/SEMANTICS.md). The remaining
//! rules — the dependent cone — carry the clearance as a column, one
//! slice per `clearance(u)` base fact. The engine is built at the first
//! `open` (or commit); opening another clearance records it, and commits
//! `+clearance(u)` when the cone is not empty, so delta maintenance
//! derives the new slice alone.
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
    /// unless the program has a clearance-dependent cone, whose slice for
    /// `user` is then committed and replaces the current generation at
    /// its epoch.
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
    /// one is given. Opening a new clearance commits its slice, and the
    /// result replaces the current generation at the same epoch: it holds
    /// the same committed updates.
    fn serve(
        &mut self,
        user: Option<&str>,
    ) -> Result<(&mut ReducedEngine, &Arc<dl::GenerationStore>)> {
        let slot = match self.engine.take() {
            Some(slot) => slot,
            None => {
                let engine = ReducedEngine::materialized(&self.db, user, self.options.clone())?;
                let store = Arc::new(dl::GenerationStore::new(engine.database_snapshot()));
                (engine, store)
            }
        };
        let (engine, store) = self.engine.insert(slot);
        if let Some(user) = user {
            let db = &self.db;
            if healed(engine, |engine| engine.open_clearance(db, user))?.is_some() {
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
        let stats = healed(engine, |engine| engine.apply_updates(updates))?;
        Ok(CommitSummary {
            epoch: store.publish(engine.database_snapshot()),
            levels: BTreeMap::from([(SHARED_ENGINE.to_owned(), Box::new(stats))]),
        })
    }
}

/// Run one commit `step` on `engine`, healed first if an earlier failure
/// left it poisoned. A failed step has rolled the base back; the engine
/// heals over it at once (a failed heal is retried by the next step).
fn healed<T>(
    engine: &mut ReducedEngine,
    step: impl FnOnce(&mut ReducedEngine) -> Result<T>,
) -> Result<T> {
    if engine.is_poisoned() {
        engine.rematerialize()?;
    }
    let out = step(engine);
    if out.is_err() && engine.is_poisoned() {
        let _ = engine.rematerialize();
    }
    out
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
    use crate::reduce::tests::{fresh_goal, FRESH_GOALS_DB};
    use std::collections::BTreeSet;

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
    /// both depend on the clearance, so each open level gets a slice.
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

    /// Every fact of `db`, rendered `pred[args]`.
    fn facts(db: &dl::Database) -> BTreeSet<String> {
        let rows = db
            .relations()
            .flat_map(|(p, r)| r.iter().map(move |f| (p, f)));
        rows.map(|(p, f)| format!("{p}{f:?}")).collect()
    }

    /// The statistics of the engine's last full materialization.
    fn materialized(server: &BeliefServer) -> String {
        let inner = lock(&server.inner);
        format!("{:?}", inner.engine.as_ref().map(|(e, _)| e.stats()))
    }

    #[test]
    fn late_opened_level_with_a_dependent_cone_commits_its_slice() {
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
        // The cone is not empty: opening u commits its slice, so a
        // cancelled evaluation fails the open, u stays unserved, and
        // readers keep their generation.
        cancel.cancel();
        assert!(matches!(
            server.open_reader("u"),
            Err(MultiLogError::Cancelled)
        ));
        cancel.reset();
        assert_eq!(server.open_levels(), vec!["s"]);
        assert_eq!(top.refresh(), 3);
        let mut readers = vec![server.open_reader("u").unwrap()];
        assert_eq!(top.refresh(), 3);
        // Opening c commits c's slice and nothing else: no fact goes, each
        // new one is c's, the engine is not materialized again, and the
        // result replaces the generation at the same epoch.
        let before = facts(top.snapshot().database());
        let materialization = materialized(&server);
        readers.push(server.open_reader("c").unwrap());
        assert_eq!(materialized(&server), materialization);
        assert_eq!(top.refresh(), 3);
        let after = facts(top.snapshot().database());
        assert!(before.is_subset(&after));
        let added: Vec<&String> = after.difference(&before).collect();
        let slice = |f: &&String| f.ends_with(", c]") || *f == "clearance[c]";
        assert!(added.len() > 1 && added.iter().all(slice), "{added:?}");
        let committed = format!("{CONE_SRC} u[p(k2 : a -u-> w)].");
        let db = parse_database(&committed).unwrap();
        for reader in readers.iter().chain([&top]) {
            assert_eq!(reader.epoch(), 3);
            let op = crate::MultiLogEngine::new(&db, reader.user()).unwrap();
            for goal in [
                "L[p(K : a -C-> V)] << opt",
                "L[low(K : a -C-> V)]",
                "L[low(K : a -C-> V)] << cau",
                "hot(K)",
            ] {
                assert_eq!(
                    reader.query_text(goal).unwrap(),
                    op.solve_text(goal).unwrap(),
                    "`{goal}` at {}",
                    reader.user()
                );
            }
        }
        // The slices differ by clearance: u derives nothing from the c
        // cells it may not read.
        let count = |r: &ReaderSession, goal: &str| r.query_text(goal).unwrap().len();
        let at_each = |goal: &str| {
            let [u, c] = [&readers[0], &readers[1]].map(|r| count(r, goal));
            (u, c, count(&top, goal))
        };
        assert_eq!(at_each("hot(K)"), (2, 3, 3));
        assert_eq!(at_each("u[low(K : a -C-> V)]"), (0, 2, 2));
    }

    /// Each reader's sorted answers to `goal`, rendered.
    fn answers(reader: &ReaderSession, goal: &str) -> Vec<String> {
        let answers = reader.query_text(goal).unwrap();
        answers.iter().map(|a| format!("{a:?}")).collect()
    }

    #[test]
    fn an_algorithm_over_the_cone_runs_per_clearance() {
        let src = "level(l0). level(l1). order(l0, l1).
            l0[data(a : a -l0-> b)].
            l1[data(b : a -l1-> c)].
            e(X, Y) <- L[data(X : a -C-> Y)].
            r(X, Y) <- @bfs(e, X, Y).";
        let server = BeliefServer::new(parse_database(src).unwrap(), EngineOptions::default());
        // Opened top first, so the open of l0 commits l0's slice.
        let high = server.open_reader("l1").unwrap();
        let low = server.open_reader("l0").unwrap();
        // The answers each clearance's own reduction gave before the
        // clearance was a column.
        assert_eq!(answers(&low, "r(X, Y)").len(), 1);
        assert_eq!(answers(&high, "r(X, Y)").len(), 3);
        assert_eq!(low.query_text("r(a, c)").unwrap().len(), 0);
        assert_eq!(high.query_text("r(a, c)").unwrap().len(), 1);
        // A goal-only call over the sliced input reads the reader's slice.
        assert_eq!(low.query_text("@bfs(e, a, Y)").unwrap().len(), 1);
        assert_eq!(high.query_text("@bfs(e, a, Y)").unwrap().len(), 2);
    }

    #[test]
    fn the_dashboard_answers_per_clearance() {
        let src = include_str!("../../../examples/data/dashboard.mlog");
        let server = BeliefServer::new(parse_database(src).unwrap(), EngineOptions::default());
        let low = server.open_reader("u").unwrap();
        let high = server.open_reader("s").unwrap();
        // Each clearance's own reduction answered these before the
        // clearance was a column: one dashboard row per level it sees.
        let rows = |r: &ReaderSession| -> Vec<(String, String)> {
            let answers = r.query_text("total(H, N)").unwrap();
            answers
                .iter()
                .map(|a| (a["H"].to_string(), a["N"].to_string()))
                .collect()
        };
        let row = |h: &str, n: &str| (h.to_owned(), n.to_owned());
        assert_eq!(rows(&low), [row("u", "2")]);
        assert_eq!(rows(&high), [row("c", "4"), row("s", "6"), row("u", "2")]);
        for reader in [&low, &high] {
            assert_eq!(reader.query_text("chain(alice, Y)").unwrap().len(), 3);
        }
        let beliefs = "H[emp(K : sal -C-> V)] << opt";
        assert_eq!(low.query_text(beliefs).unwrap().len(), 2);
        assert_eq!(high.query_text(beliefs).unwrap().len(), 12);
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
        // Every evaluation from here on is cancelled, opens included.
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

    #[test]
    fn prepared_cache_stays_bounded_under_fresh_goals() {
        let db = parse_database(FRESH_GOALS_DB).unwrap();
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
