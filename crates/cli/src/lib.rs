//! Command implementations for the `multilog` CLI — the front-end
//! architecture of §6 made concrete: load a MultiLog database, pick a
//! clearance, and run queries through either the operational engine or
//! the Datalog reduction.
//!
//! Every command is a pure function from parsed arguments to a printable
//! `String`, so the behaviour is unit-testable without process spawning;
//! `main.rs` only parses `argv` and prints.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::io::BufRead as _;
use std::sync::Arc;

use multilog_core::consistency::check_consistency;
use multilog_core::proof::prove_text;
use multilog_core::reduce::{EdbUpdate, ReducedEngine};
use multilog_core::{
    parse_items, BeliefServer, EngineOptions, MultiLogDb, MultiLogEngine, MultiLogError,
    ReaderSession,
};

/// Which evaluation pipeline to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// The operational (proof-system) engine.
    #[default]
    Operational,
    /// The τ-reduction executed on the Datalog back-end.
    Reduced,
}

/// Parsed command-line options shared by the commands.
#[derive(Clone, Debug, Default)]
pub struct Options {
    /// The clearance level to evaluate at.
    pub user: String,
    /// Engine selection.
    pub engine: EngineKind,
    /// Enable the Figure 13 σ filter (operational engine only).
    pub filter: bool,
    /// Wall-clock deadline for evaluation and each query, in
    /// milliseconds (`--deadline`).
    pub deadline_ms: Option<u64>,
    /// Budget on derived facts (`--max-facts`; engine default when
    /// absent).
    pub max_facts: Option<usize>,
    /// Print per-rule / per-clause evaluation statistics (`--stats`).
    pub stats: bool,
    /// Emit machine-readable JSON from `lint` (`--format json`).
    pub json: bool,
    /// `query` only: disable the magic-sets demand rewrite for
    /// reduced-engine goals and answer from the full fixpoint
    /// (`--no-magic`).
    pub no_magic: bool,
    /// `serve` only: accept line-protocol connections on this TCP
    /// address instead of stdin (`--listen`).
    pub listen: Option<String>,
    /// Refuse to evaluate when the lattice-flow analysis reports any
    /// ML02xx finding (`--deny flow`; `run`/`query`/`serve`).
    pub deny_flow: bool,
    /// `query` only: prune statically-invisible rules from demand-driven
    /// goal evaluation using the lattice-flow bounds (`--flow-prune`).
    pub flow_prune: bool,
    /// `analyze` only: explain one predicate's inferred bounds instead
    /// of printing the whole report (`--explain <pred>`).
    pub explain: Option<String>,
}

/// Errors surfaced to the CLI user.
pub type CliResult = Result<String, String>;

/// Translate CLI options into engine options (shared with the repl).
pub fn engine_options(opts: &Options) -> EngineOptions {
    EngineOptions {
        enable_filter: opts.filter,
        enable_filter_null: opts.filter,
        fact_limit: opts.max_facts.unwrap_or(0),
        deadline: opts.deadline_ms.map(std::time::Duration::from_millis),
        cancel: None,
        flow_prune: opts.flow_prune,
    }
}

/// Refuse `--filter` on a path that answers through the reduction: τ does
/// not implement Figure 13's σ filter, so the flag would be silently
/// ignored and change answers without notice.
fn reject_filter(opts: &Options, path: &str) -> Result<(), String> {
    if opts.filter {
        return Err(format!(
            "--filter (the Figure 13 σ filter) is implemented by the operational \
             engine only; {path} answers through the reduction, which would ignore it"
        ));
    }
    Ok(())
}

/// Parse `source` once and admit it. A syntax error reads "cannot parse
/// database:"; a program the load refuses reads "database refused:" with
/// the refusing finding rendered as `multilog lint` renders it.
fn load(source: &str) -> Result<MultiLogDb, String> {
    let prog = parse_items(source).map_err(|e| format!("cannot parse database: {e}"))?;
    MultiLogDb::admit(prog).map_err(|d| {
        let rendered = d.render_human(source, "<db>");
        format!("database refused:\n\n{}", rendered.trim_end())
    })
}

fn operational(db: &MultiLogDb, opts: &Options) -> Result<MultiLogEngine, String> {
    MultiLogEngine::with_options(db, &opts.user, engine_options(opts))
        .map_err(|e| format!("evaluation failed: {e}"))
}

/// The engine `run`/`query` actually got: the operational engine they
/// asked for, or the reduction it fell back to (see
/// [`operational_or_reduced`]).
enum EitherEngine {
    Op(Box<MultiLogEngine>),
    Red(Box<ReducedEngine>),
}

impl EitherEngine {
    fn solve(&self, q: &multilog_core::ast::Goal) -> Result<Vec<multilog_core::Answer>, String> {
        match self {
            EitherEngine::Op(e) => e.solve(q).map_err(|e| e.to_string()),
            EitherEngine::Red(e) => e.solve(q).map_err(|e| e.to_string()),
        }
    }

    fn solve_text(&self, goal: &str) -> Result<Vec<multilog_core::Answer>, String> {
        match self {
            EitherEngine::Op(e) => e.solve_text(goal).map_err(|e| e.to_string()),
            EitherEngine::Red(e) => e.solve_text(goal).map_err(|e| e.to_string()),
        }
    }

    fn stats_summary(&self) -> String {
        match self {
            EitherEngine::Op(e) => e.stats().summary(),
            EitherEngine::Red(e) => e.stats().summary(),
        }
    }
}

/// Construct the operational engine, falling back to the reduction when
/// the database uses constructs only the reduction evaluates (aggregate
/// heads, `@algo` operators). `run`/`query` default to the operational
/// engine, so without the fallback every aggregate database would need
/// an explicit `--engine red`; the typed [`ReductionOnly`] refusal names
/// the engine that can answer, and the CLI acts on it. The returned
/// string is the note to print when the fallback engaged (empty
/// otherwise).
///
/// [`ReductionOnly`]: multilog_core::MultiLogError::ReductionOnly
fn operational_or_reduced(
    db: &MultiLogDb,
    opts: &Options,
) -> Result<(EitherEngine, String), String> {
    match MultiLogEngine::with_options(db, &opts.user, engine_options(opts)) {
        Ok(e) => Ok((EitherEngine::Op(Box::new(e)), String::new())),
        Err(multilog_core::MultiLogError::ReductionOnly { .. }) => {
            reject_filter(opts, "a database with aggregates or algorithm operators")?;
            let e = ReducedEngine::with_options(db, &opts.user, engine_options(opts))
                .map_err(|e| e.to_string())?;
            Ok((
                EitherEngine::Red(Box::new(e)),
                "(aggregates/algorithm operators present: answering via the reduction)\n"
                    .to_owned(),
            ))
        }
        Err(e) => Err(format!("evaluation failed: {e}")),
    }
}

/// `--deny flow` for `run`/`query`/`serve`: refuse to evaluate when the
/// lattice-flow analysis of the admitted database reports any ML02xx
/// finding (inference channels are warnings, but `--deny flow` treats
/// the program as untrusted until they are resolved).
fn deny_flow(db: &MultiLogDb, source: &str, opts: &Options) -> Result<(), String> {
    if !opts.deny_flow {
        return Ok(());
    }
    let report = multilog_core::analyze_db(db);
    let findings = report.diagnostics();
    if findings.is_empty() {
        return Ok(());
    }
    let mut out = format!(
        "--deny flow: the lattice-flow analysis found {} channel \
         finding{}; run `multilog analyze` for details\n\n",
        findings.len(),
        if findings.len() == 1 { "" } else { "s" },
    );
    for d in findings {
        out.push_str(&d.render_human(source, "<db>"));
    }
    Err(out.trim_end().to_owned())
}

/// `multilog analyze <file>`: run the lattice-flow abstract
/// interpretation and print per-predicate level/class bounds plus the
/// ML02xx channel findings (rustc-style, or JSON with `--format json`).
/// `--explain <pred>` narrows the output to one predicate's bound
/// derivation.
pub fn analyze(source: &str, source_name: &str, opts: &Options) -> CliResult {
    let report =
        multilog_core::analyze_source(source).map_err(|e| format!("cannot parse database: {e}"))?;
    if let Some(pred) = opts.explain.as_deref() {
        let rendered = if opts.json {
            report.explain_json(pred)
        } else {
            report.explain(pred)
        };
        return rendered.ok_or_else(|| format!("no predicate named `{pred}` in the program"));
    }
    if opts.json {
        Ok(format!("{}\n", report.render_json()))
    } else {
        Ok(report.render_human(source_name))
    }
}

/// `multilog lint <file>`: run the static-analysis pass and print the
/// findings (rustc-style, or JSON with `--format json`). `--user` is
/// optional; when given, clearance-dependent lints (ML0114) also run.
///
/// The verdict fails when the report holds an error; warnings alone
/// pass.
pub fn lint(source: &str, source_name: &str, opts: &Options) -> Result<CheckReport, String> {
    let clearance = if opts.user.is_empty() {
        None
    } else {
        Some(opts.user.as_str())
    };
    let report = multilog_core::lint_source_at(source, clearance)
        .map_err(|e| format!("cannot parse database: {e}"))?;
    let text = if opts.json {
        format!("{}\n", report.render_json())
    } else {
        report.render_human(source_name)
    };
    Ok(CheckReport {
        text,
        passed: !report.has_errors(),
    })
}

/// `multilog run <file>`: evaluate the database and answer every query in
/// its `Q` component.
pub fn run(source: &str, opts: &Options) -> CliResult {
    if opts.engine == EngineKind::Reduced {
        reject_filter(opts, "`run --engine red`")?;
    }
    let db = load(source)?;
    deny_flow(&db, source, opts)?;
    let mut out = String::new();
    let queries = db.queries().to_vec();
    if queries.is_empty() {
        let _ = writeln!(
            out,
            "(database has no queries; use `query` for ad hoc goals)"
        );
    }
    match opts.engine {
        EngineKind::Operational => {
            let (e, note) = operational_or_reduced(&db, opts)?;
            out.push_str(&note);
            match &e {
                EitherEngine::Op(op) => {
                    let _ = writeln!(
                        out,
                        "evaluated at {}: {} m-facts, {} p-facts",
                        opts.user,
                        op.mfacts().len(),
                        op.pfacts().len()
                    );
                }
                EitherEngine::Red(_) => {
                    let _ = writeln!(out, "reduced and evaluated at {}", opts.user);
                }
            }
            for (i, q) in queries.iter().enumerate() {
                let answers = e.solve(q)?;
                let _ = writeln!(out, "?- query {}: {}", i + 1, render_goal(q));
                let _ = write!(out, "{}", render_answers(&answers));
            }
            if opts.stats {
                let _ = write!(out, "{}", e.stats_summary());
            }
        }
        EngineKind::Reduced => {
            let e = ReducedEngine::with_options(&db, &opts.user, engine_options(opts))
                .map_err(|e| e.to_string())?;
            let _ = writeln!(out, "reduced and evaluated at {}", opts.user);
            for (i, q) in queries.iter().enumerate() {
                let answers = e.solve(q).map_err(|e| e.to_string())?;
                let _ = writeln!(out, "?- query {}: {}", i + 1, render_goal(q));
                let _ = write!(out, "{}", render_answers(&answers));
            }
            if opts.stats {
                let _ = write!(out, "{}", e.stats().summary());
            }
        }
    }
    Ok(out)
}

/// `multilog query <file> <goal>`: answer one ad hoc goal.
pub fn query(source: &str, goal: &str, opts: &Options) -> CliResult {
    if opts.engine == EngineKind::Reduced {
        reject_filter(opts, "`query --engine red`")?;
    }
    let db = load(source)?;
    deny_flow(&db, source, opts)?;
    let mut out = String::new();
    match opts.engine {
        EngineKind::Operational => {
            let (e, note) = operational_or_reduced(&db, opts)?;
            out.push_str(&note);
            let answers = e
                .solve_text(goal)
                .map_err(|e| format!("query failed: {e}"))?;
            out.push_str(&render_answers(&answers));
            if opts.stats {
                out.push_str(&e.stats_summary());
            }
        }
        EngineKind::Reduced if opts.no_magic => {
            let e = ReducedEngine::with_options(&db, &opts.user, engine_options(opts))
                .map_err(|e| e.to_string())?;
            let answers = e
                .solve_text(goal)
                .map_err(|e| format!("query failed: {e}"))?;
            out.push_str(&render_answers(&answers));
            if opts.stats {
                out.push_str(&e.stats().summary());
            }
        }
        EngineKind::Reduced => {
            // Demand-driven: never materialize the full fixpoint — rewrite
            // the reduction around the goal's bindings and evaluate only
            // the demanded sub-fixpoint.
            let e = ReducedEngine::with_options_deferred(&db, &opts.user, engine_options(opts))
                .map_err(|e| e.to_string())?;
            let parsed =
                multilog_core::parse_goal(goal).map_err(|e| format!("query failed: {e}"))?;
            let (answers, stats) = e
                .solve_demand_with_stats(&parsed)
                .map_err(|e| format!("query failed: {e}"))?;
            out.push_str(&render_answers(&answers));
            if opts.stats {
                out.push_str(&stats.summary());
            }
        }
    }
    Ok(out)
}

/// `multilog prove <file> <goal>`: print a Figure 9 proof tree for the
/// first answer of the goal.
pub fn prove(source: &str, goal: &str, opts: &Options) -> CliResult {
    let db = load(source)?;
    let e = operational(&db, opts)?;
    match prove_text(&e, goal).map_err(|e| e.to_string())? {
        Some(tree) => Ok(format!(
            "{}(height {}, size {})\n",
            tree.render(),
            tree.height(),
            tree.size()
        )),
        None => Ok("no proof: the goal is not provable at this clearance\n".to_owned()),
    }
}

/// `multilog reduce <file>`: print the generated Datalog program
/// `τ(Δ) ∪ A`.
pub fn reduce(source: &str, opts: &Options) -> CliResult {
    let db = load(source)?;
    let e = ReducedEngine::new(&db, &opts.user).map_err(|e| e.to_string())?;
    Ok(e.program_text().to_owned())
}

/// What `multilog check` or `multilog lint` prints, and its verdict.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// `check`: the counts, the lint section and the verdict lines;
    /// `lint`: the findings.
    pub text: String,
    /// `check`: whether the database is admissible (Def 5.3) and
    /// consistent (Def 5.4); `lint`: whether no finding is an error. The
    /// command exits 1 when it is not.
    pub passed: bool,
}

/// `multilog check <file>`: admissibility (Def 5.3) and consistency
/// (Def 5.4) diagnostics.
pub fn check(source: &str, opts: &Options) -> Result<CheckReport, String> {
    use multilog_core::ast::Head;
    let prog = parse_items(source).map_err(|e| format!("cannot parse database: {e}"))?;
    let count = |kind: fn(&Head) -> bool| prog.clauses.iter().filter(|c| kind(&c.head)).count();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "parsed: Λ={} Σ={} Π={} Q={}",
        count(|h| matches!(h, Head::L(_) | Head::H(_, _))),
        count(|h| matches!(h, Head::M(_))),
        count(|h| matches!(h, Head::P(_))),
        prog.queries.len()
    );
    let report = multilog_core::lint::lint_program(&prog, source, Some(&opts.user));
    if report.is_clean() {
        let _ = writeln!(out, "lint: clean");
    } else {
        let _ = writeln!(out, "lint: {}", report.summary());
        for d in &report.diagnostics {
            let _ = writeln!(out, "  {d}");
        }
    }
    // The admissibility verdict is the load's: `MultiLogDb::new` refuses
    // what the lint's clearance-free errors report.
    let admitted =
        MultiLogDb::new(prog.clauses, prog.queries).and_then(|db| Ok((db.lattice()?, db)));
    let (lat, db) = match admitted {
        Ok(admitted) => admitted,
        Err(e) => {
            let _ = writeln!(out, "NOT admissible: {e}");
            return Ok(CheckReport {
                text: out,
                passed: false,
            });
        }
    };
    let names: Vec<&str> = lat.names().collect();
    let _ = writeln!(out, "admissible: lattice over {{{}}}", names.join(", "));
    let e = operational(&db, opts)?;
    let consistent = check_consistency(&e);
    match &consistent {
        Ok(()) => {
            let _ = writeln!(
                out,
                "consistent at {}: {} m-facts satisfy Def 5.4",
                opts.user,
                e.mfacts().len()
            );
        }
        Err(err) => {
            let _ = writeln!(out, "NOT consistent: {err}");
        }
    }
    Ok(CheckReport {
        text: out,
        passed: consistent.is_ok(),
    })
}

/// An interactive session over a [`BeliefServer`]: goals are answered
/// from a reader pinned at the session clearance, `+fact.` / `-fact.`
/// lines commit through the server's writer (the reader is refreshed
/// after each commit), and `:prove` rebuilds the operational engine on
/// demand for proof trees.
pub struct ReplSession {
    opts: Options,
    /// The current clause set, tracking `+`/`-` updates so `:prove` (and
    /// filter-mode goals) can rebuild the operational engine faithfully.
    clauses: Vec<multilog_core::ast::Clause>,
    /// Owns the incrementally maintained reduction at the clearance.
    server: BeliefServer,
    /// Pinned at the newest commit.
    reader: ReaderSession,
    /// Lazily (re)built operational engine; `None` after an update.
    operational: Option<MultiLogEngine>,
}

impl ReplSession {
    /// Parse the database and materialize it at the session clearance.
    ///
    /// # Errors
    ///
    /// Parse, admissibility, or evaluation failures, rendered for the
    /// CLI user.
    pub fn new(source: &str, opts: &Options) -> Result<Self, String> {
        let db = load(source)?;
        let clauses = db.clauses().cloned().collect();
        let server = BeliefServer::new(db, engine_options(opts));
        let reader = server
            .open_reader(&opts.user)
            .map_err(|e| format!("evaluation failed: {e}"))?;
        Ok(ReplSession {
            opts: opts.clone(),
            clauses,
            server,
            reader,
            operational: None,
        })
    }

    /// A banner line describing the session.
    pub fn banner(&self) -> String {
        format!(
            "multilog repl at level {} — {} facts materialized; `+fact.`/`-fact.` to update, \
             `:prove <goal>` for trees; ^D to exit",
            self.opts.user,
            self.reader.snapshot().database().fact_count()
        )
    }

    /// Evaluate one REPL line: empty, `:prove <goal>`, `+<m-fact>.`,
    /// `-<m-fact>.`, or a goal.
    pub fn step(&mut self, line: &str) -> String {
        let line = line.trim();
        if line.is_empty() {
            return String::new();
        }
        if let Some(goal) = line.strip_prefix(":prove ") {
            return match self.operational() {
                Ok(engine) => match prove_text(engine, goal) {
                    Ok(Some(tree)) => tree.render(),
                    Ok(None) => "no proof\n".to_owned(),
                    Err(e) => format!("error: {e}\n"),
                },
                Err(e) => format!("error: {e}\n"),
            };
        }
        if let Some(rest) = line.strip_prefix('+') {
            return self.update(rest, true);
        }
        if let Some(rest) = line.strip_prefix('-') {
            return self.update(rest, false);
        }
        // Goals read the pinned reduction, except when the σ filter is
        // on — the reduction does not implement Figure 13, so filter
        // sessions answer from the operational engine.
        let answers = if self.opts.filter {
            self.operational()
                .and_then(|engine| engine.solve_text(line).map_err(|e| e.to_string()))
        } else {
            self.reader.query_text(line).map_err(|e| e.to_string())
        };
        match answers {
            Ok(answers) => render_answers(&answers),
            Err(e) => format!("error: {e}\n"),
        }
    }

    /// Apply one `+`/`-` update line as one server commit, keeping the
    /// clause mirror in sync and re-pinning the reader.
    fn update(&mut self, text: &str, insert: bool) -> String {
        use multilog_core::ast::{Clause, Head};
        let batch = match parse_update(text, insert) {
            Ok(batch) => batch,
            Err(e) => return format!("error: {e}\n"),
        };
        let summary = match self.server.open_writer().and_then(|mut w| w.commit(&batch)) {
            Ok(summary) => summary,
            Err(e) => return format!("error: {e}\n"),
        };
        for update in batch {
            match update {
                EdbUpdate::Assert(m) => self.clauses.push(Clause::fact(Head::M(m))),
                EdbUpdate::Retract(m) => {
                    // The base is a set: one retract removes every copy.
                    let head = Head::M(m);
                    self.clauses
                        .retain(|c| !(c.body.is_empty() && c.head == head));
                }
            }
        }
        self.operational = None; // stale; rebuilt on demand
        self.reader.refresh();
        let stats = summary
            .levels
            .get(multilog_core::SHARED_ENGINE)
            .cloned()
            .unwrap_or_default();
        let (sign, base) = if insert {
            ('+', stats.edb_inserted)
        } else {
            ('-', stats.edb_retracted)
        };
        format!(
            "ok: {sign}{base} base fact, +{}/-{} derived ({:.2} ms)\n",
            stats.derived_added, stats.derived_removed, stats.wall_ms
        )
    }

    /// The operational engine over the current clause set, rebuilding it
    /// if an update made the cached one stale.
    fn operational(&mut self) -> Result<&MultiLogEngine, String> {
        if self.operational.is_none() {
            let db =
                MultiLogDb::new(self.clauses.clone(), Vec::new()).map_err(|e| format!("{e}"))?;
            let engine =
                MultiLogEngine::with_options(&db, &self.opts.user, engine_options(&self.opts))
                    .map_err(|e| format!("{e}"))?;
            self.operational = Some(engine);
        }
        Ok(self
            .operational
            .as_ref()
            .expect("just built the operational engine"))
    }
}

/// Parse the text after a `+`/`-` update prefix — shared by the REPL and
/// `serve` — into one batch: a ground m-atom fact, or a molecule
/// desugared to one update per m-atom. Non-ground atoms are rejected
/// here, when the line is read, not at commit.
fn parse_update(text: &str, insert: bool) -> Result<Vec<EdbUpdate>, String> {
    use multilog_core::ast::Head;
    let parsed = multilog_core::parse_clause(text).map_err(|e| e.to_string())?;
    parsed
        .into_iter()
        .map(|clause| {
            if !clause.body.is_empty() {
                return Err("updates must be facts, not rules".to_owned());
            }
            let Head::M(m) = clause.head else {
                return Err("updates must be m-atom facts like `+s[p(k : a -s-> v)].`".to_owned());
            };
            if !m.is_ground() {
                return Err(MultiLogError::NonGroundUpdate {
                    atom: m.to_string(),
                }
                .to_string());
            }
            Ok(if insert {
                EdbUpdate::Assert(m)
            } else {
                EdbUpdate::Retract(m)
            })
        })
        .collect()
}

/// One line-protocol connection to a [`BeliefServer`] (the `serve`
/// command): reader sessions pinned to generations, a staged update
/// transaction, and goal answering — all as a pure `line in → text out`
/// step function, so the protocol is unit-testable without sockets.
///
/// Protocol:
///
/// ```text
/// open <user>     open a reader session at a clearance, pin the newest generation
/// use <n>         make session n current
/// close <n>       close session n
/// refresh         re-pin the current session to the newest generation
/// epoch           print the current session's pinned and latest epochs
/// +<m-fact>.      stage an assert in the pending transaction
/// -<m-fact>.      stage a retract
/// commit          commit the staged transaction (all-or-nothing)
/// abort           discard the staged transaction
/// <goal>          answer a goal from the current session's pinned snapshot
/// quit            end the connection
/// ```
pub struct ServeSession {
    server: Arc<BeliefServer>,
    /// Reader sessions by id (1-based; `None` = closed).
    sessions: Vec<Option<ReaderSession>>,
    current: Option<usize>,
    pending: Vec<EdbUpdate>,
}

impl ServeSession {
    /// Parse the database and start a fresh server for this connection.
    ///
    /// # Errors
    ///
    /// Parse failures, rendered for the CLI user.
    pub fn new(source: &str, opts: &Options) -> Result<Self, String> {
        reject_filter(opts, "`serve`")?;
        let db = load(source)?;
        deny_flow(&db, source, opts)?;
        let server = Arc::new(BeliefServer::new(db, engine_options(opts)));
        Ok(Self::with_server(server))
    }

    /// Attach a connection to an existing (possibly shared) server —
    /// the TCP path hands every connection the same server, so sessions
    /// on different connections see each other's commits on refresh.
    pub fn with_server(server: Arc<BeliefServer>) -> Self {
        ServeSession {
            server,
            sessions: Vec::new(),
            current: None,
            pending: Vec::new(),
        }
    }

    /// The shared server (for spawning sibling connections).
    pub fn server(&self) -> &Arc<BeliefServer> {
        &self.server
    }

    /// A banner line describing the service.
    pub fn banner(&self) -> String {
        format!(
            "multilog serve — epoch {}; `open <user>` to begin, `quit` to end",
            self.server.epoch()
        )
    }

    /// Process one protocol line; returns the response text and whether
    /// the connection should close.
    pub fn step(&mut self, line: &str) -> (String, bool) {
        let line = line.trim();
        if line.is_empty() {
            return (String::new(), false);
        }
        if line == "quit" || line == "exit" {
            return ("bye\n".to_owned(), true);
        }
        (self.command(line), false)
    }

    fn command(&mut self, line: &str) -> String {
        if let Some(user) = line.strip_prefix("open ") {
            return match self.server.open_reader(user.trim()) {
                Ok(session) => {
                    let epoch = session.epoch();
                    self.sessions.push(Some(session));
                    let id = self.sessions.len();
                    self.current = Some(id - 1);
                    format!("session {id} open at {} (epoch {epoch})\n", user.trim())
                }
                Err(e) => format!("error: {e}\n"),
            };
        }
        if let Some(n) = line.strip_prefix("use ") {
            return match self.session_index(n) {
                Ok(i) => {
                    self.current = Some(i);
                    format!("session {} current\n", i + 1)
                }
                Err(e) => e,
            };
        }
        if let Some(n) = line.strip_prefix("close ") {
            return match self.session_index(n) {
                Ok(i) => {
                    self.sessions[i] = None;
                    if self.current == Some(i) {
                        self.current = None;
                    }
                    format!("session {} closed\n", i + 1)
                }
                Err(e) => e,
            };
        }
        match line {
            "refresh" => match self.current_session_mut() {
                Ok(session) => format!("epoch {}\n", session.refresh()),
                Err(e) => e,
            },
            "epoch" => match self.current_session_mut() {
                Ok(session) => format!(
                    "pinned {} latest {}\n",
                    session.epoch(),
                    session.latest_epoch()
                ),
                Err(e) => e,
            },
            "commit" => self.commit(),
            "abort" => {
                let n = self.pending.len();
                self.pending.clear();
                format!("aborted {n} staged updates\n")
            }
            _ => {
                if let Some(rest) = line.strip_prefix('+') {
                    return self.stage(rest, true);
                }
                if let Some(rest) = line.strip_prefix('-') {
                    return self.stage(rest, false);
                }
                self.query(line)
            }
        }
    }

    /// Stage one `+`/`-` line into the pending transaction.
    fn stage(&mut self, text: &str, insert: bool) -> String {
        let staged = match parse_update(text, insert) {
            Ok(batch) => batch,
            Err(e) => return format!("error: {e}\n"),
        };
        let n = staged.len();
        self.pending.extend(staged);
        format!(
            "staged {n} update{} ({} pending)\n",
            if n == 1 { "" } else { "s" },
            self.pending.len()
        )
    }

    /// Commit the staged transaction through the single-writer slot.
    fn commit(&mut self) -> String {
        if self.pending.is_empty() {
            return "nothing staged\n".to_owned();
        }
        let mut writer = match self.server.open_writer() {
            Ok(w) => w,
            Err(e) => return format!("error: {e}\n"),
        };
        match writer.commit(&self.pending) {
            Ok(summary) => {
                self.pending.clear();
                let mut out = format!("committed at epoch {}\n", summary.epoch);
                for (level, stats) in &summary.levels {
                    let _ = writeln!(
                        out,
                        "  {level}: +{}/-{} base, +{}/-{} derived",
                        stats.edb_inserted,
                        stats.edb_retracted,
                        stats.derived_added,
                        stats.derived_removed
                    );
                }
                out
            }
            // The staged batch is kept: the client may retry (e.g. after
            // a deadline trip) or `abort` explicitly.
            Err(e) => format!("error: {e} (transaction kept; `abort` to discard)\n"),
        }
    }

    fn query(&mut self, goal: &str) -> String {
        match self.current_session_mut() {
            Ok(session) => match session.query_text(goal) {
                Ok(answers) => render_answers(&answers),
                Err(e) => format!("error: {e}\n"),
            },
            Err(e) => e,
        }
    }

    fn session_index(&self, text: &str) -> Result<usize, String> {
        let id: usize = text
            .trim()
            .parse()
            .map_err(|_| format!("error: invalid session id `{}`\n", text.trim()))?;
        match self.sessions.get(id.wrapping_sub(1)) {
            Some(Some(_)) => Ok(id - 1),
            _ => Err(format!("error: no open session {id}\n")),
        }
    }

    fn current_session_mut(&mut self) -> Result<&mut ReaderSession, String> {
        let i = self
            .current
            .ok_or_else(|| "error: no current session; `open <user>` first\n".to_owned())?;
        self.sessions
            .get_mut(i)
            .and_then(Option::as_mut)
            .ok_or_else(|| format!("error: no open session {}\n", i + 1))
    }
}

/// The longest line `serve` reads, in bytes (newline excluded). A longer
/// line is answered with an error and ends its connection, so no client
/// can make the server buffer and parse an unbounded line.
pub const MAX_LINE: usize = 64 * 1024;

/// Drive a [`ServeSession`] over arbitrary line I/O (stdin or one TCP
/// connection). When `opts.user` is set, a session at that clearance is
/// opened before the first line. Lines longer than [`MAX_LINE`] end the
/// connection with an error reply.
///
/// # Errors
///
/// I/O failures on `input`/`output`, rendered for the CLI user.
pub fn serve_io(
    mut session: ServeSession,
    opts: &Options,
    input: &mut dyn std::io::BufRead,
    output: &mut dyn std::io::Write,
) -> Result<(), String> {
    let emit = |text: &str, output: &mut dyn std::io::Write| {
        output
            .write_all(text.as_bytes())
            .and_then(|()| output.flush())
            .map_err(|e| e.to_string())
    };
    emit(&format!("{}\n", session.banner()), output)?;
    if !opts.user.is_empty() {
        let (out, _) = session.step(&format!("open {}", opts.user));
        emit(&out, output)?;
    }
    let mut line = Vec::new();
    loop {
        line.clear();
        let limit = MAX_LINE as u64 + 1;
        let read = std::io::Read::take(&mut *input, limit)
            .read_until(b'\n', &mut line)
            .map_err(|e| e.to_string())?;
        if read == 0 {
            return Ok(());
        }
        if line.strip_suffix(b"\n").unwrap_or(&line).len() > MAX_LINE {
            return emit(&format!("error: line exceeds {MAX_LINE} bytes\n"), output);
        }
        let line = std::str::from_utf8(&line).map_err(|e| e.to_string())?;
        let (out, quit) = session.step(line);
        emit(&out, output)?;
        if quit {
            return Ok(());
        }
    }
}

/// Render answers as a table (or `yes`/`no` for ground goals).
pub fn render_answers(answers: &[multilog_core::Answer]) -> String {
    if answers.is_empty() {
        return "no\n".to_owned();
    }
    if answers.len() == 1 && answers[0].is_empty() {
        return "yes\n".to_owned();
    }
    let mut out = String::new();
    for a in answers {
        let row: Vec<String> = a.iter().map(|(k, v)| format!("{k} = {v}")).collect();
        let _ = writeln!(out, "  {}", row.join(", "));
    }
    let _ = writeln!(out, "({} answers)", answers.len());
    out
}

fn render_goal(goal: &[multilog_core::ast::Atom]) -> String {
    goal.iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(", ")
}

/// The usage text.
pub const USAGE: &str = "\
multilog — belief reasoning in MLS deductive databases (Jamil, SIGMOD 1999)

USAGE:
  multilog run    <file.mlog> --user <level> [--engine op|red] [--filter] [GUARDS]
  multilog query  <file.mlog> --user <level> '<goal>' [--engine op|red] [--filter]
                  [--no-magic] [--flow-prune] [GUARDS]
  multilog prove  <file.mlog> --user <level> '<goal>' [--filter] [GUARDS]
  multilog reduce <file.mlog> --user <level>
  multilog check  <file.mlog> --user <level>
  multilog lint   <file.mlog> [--user <level>] [--format human|json]
  multilog analyze <file.mlog> [--format human|json] [--explain <pred>]
  multilog repl   <file.mlog> --user <level> [--filter] [GUARDS]
  multilog serve  <file.mlog> [--user <level>] [--listen <addr>] [GUARDS]

FILTER:
  --filter           enable Figure 13's σ filter (FILTER and FILTER-NULL).
                     Only the operational engine implements it: `run` and
                     `query` with --engine red, and `serve`, refuse it

GUARDS:
  --deadline <ms>    abort evaluation/queries after a wall-clock deadline
  --max-facts <n>    abort once more than n facts have been derived
  --stats            print per-rule (reduced) / per-clause (operational)
                     evaluation counters after the answers; demand-driven
                     runs also report cone/adorned/magic fact counts

QUERY:
  `query --engine red` answers its goal demand-driven: a magic-sets
  rewrite evaluates only the demanded sub-fixpoint. These flags are
  accepted by `query` only:
  --no-magic         materialize the full fixpoint and answer from it
  --flow-prune       see ANALYZE

LINT:
  `lint` runs the static-analysis pass (stable ML01xx codes; see
  docs/LINTS.md) and prints rustc-style spanned diagnostics. With
  --user, clearance-dependent lints also run. Every error `lint`
  reports without --user is a load refusal: every command that loads
  the database (and `serve`) stops with `database refused:` and the
  finding. It exits 1 when it reports an error; warnings alone exit 0.

CHECK:
  `check` prints the clause counts, the lint findings and the
  admissibility (Def 5.3) and consistency (Def 5.4) verdicts. It exits
  1 when the database is not admissible or not consistent.

ANALYZE:
  `analyze` runs the lattice-flow abstract interpretation: sound
  per-predicate bounds on the security levels and classifications a
  predicate can achieve, plus interprocedural channel findings
  (ML02xx codes; see docs/LINTS.md). --explain <pred> prints one
  predicate's bound derivation (which facts and rules contribute).
  Flow results also feed evaluation:
  --deny flow        run/query/serve refuse to start when the flow
                     analysis reports any ML02xx finding
  --flow-prune       `query` only: drop rules the analysis proves
                     invisible at the clearance from demand-driven goal
                     evaluation (answers are unchanged; with --stats,
                     demand runs report the pruned rule count)

GOALS:
  m-atom     s[p(k : a -c-> v)]
  b-atom     s[p(k : a -c-> v)] << fir|opt|cau|<user mode>
  molecule   s[p(k : a1 -c1-> v1; a2 -c2-> v2)]
  p-atom     q(x, Y)        dominance   u leq s
  (uppercase identifiers are variables; `_` is a don't-care)

REPL:
  Goals are answered from an incrementally maintained reduction
  fixpoint (the `serve` machinery: one writer, one reader at --user).
  Prefix a goal with `:prove ` to print its proof tree. Update the
  database in place with ground m-atom facts:
  +s[p(k : a -s-> v)].   assert a fact (delta-propagated, no recompute)
  -s[p(k : a -s-> v)].   retract it (delete-and-rederive)

SERVE:
  A multi-session belief server with snapshot isolation: `open <user>`
  pins a reader to the current generation (repeat for more sessions,
  `use <n>` to switch); goals answer from the pinned snapshot until
  `refresh`. `+fact.`/`-fact.` stage a transaction; `commit` applies it
  atomically to the one engine every clearance reads and publishes the
  next generation. With --listen <addr>, serves the same protocol to TCP
  clients (all connections share one server); otherwise reads stdin.
  With --user, a first session is opened automatically. A line longer
  than 65536 bytes gets an error reply and ends the connection.
";

/// Parse `argv`-style arguments into `(command, file, goal, Options)`.
pub fn parse_args(args: &[String]) -> Result<(String, String, Option<String>, Options), String> {
    let mut it = args.iter();
    let cmd = it.next().ok_or(USAGE)?.clone();
    let mut file = None;
    let mut goal = None;
    let mut opts = Options::default();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--user" => {
                opts.user = it.next().ok_or("--user needs a level name")?.clone();
            }
            "--engine" => match it.next().map(String::as_str) {
                Some("op" | "operational") => opts.engine = EngineKind::Operational,
                Some("red" | "reduced") => opts.engine = EngineKind::Reduced,
                other => return Err(format!("unknown engine {other:?}")),
            },
            "--filter" => opts.filter = true,
            "--stats" => opts.stats = true,
            "--no-magic" => opts.no_magic = true,
            "--format" => match it.next().map(String::as_str) {
                Some("human") => opts.json = false,
                Some("json") => opts.json = true,
                other => return Err(format!("unknown format {other:?}")),
            },
            "--deadline" => {
                let v = it.next().ok_or("--deadline needs milliseconds")?;
                opts.deadline_ms =
                    Some(v.parse().map_err(|_| format!("invalid --deadline `{v}`"))?);
            }
            "--max-facts" => {
                let v = it.next().ok_or("--max-facts needs a fact count")?;
                opts.max_facts = Some(
                    v.parse()
                        .map_err(|_| format!("invalid --max-facts `{v}`"))?,
                );
            }
            "--listen" => {
                opts.listen = Some(it.next().ok_or("--listen needs an address")?.clone());
            }
            "--deny" => match it.next().map(String::as_str) {
                Some("flow") => opts.deny_flow = true,
                other => return Err(format!("unknown --deny class {other:?} (try `flow`)")),
            },
            "--flow-prune" => opts.flow_prune = true,
            "--explain" => {
                opts.explain = Some(it.next().ok_or("--explain needs a predicate name")?.clone());
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown option `{other}` (see `multilog --help`)"))
            }
            other if file.is_none() => file = Some(other.to_owned()),
            other if goal.is_none() => goal = Some(other.to_owned()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let file = file.ok_or("missing database file")?;
    // Only `query` runs the demand path; every other command answers
    // from a materialized fixpoint, where these flags would do nothing.
    for (set, flag) in [
        (opts.no_magic, "--no-magic"),
        (opts.flow_prune, "--flow-prune"),
    ] {
        if set && cmd != "query" {
            return Err(format!(
                "{flag} applies only to `query` (demand-driven goals); `{cmd}` never runs the demand path"
            ));
        }
    }
    // `lint`, `analyze`, and `serve` work without a clearance (the flow
    // analysis bounds every clearance at once; serve sessions pick
    // theirs at `open`); every other command needs one.
    if opts.user.is_empty() && cmd != "lint" && cmd != "serve" && cmd != "analyze" {
        return Err("missing --user <level>".to_owned());
    }
    Ok((cmd, file, goal, opts))
}

#[cfg(test)]
mod tests {
    use super::*;

    const DB: &str = r#"
        level(u). level(c). level(s).
        order(u, c). order(c, s).
        u[p(k : a -u-> v)].
        c[p(k : a -c-> t)] <- q(j).
        s[p(k : a -u-> v)] <- c[p(k : a -c-> t)] << cau.
        q(j).
        <- c[p(k : a -u-> v)] << opt.
    "#;

    fn opts(user: &str) -> Options {
        Options {
            user: user.to_owned(),
            ..Options::default()
        }
    }

    #[test]
    fn run_answers_stored_queries() {
        let out = run(DB, &opts("c")).unwrap();
        assert!(out.contains("query 1"));
        assert!(out.contains("yes"), "{out}");
        let out = run(DB, &opts("u")).unwrap();
        assert!(out.contains("no"), "{out}");
    }

    #[test]
    fn run_reduced_matches() {
        let mut o = opts("c");
        o.engine = EngineKind::Reduced;
        let out = run(DB, &o).unwrap();
        assert!(out.contains("yes"), "{out}");
    }

    #[test]
    fn query_with_variables() {
        let out = query(DB, "L[p(k : a -C-> V)] << opt", &opts("s")).unwrap();
        assert!(out.contains("answers"), "{out}");
        assert!(out.contains("V = v"), "{out}");
    }

    #[test]
    fn prove_prints_tree_or_no_proof() {
        let out = prove(DB, "c[p(k : a -u-> v)] << opt", &opts("c")).unwrap();
        assert!(out.contains("DESCEND-O"), "{out}");
        assert!(out.contains("height"), "{out}");
        let out = prove(DB, "s[p(k : a -u-> v)]", &opts("u")).unwrap();
        assert!(out.contains("no proof"));
    }

    #[test]
    fn reduce_prints_program() {
        let out = reduce(DB, &opts("s")).unwrap();
        assert!(out.contains("dominate(X, Y) :- order(X, Y)."));
        assert!(out.contains("bel_cau_c"));
    }

    #[test]
    fn check_reports_shape_and_consistency() {
        let report = check(DB, &opts("s")).unwrap();
        assert!(report.passed);
        let out = report.text;
        assert!(out.contains("Λ=5 Σ=3 Π=1 Q=1"), "{out}");
        assert!(out.contains("admissible"), "{out}");
        assert!(out.contains("consistent"), "{out}");
    }

    #[test]
    fn check_flags_inadmissible() {
        // Counts come from the parse, the verdict from the refused load.
        let report = check("level(u). u[p(k : a -s-> v)].", &opts("u")).unwrap();
        assert!(!report.passed);
        let out = report.text;
        assert!(out.contains("Λ=1 Σ=1 Π=0 Q=0"), "{out}");
        assert!(out.contains("lint: 1 error"), "{out}");
        assert!(
            out.contains(
                "NOT admissible: database is not admissible (Def 5.3): security label `s`"
            ),
            "{out}"
        );
        let report = check("level(u). q(X).", &opts("u")).unwrap();
        assert!(!report.passed);
        assert!(
            report.text.contains("NOT admissible: unsafe variable `X`"),
            "{}",
            report.text
        );
    }

    #[test]
    fn every_engine_and_serve_refuse_inadmissible_programs_alike() {
        // Same-level `<< cau` (ML0105), an unknown rule mode (ML0106), an
        // undeclared label (ML0103, Def 5.3), a p-predicate at two
        // arities (ML0113, in a rule and in a stored query) and an
        // aggregate through recursion (ML0008): the load refuses each
        // with the lint's spanned finding.
        for (src, code) in [
            (
                "level(u). level(s). order(u, s). u[p(k : a -u-> v)].\n\
                 s[q(k : a -u-> V)] <- s[p(k : a -u-> V)] << cau.",
                "ML0105",
            ),
            (
                "level(u). level(s). order(u, s). u[p(k : a -u-> v)].\n\
                 s[q(k : a -u-> V)] <- u[p(k : a -u-> V)] << foo.",
                "ML0106",
            ),
            ("level(s).\ns[p(k : a -u-> v)].", "ML0103"),
            ("level(s). q(a).\nr(X) <- q(X, b).", "ML0113"),
            // A stored query is part of the database too.
            ("level(s). q(a).\n<- q(X, Y).", "ML0113"),
            (
                "level(s). e(a, b). t(X, N) <- e(X, Y), n(Y, N).\n\
                 n(Y, count(Z)) <- t(Y, Z).",
                "ML0008",
            ),
        ] {
            let mut o = opts("s");
            let op = run(src, &o).unwrap_err();
            o.engine = EngineKind::Reduced;
            let red = run(src, &o).unwrap_err();
            let serve = ServeSession::new(src, &o).err().unwrap();
            assert!(op.starts_with("database refused:"), "{op}");
            assert!(op.contains(&format!("error[{code}]")), "{op}");
            assert!(op.contains("--> <db>:2:1"), "{op}");
            assert_eq!(op, red);
            assert_eq!(op, serve);
        }
        // Only a syntax error reads as a parse failure.
        let err = run("level(s). s[p(k : a -s->", &opts("s")).unwrap_err();
        assert!(err.starts_with("cannot parse database: "), "{err}");
    }

    #[test]
    fn repl_session_solves_and_proves() {
        let mut s = ReplSession::new(DB, &opts("s")).unwrap();
        assert!(s.step("q(j)").contains("yes"));
        assert!(s.step(":prove q(j)").contains("DEDUCTION-G"));
        assert!(s.step("nonsense [").contains("error"));
        assert_eq!(s.step("   "), "");
        assert!(s.banner().contains("level s"));
    }

    #[test]
    fn repl_updates_assert_and_retract_incrementally() {
        let mut s = ReplSession::new(DB, &opts("s")).unwrap();
        assert!(s.step("s[p(k2 : a -s-> w)]").contains("no"));
        let out = s.step("+s[p(k2 : a -s-> w)].");
        assert!(out.starts_with("ok:"), "{out}");
        assert!(s.step("s[p(k2 : a -s-> w)]").contains("yes"));
        // The operational engine rebuilds over the updated clause set, so
        // proof trees see the new fact too.
        let tree = s.step(":prove s[p(k2 : a -s-> w)]");
        assert!(tree.contains("DEDUCTION-G"), "{tree}");
        let out = s.step("-s[p(k2 : a -s-> w)].");
        assert!(out.starts_with("ok:"), "{out}");
        assert!(s.step("s[p(k2 : a -s-> w)]").contains("no"));
    }

    #[test]
    fn repl_update_rejects_rules_and_non_matoms() {
        let mut s = ReplSession::new(DB, &opts("s")).unwrap();
        assert!(s
            .step("+s[p(k : a -s-> w)] <- q(j).")
            .contains("must be facts"));
        assert!(s.step("+q(zz).").contains("m-atom"));
        assert!(s.step("+s[p(K : a -s-> w)].").contains("ground"));
        // The session survives rejected updates.
        assert!(s.step("q(j)").contains("yes"));
    }

    #[test]
    fn repl_retraction_cascades_through_beliefs() {
        // Retracting the u fact removes the cautious support chain: the
        // r8-derived s-level fact must disappear with it.
        let mut s = ReplSession::new(DB, &opts("s")).unwrap();
        assert!(s.step("s[p(k : a -u-> v)]").contains("yes"));
        assert!(s.step("-u[p(k : a -u-> v)].").starts_with("ok:"));
        assert!(s.step("u[p(k : a -u-> v)]").contains("no"));
    }

    #[test]
    fn parse_args_roundtrip() {
        let args: Vec<String> = ["query", "db.mlog", "--user", "s", "goal", "--engine", "red"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let (cmd, file, goal, o) = parse_args(&args).unwrap();
        assert_eq!(cmd, "query");
        assert_eq!(file, "db.mlog");
        assert_eq!(goal.as_deref(), Some("goal"));
        assert_eq!(o.engine, EngineKind::Reduced);
        assert_eq!(o.user, "s");
    }

    #[test]
    fn parse_args_errors() {
        let to = |v: &[&str]| v.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
        assert!(parse_args(&to(&["run"])).is_err());
        assert!(parse_args(&to(&["run", "f.mlog"])).is_err()); // no user
        assert!(parse_args(&to(&["run", "f.mlog", "--user"])).is_err());
        assert!(parse_args(&to(&["run", "f.mlog", "--user", "s", "--engine", "zzz"])).is_err());
        // The demand flags belong to `query` alone.
        for cmd in ["run", "repl", "serve", "prove"] {
            for flag in ["--no-magic", "--flow-prune"] {
                let err = parse_args(&to(&[cmd, "f.mlog", "--user", "s", flag])).unwrap_err();
                assert!(err.contains("only to `query`"), "{cmd} {flag}: {err}");
            }
        }
        assert!(parse_args(&to(&["query", "f.mlog", "--user", "s", "g", "--no-magic"])).is_ok());
        // An unknown option is refused by name, not taken for the goal.
        let err = parse_args(&to(&["query", "q.mlog", "--user", "u", "--lint-warnn"])).unwrap_err();
        assert!(err.contains("unknown option `--lint-warnn`"), "{err}");
    }

    #[test]
    fn parse_args_guard_flags() {
        let args: Vec<String> = [
            "run",
            "db.mlog",
            "--user",
            "s",
            "--deadline",
            "250",
            "--max-facts",
            "9000",
            "--stats",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let (_, _, _, o) = parse_args(&args).unwrap();
        assert_eq!(o.deadline_ms, Some(250));
        assert_eq!(o.max_facts, Some(9000));
        assert!(o.stats);
        let bad: Vec<String> = ["run", "db.mlog", "--user", "s", "--deadline", "soon"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        assert!(parse_args(&bad).is_err());
    }

    #[test]
    fn stats_flag_prints_counters() {
        let mut o = opts("c");
        o.stats = true;
        let out = query(DB, "q(X)", &o).unwrap();
        assert!(out.contains("operational evaluation:"), "{out}");
        assert!(out.contains("clause:"), "{out}");
        o.engine = EngineKind::Reduced;
        // Facts are seeded, not compiled: a goal over a facts-only
        // predicate reports its strata but no rule.
        let out = query(DB, "q(X)", &o).unwrap();
        assert!(out.contains("stratum 0:"), "{out}");
        assert!(!out.contains("rule (stratum"), "{out}");
        let out = query(DB, "c[p(k : a -c-> V)]", &o).unwrap();
        assert!(out.contains("rule (stratum"), "{out}");
    }

    #[test]
    fn stats_reports_demand_counters_for_reduced_queries() {
        let mut o = opts("s");
        o.stats = true;
        o.engine = EngineKind::Reduced;
        let out = query(DB, "s[p(k : a -u-> v)]", &o).unwrap();
        assert!(out.contains("yes"), "{out}");
        assert!(out.contains("demand(magic):"), "{out}");
        assert!(out.contains("adorned="), "{out}");
    }

    #[test]
    fn query_falls_back_to_reduction_for_aggregates() {
        let src = "level(u). level(s). order(u, s).\n\
                   u[emp(a : sal -u-> v1)].\n\
                   s[emp(a : sal -s-> v2)].\n\
                   s[emp(b : sal -s-> v3)].\n\
                   total(H, count(K)) <- H[emp(K : sal -_C-> _V)] << opt, level(H).";
        // The default (operational) engine cannot evaluate aggregate
        // heads; `query` must answer via the reduction and say so.
        let o = opts("s");
        let out = query(src, "total(H, N)", &o).unwrap();
        assert!(out.contains("answering via the reduction"), "{out}");
        assert!(out.contains("H = u, N = 1"), "{out}");
        assert!(out.contains("H = s, N = 3"), "{out}");
        // `run` takes the same fallback for the stored queries.
        let stored = format!("{src}\n<- total(H, N).");
        let out = run(&stored, &o).unwrap();
        assert!(out.contains("answering via the reduction"), "{out}");
        assert!(out.contains("H = s, N = 3"), "{out}");
        // An explicit `--engine red` never needs (or prints) the note.
        let mut red = opts("s");
        red.engine = EngineKind::Reduced;
        let out = query(src, "total(H, N)", &red).unwrap();
        assert!(!out.contains("answering via the reduction"), "{out}");
        assert!(out.contains("H = s, N = 3"), "{out}");
    }

    #[test]
    fn algo_goal_answered_through_cli_query() {
        let src = "boss(a, b). boss(b, c).\n\
                   chain(X, Y) <- @bfs(boss, X, Y).\n\
                   level(u).";
        let o = opts("u");
        let out = query(src, "chain(a, Y)", &o).unwrap();
        assert!(out.contains("Y = b"), "{out}");
        assert!(out.contains("Y = c"), "{out}");
        assert!(out.contains("(2 answers)"), "{out}");
    }

    #[test]
    fn no_magic_matches_demand_answers() {
        for goal in ["q(X)", "s[p(k : a -u-> v)]", "L[p(k : a -C-> V)] << opt"] {
            let mut o = opts("s");
            o.engine = EngineKind::Reduced;
            let demand = query(DB, goal, &o).unwrap();
            o.no_magic = true;
            let full = query(DB, goal, &o).unwrap();
            assert_eq!(demand, full, "goal {goal}");
        }
    }

    #[test]
    fn parse_args_no_magic_flag() {
        let args: Vec<String> = ["query", "db.mlog", "--user", "s", "g", "--no-magic"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let (_, _, _, o) = parse_args(&args).unwrap();
        assert!(o.no_magic);
    }

    #[test]
    fn max_facts_budget_trips_as_error() {
        let mut o = opts("c");
        o.max_facts = Some(1);
        let err = query(DB, "q(X)", &o).unwrap_err();
        assert!(err.contains("fact budget"), "{err}");
        o.engine = EngineKind::Reduced;
        o.no_magic = true;
        let err = query(DB, "q(X)", &o).unwrap_err();
        assert!(err.contains("fact budget"), "{err}");
        // The demand path carries the budget too: a belief goal whose
        // demanded sub-fixpoint exceeds one fact trips identically. (The
        // tiny `q(X)` demand cone legitimately fits the budget now.)
        o.no_magic = false;
        o.user = "s".to_owned();
        let err = query(DB, "s[p(k : a -u-> v)]", &o).unwrap_err();
        assert!(err.contains("fact budget"), "{err}");
    }

    /// A p-predicate at two arities (ML0113): the lint reports it, and
    /// the load refuses it.
    const ARITY_DB: &str = r#"
        level(u). level(s). order(u, s).
        q(a). r(X) <- q(X, b).
        <- q(X).
    "#;

    #[test]
    fn run_fails_fast_on_lint_errors() {
        let err = run(ARITY_DB, &opts("s")).unwrap_err();
        assert!(err.starts_with("database refused:"), "{err}");
        assert!(err.contains("error[ML0113]"), "{err}");
        let err = query(ARITY_DB, "q(X)", &opts("s")).unwrap_err();
        assert!(err.contains("ML0113"), "{err}");
    }

    #[test]
    fn lint_command_renders_human_and_json() {
        let out = lint(ARITY_DB, "arity.mlog", &opts("s")).unwrap().text;
        assert!(out.contains("error[ML0113]"), "{out}");
        assert!(out.contains("--> arity.mlog:"), "{out}");
        let mut o = opts("s");
        o.json = true;
        let out = lint(ARITY_DB, "arity.mlog", &o).unwrap().text;
        assert!(out.starts_with("{\"diagnostics\":["), "{out}");
        assert!(out.contains("\"code\":\"ML0113\""), "{out}");
    }

    #[test]
    fn lint_command_without_user_skips_clearance_lints() {
        // Clearance-free lint runs (user optional for `lint`), and the
        // clean database reports no findings.
        let src = "level(u). level(s). order(u, s). s[p(k : a -u-> v)].";
        let out = lint(src, "db.mlog", &Options::default()).unwrap().text;
        assert!(out.contains("0 errors, 0 warnings"), "{out}");
        // With a clearance, ML0114 can fire.
        let hi = "level(u). level(s). order(u, s).\n\
                  s[p(k : a -s-> v)]. q(X) <- s[p(k : a -s-> X)].";
        let out = lint(hi, "db.mlog", &opts("u")).unwrap().text;
        assert!(out.contains("ML0114"), "{out}");
    }

    #[test]
    fn parse_args_lint_flags() {
        let to = |v: &[&str]| v.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
        // lint works without --user…
        let (cmd, _, _, o) = parse_args(&to(&["lint", "f.mlog", "--format", "json"])).unwrap();
        assert_eq!(cmd, "lint");
        assert!(o.json);
        // …but run still requires it.
        assert!(parse_args(&to(&["run", "f.mlog"])).is_err());
        // Every lint error is a load refusal, so there is no flag to skip
        // or downgrade the lint.
        for flag in ["--no-lint", "--lint-warn"] {
            let err = parse_args(&to(&["run", "f.mlog", "--user", "s", flag])).unwrap_err();
            assert!(err.contains(&format!("unknown option `{flag}`")), "{err}");
        }
        assert!(parse_args(&to(&["lint", "f.mlog", "--format", "xml"])).is_err());
    }

    #[test]
    fn serve_opens_sessions_and_commits_transactions() {
        let mut s = ServeSession::new(DB, &opts("")).unwrap();
        let (out, _) = s.step("open s");
        assert!(out.contains("session 1 open at s (epoch 0)"), "{out}");
        let (out, _) = s.step("s[p(k2 : a -u-> w)] << opt");
        assert!(out.contains("no"), "{out}");
        let (out, _) = s.step("+u[p(k2 : a -u-> w)].");
        assert!(out.contains("staged 1 update (1 pending)"), "{out}");
        // Not committed yet: invisible.
        assert!(s.step("s[p(k2 : a -u-> w)] << opt").0.contains("no"));
        let (out, _) = s.step("commit");
        assert!(out.contains("committed at epoch 1"), "{out}");
        // One stats line, for the engine every clearance reads.
        assert!(out.contains("  shared: +1/-0 base"), "{out}");
        assert_eq!(out.lines().count(), 2, "{out}");
        // Committed but the session is pinned at epoch 0 until refresh.
        assert!(s.step("s[p(k2 : a -u-> w)] << opt").0.contains("no"));
        let (out, _) = s.step("epoch");
        assert_eq!(out, "pinned 0 latest 1\n");
        assert_eq!(s.step("refresh").0, "epoch 1\n");
        assert!(s.step("s[p(k2 : a -u-> w)] << opt").0.contains("yes"));
        // Every level's reader answers from the one committed state.
        for level in ["u", "c", "s"] {
            s.step(&format!("open {level}"));
            let goal = format!("{level}[p(k2 : a -u-> w)] << opt");
            assert!(s.step(&goal).0.contains("yes"), "{goal}");
        }
        assert!(s.step("c[p(k : a -c-> t)]").0.contains("yes"));
        s.step("open u");
        assert!(s.step("c[p(k : a -c-> t)]").0.contains("no"));
    }

    #[test]
    fn serve_sessions_isolate_per_clearance() {
        let mut s = ServeSession::new(DB, &opts("")).unwrap();
        s.step("open u");
        s.step("open s");
        // Session 2 (s) is current: the c-level cell is visible.
        assert!(s.step("c[p(k : a -c-> t)]").0.contains("yes"));
        let (out, _) = s.step("use 1");
        assert!(out.contains("session 1 current"), "{out}");
        // At u it is not (no read up).
        assert!(s.step("c[p(k : a -c-> t)]").0.contains("no"));
        let (out, _) = s.step("close 1");
        assert!(out.contains("session 1 closed"), "{out}");
        assert!(s.step("q(j)").0.contains("no current session"));
        s.step("use 2");
        assert!(s.step("q(j)").0.contains("yes"));
    }

    #[test]
    fn serve_rejects_bad_input_without_dying() {
        let mut s = ServeSession::new(DB, &opts("")).unwrap();
        assert!(s.step("open zz").0.contains("error"), "unknown level");
        assert!(s.step("use 7").0.contains("no open session 7"));
        assert!(s.step("q(j)").0.contains("no current session"));
        assert!(s.step("commit").0.contains("nothing staged"));
        s.step("open s");
        assert!(s.step("+q(zz).").0.contains("m-atom"));
        assert!(s.step("+s[p(k : a -s-> v)] <- q(j).").0.contains("facts"));
        s.step("+u[p(k9 : a -u-> w)].");
        let (out, _) = s.step("abort");
        assert!(out.contains("aborted 1"), "{out}");
        assert!(s.step("commit").0.contains("nothing staged"));
        // A non-ground update is rejected when staged, so a valid update
        // staged beside it still commits.
        assert!(s.step("+u[p(k8 : a -u-> w)].").0.contains("staged 1"));
        let (out, _) = s.step("+u[p(K : a -u-> w)].");
        assert!(out.contains("must be ground"), "{out}");
        let (out, _) = s.step("commit");
        assert!(out.contains("committed at epoch 1"), "{out}");
        assert!(out.contains("  shared: +1/-0 base"), "{out}");
        assert_eq!(out.lines().count(), 2, "{out}");
        // Readers opened at every level see k8 and not the rejected k9.
        for level in ["u", "c", "s"] {
            s.step(&format!("open {level}"));
            let k8 = s.step(&format!("{level}[p(k8 : a -u-> w)] << opt")).0;
            assert!(k8.contains("yes"), "k8 at {level}: {k8}");
            let k9 = s.step(&format!("{level}[p(k9 : a -u-> w)] << opt")).0;
            assert!(k9.contains("no"), "k9 at {level}: {k9}");
        }
        let (out, quit) = s.step("quit");
        assert!(quit);
        assert!(out.contains("bye"));
    }

    #[test]
    fn serve_io_drives_the_line_protocol() {
        let session = ServeSession::new(DB, &opts("")).unwrap();
        let input = b"open s\nq(j)\nquit\n".to_vec();
        let mut output = Vec::new();
        serve_io(
            session,
            &opts("c"),
            &mut std::io::Cursor::new(input),
            &mut output,
        )
        .unwrap();
        let text = String::from_utf8(output).unwrap();
        assert!(text.contains("multilog serve"), "{text}");
        // --user c auto-opened session 1; `open s` became session 2.
        assert!(text.contains("session 1 open at c"), "{text}");
        assert!(text.contains("session 2 open at s"), "{text}");
        assert!(text.contains("yes"), "{text}");
        assert!(text.trim_end().ends_with("bye"), "{text}");
    }

    #[test]
    fn serve_io_ends_the_connection_on_an_overlong_line() {
        assert!(USAGE.contains(&MAX_LINE.to_string()));
        // A line of exactly MAX_LINE bytes is still read and answered.
        let mut input = format!("q(j){}\n", " ".repeat(MAX_LINE - 4)).into_bytes();
        input.extend(format!("{}\nq(j)\n", "x".repeat(MAX_LINE + 1)).bytes());
        let mut output = Vec::new();
        let session = ServeSession::new(DB, &opts("")).unwrap();
        serve_io(
            session,
            &opts("s"),
            &mut std::io::Cursor::new(input),
            &mut output,
        )
        .unwrap();
        let text = String::from_utf8(output).unwrap();
        assert_eq!(text.matches("yes").count(), 1, "{text}");
        assert!(
            text.ends_with(&format!("error: line exceeds {MAX_LINE} bytes\n")),
            "{text}"
        );
    }

    #[test]
    fn repl_and_serve_answer_the_same_script() {
        let script = [
            "L[p(K : a -C-> V)] << opt",
            "+u[p(k2 : a -u-> w)].",
            "L[p(K : a -C-> V)] << cau",
            "+s[p(k3 : a -s-> x; b -c-> y)].",
            "L[p(k3 : b -C-> V)]",
            "-u[p(k : a -u-> v)].",
            "s[p(k : a -u-> v)]",
            "c[p(K : a -C-> V)] << cau",
            "-s[p(k3 : a -s-> x)].",
            "L[p(K : a -C-> V)] << fir",
            "q(X)",
            "u leq L",
            "nonsense [",
        ];
        for user in ["u", "c", "s"] {
            let mut repl = ReplSession::new(DB, &opts(user)).unwrap();
            let mut serve = ServeSession::new(DB, &opts("")).unwrap();
            serve.step(&format!("open {user}"));
            for line in script {
                if line.starts_with(['+', '-']) {
                    let out = repl.step(line);
                    assert!(out.starts_with("ok:"), "{out}");
                    serve.step(line);
                    assert!(serve.step("commit").0.starts_with("committed"));
                    serve.step("refresh");
                } else {
                    assert_eq!(repl.step(line), serve.step(line).0, "`{line}` at {user}");
                }
            }
        }
    }

    #[test]
    fn repl_update_over_the_fact_budget_changes_nothing() {
        let db = load(DB).unwrap();
        let fresh = ReducedEngine::new(&db, "s").unwrap();
        let mut o = opts("s");
        o.max_facts = Some(2 * fresh.database().fact_count());
        let mut s = ReplSession::new(DB, &o).unwrap();
        // One molecule of 60 cells derives far more than the budget.
        let cells: Vec<String> = (0..60).map(|i| format!("a{i} -u-> w")).collect();
        let out = s.step(&format!("+u[p(k7 : {})].", cells.join("; ")));
        assert!(out.contains("fact budget"), "{out}");
        let goals = [
            "L[p(K : a -C-> V)]",
            "L[p(K : a -C-> V)] << opt",
            "c[p(K : a -C-> V)] << cau",
            "q(X)",
        ];
        for goal in goals {
            let want = render_answers(&fresh.solve_text(goal).unwrap());
            assert_eq!(s.step(goal), want, "goal `{goal}`");
        }
        // The session still commits in-budget updates.
        assert!(s.step("+u[p(k7 : a -u-> w)].").starts_with("ok:"));
        assert!(s.step("u[p(k7 : a -u-> w)]").contains("yes"));
    }

    #[test]
    fn serve_connections_share_one_server() {
        let first = ServeSession::new(DB, &opts("")).unwrap();
        let server = Arc::clone(first.server());
        let mut first = first;
        let mut second = ServeSession::with_server(server);
        first.step("open s");
        second.step("open s");
        first.step("+u[p(k2 : a -u-> w)].");
        assert!(first.step("commit").0.contains("epoch 1"));
        // The second connection sees the commit after refresh.
        assert!(second.step("s[p(k2 : a -u-> w)] << opt").0.contains("no"));
        assert_eq!(second.step("refresh").0, "epoch 1\n");
        assert!(second.step("s[p(k2 : a -u-> w)] << opt").0.contains("yes"));
    }

    #[test]
    fn parse_args_serve_flags() {
        let to = |v: &[&str]| v.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
        // serve works without --user…
        let (cmd, _, _, o) =
            parse_args(&to(&["serve", "f.mlog", "--listen", "127.0.0.1:7171"])).unwrap();
        assert_eq!(cmd, "serve");
        assert_eq!(o.listen.as_deref(), Some("127.0.0.1:7171"));
        // …and with one.
        let (_, _, _, o) = parse_args(&to(&["serve", "f.mlog", "--user", "s"])).unwrap();
        assert_eq!(o.user, "s");
        assert!(parse_args(&to(&["serve", "f.mlog", "--listen"])).is_err());
    }

    #[test]
    fn analyze_command_renders_bounds_and_findings() {
        let out = analyze(DB, "db.mlog", &opts("")).unwrap();
        assert!(out.contains("m p: level ∈ [{u}, {s}]"), "{out}");
        // DB's cau rule escalates `p` back up the lattice: ML0203 fires.
        assert!(out.contains("ML0203"), "{out}");
        let mut o = opts("");
        o.json = true;
        let out = analyze(DB, "db.mlog", &o).unwrap();
        assert!(out.starts_with("{\"predicates\":["), "{out}");
        assert!(out.contains("\"code\":\"ML0203\""), "{out}");
    }

    #[test]
    fn analyze_explain_narrows_to_one_predicate() {
        let mut o = opts("");
        o.explain = Some("p".to_owned());
        let out = analyze(DB, "db.mlog", &o).unwrap();
        assert!(out.contains("level ∈ u, class ∈ u"), "{out}");
        assert!(out.contains("rule `c[p(k : a -c-> t)] <- q(j).`"), "{out}");
        o.explain = Some("zz".to_owned());
        assert!(analyze(DB, "db.mlog", &o).is_err());
    }

    #[test]
    fn deny_flow_refuses_channelful_programs_only() {
        let mut o = opts("s");
        o.deny_flow = true;
        // DB has ML0202/ML0203/ML0204 findings: refused.
        let err = run(DB, &o).unwrap_err();
        assert!(err.contains("--deny flow"), "{err}");
        assert!(query(DB, "q(X)", &o).unwrap_err().contains("--deny flow"));
        assert!(ServeSession::new(DB, &o).is_err());
        // A channel-free program still evaluates.
        let clean = "level(u). level(s). order(u, s).\n\
                     u[r(k : a -u-> v)]. <- u[r(k : a -u-> v)].";
        let out = run(clean, &o).unwrap();
        assert!(out.contains("yes"), "{out}");
        // Without the flag DB evaluates as before.
        assert!(run(DB, &opts("s")).is_ok());
    }

    #[test]
    fn flow_prune_flag_keeps_answers_identical() {
        for goal in ["q(X)", "s[p(k : a -u-> v)]", "L[p(k : a -C-> V)] << opt"] {
            for user in ["u", "c", "s"] {
                let mut o = opts(user);
                o.engine = EngineKind::Reduced;
                let plain = query(DB, goal, &o).unwrap();
                o.flow_prune = true;
                assert_eq!(query(DB, goal, &o).unwrap(), plain, "goal {goal} at {user}");
            }
        }
    }

    #[test]
    fn flow_prune_stats_report_pruned_rules() {
        let mut o = opts("u");
        o.engine = EngineKind::Reduced;
        o.flow_prune = true;
        o.stats = true;
        let out = query(DB, "u[p(k : a -u-> v)]", &o).unwrap();
        assert!(out.contains("yes"), "{out}");
        // At clearance u, DB's c- and s-headed rules (and the cau
        // machinery for c and s) are statically invisible.
        let pruned = out
            .lines()
            .find_map(|l| l.split("pruned=").nth(1))
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or_else(|| panic!("no pruned= counter in: {out}"));
        assert!(pruned > 0, "{out}");
    }

    #[test]
    fn parse_args_flow_flags() {
        let to = |v: &[&str]| v.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
        // analyze works without --user.
        let (cmd, _, _, o) = parse_args(&to(&[
            "analyze",
            "f.mlog",
            "--explain",
            "p",
            "--format",
            "json",
        ]))
        .unwrap();
        assert_eq!(cmd, "analyze");
        assert_eq!(o.explain.as_deref(), Some("p"));
        assert!(o.json);
        let (_, _, _, o) = parse_args(&to(&[
            "query",
            "f.mlog",
            "--user",
            "s",
            "g",
            "--deny",
            "flow",
            "--flow-prune",
        ]))
        .unwrap();
        assert!(o.deny_flow);
        assert!(o.flow_prune);
        assert!(parse_args(&to(&["run", "f.mlog", "--user", "s", "--deny", "zz"])).is_err());
        assert!(parse_args(&to(&["analyze", "f.mlog", "--explain"])).is_err());
    }

    #[test]
    fn filter_option_changes_answers() {
        let src = r#"
            level(u). level(s). order(u, s).
            s[m(k : ship -u-> phantom)].
        "#;
        let plain = query(src, "u[m(k : ship -u-> phantom)]", &opts("s")).unwrap();
        assert!(plain.contains("no"));
        let mut o = opts("s");
        o.filter = true;
        let filtered = query(src, "u[m(k : ship -u-> phantom)]", &o).unwrap();
        assert!(filtered.contains("yes"), "{filtered}");
    }
}
