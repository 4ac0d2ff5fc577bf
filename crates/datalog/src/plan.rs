//! Rule compilation: slot-allocated join plans with greedy literal
//! ordering, executed over row-id batches.
//!
//! Each rule (and each semi-naive delta variant of it) is compiled once
//! per stratum into a [`RulePlan`]: variables become dense *slots* (the
//! columns of a binding batch), and body literals become a sequence of
//! [`Step`]s in an execution order chosen greedily — positive literals
//! ranked by bound-argument count then estimated relation cardinality,
//! negated and built-in literals scheduled as soon as their variables are
//! bound.
//!
//! # Batched execution
//!
//! The default executor ([`RulePlan::eval`]) runs each step over a
//! *batch* of up to [`CHUNK`] candidate bindings at once, represented
//! column-major (one `Vec<Const>` per live slot). A positive scan joins
//! the whole batch against the relation in one of three ways:
//!
//! * **no bound columns** — the matching rows are computed once (a
//!   constant-column index probe, or a full scan) and cross-producted
//!   with the batch;
//! * **bound columns, hash join** — the smaller side is hashed on all
//!   its bound-column cells and the other side probes the table. The
//!   relation side is hashed whole, as a *whole-key table*, once the
//!   batch rows a step has received in the current application (one
//!   [`RulePlan::eval`] call, counted across chunks), times
//!   [`TABLE_BUILD_RATIO`], reach the relation's size, for a small
//!   relation (≤ [`CHUNK`] rows) or one bound on two or more columns.
//!   The table is cached per step by relation version: EDB relations
//!   are hashed once per evaluation and probed by every chunk of every
//!   round, and a self-join such as the cautious-belief `beaten` over
//!   `bel_opt` — bound on `P, K, A, H` and the class, with an input
//!   covering the relation — probes only the rows sharing its whole key. A table over more
//!   than [`CHUNK`] rows lives for one application, and a prepared
//!   query that rebinds the step's constants drops it. Delta-sized
//!   inputs (DRed commits, prepared demand and reader goals) never
//!   reach the ratio and keep the merge join below. The hash join is
//!   also used when the driving constant column
//!   (`Relation::driving_const`) is indexed and selects no more
//!   candidate rows than the batch has bindings;
//! * **bound columns, merge join** otherwise — one bound column drives
//!   the seek and every other one is checked on each pair. The driver
//!   is chosen by the rule constants use (`Relation::driving_const`):
//!   the estimable column ([`Relation::count_eq`]) matching the fewest
//!   rows, else the first — counting live rows, since the estimates
//!   also count the tombstones a commit's deletions leave behind, but
//!   only up to the smallest estimate, so a fat column costs no more
//!   than a thin one to rule out. A batch of at least [`CURSOR_BATCH_MIN`]
//!   rows chooses once, sorts on that slot and merge-joins against the
//!   column's sorted permutation index via a galloping cursor
//!   ([`crate::storage::Relation::col_cursor`]); a smaller batch is
//!   grouped on all its bound cells and each group chooses its own
//!   column and probes it directly. With two or more bound columns
//!   each key group is checked after its seek: a group of `g`
//!   batch rows seeking `s` relation rows costs `g × s` pair checks, so
//!   once that product (or the rows seeked so far) exceeds one relation
//!   scan plus a chunk, the group and every later one *defect* to the
//!   hash join on all bound columns. No single key group therefore does
//!   more than `rel.len() + CHUNK` pair checks, and a defecting chunk
//!   costs one relation scan plus one hash operation per candidate row
//!   and per remaining batch row (the batch side is usually the one
//!   hashed).
//!
//! Sorted permutation indexes are built lazily: each plan records the
//! `(predicate, column)` pairs it probes (`index_needs`) and the
//! evaluator seals exactly those columns at round boundaries.
//!
//! Join results are flushed to the next step in [`CHUNK`]-row batches,
//! so memory stays bounded and the evaluation guard keeps tripping
//! inside a single (possibly enormous) rule application. A negation
//! that binds every column is a membership test
//! ([`Relation::contains`]), one probe per row, and needs no column
//! index; a partially bound one is memoized per distinct bound-cell
//! tuple within a batch and counts the candidate rows its probe scans.
//! Comparisons and arithmetic filter the batch columnwise.
//!
//! Plans are the only way the engine runs a rule. Their oracle is
//! [`crate::reference`], a naive evaluator that reads `Clause`s directly
//! and shares nothing with the planner, so a plan-compiler bug cannot
//! hide from it.
//!
//! # Negation under reordering
//!
//! A negated literal may contain variables that occur in no positive
//! literal *textually before* it; these are existentially quantified
//! inside the negation (`¬∃Y r(X, Y)`). That existential set is fixed
//! **statically from the textual order** before any reordering, so a
//! variable stays existential even when the chosen execution order has
//! already bound it — reordering never changes which facts a rule
//! derives.

use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::mem;

use crate::atom::{ArithOp, CmpOp, Literal};
use crate::clause::Clause;
use crate::fx::{FxHashMap, FxHasher};
use crate::guard::{EvalGuard, GuardCursor};
use crate::storage::{key_of, Database, Driver, FactBuf, Relation};
use crate::term::{Const, SymId, Term};
use crate::{DatalogError, Result};

/// Rows per flushed batch: join pairs are forwarded to the next step in
/// groups of this size, bounding intermediate memory and keeping guard
/// checks frequent.
const CHUNK: usize = 4096;

/// A stale join table is rebuilt only when the rows a step has received
/// in the current application, times this ratio, reach `rel.len()`:
/// hashing a relation row costs a few times more than probing, so
/// smaller inputs use the sorted indexes instead.
const TABLE_BUILD_RATIO: usize = 8;

/// Minimum batch size for a merge-join column cursor. Constructing a
/// cursor sorts the index's uncovered tail (up to `INDEX_TAIL_MAX`
/// rows), which only pays off across many seeks; smaller batches probe
/// each key group through the index directly.
const CURSOR_BATCH_MIN: usize = 64;

/// Batch rows, evenly spaced, whose bound cells estimate each column's
/// seek cost when a merge join picks one driving column for a whole
/// batch (`RulePlan::driving_bound`).
const DRIVER_SAMPLE: usize = 8;

/// One column of a negated-literal probe.
#[derive(Clone, Copy, Debug)]
enum NegCol {
    /// Must equal this constant.
    Const(Const),
    /// Must equal the slot value (non-existential variable).
    Bound(u32),
    /// Existential variable, first occurrence: captures into a local.
    Local(u32),
    /// Existential variable, repeated: must equal the captured local.
    LocalCheck(u32),
}

/// A value source for comparisons, arithmetic, and head projection.
#[derive(Clone, Copy, Debug)]
enum ValSrc {
    Const(Const),
    Slot(u32),
}

/// What an arithmetic built-in does with its result.
#[derive(Clone, Copy, Debug)]
enum ArithTarget {
    /// Bind the result into an unbound slot.
    Bind(u32),
    /// The target slot is already bound: check equality.
    CheckSlot(u32),
    /// The target is a constant: check equality.
    CheckConst(Const),
}

/// The column roles of a positive scan.
#[derive(Clone, Debug, Default)]
struct ScanSpec {
    /// Columns that must equal a constant.
    consts: Vec<(usize, Const)>,
    /// Columns that must equal an already-bound slot.
    bounds: Vec<(usize, u32)>,
    /// Columns whose cell binds a slot first occurring here.
    binds: Vec<(usize, u32)>,
    /// Repeated-variable columns: cell must equal the earlier column
    /// (within the same atom) that binds the shared slot.
    checks: Vec<(usize, usize)>,
    /// How to assemble an output row for the *live* slots after this
    /// step: copy from the matched fact's column (`Some(col)`) or carry
    /// from the input batch (`None`).
    gather: Vec<(u32, Option<usize>)>,
}

/// One scheduled operation of a compiled rule body.
#[derive(Clone, Debug)]
enum Step {
    /// Join against a relation (or the delta relation for the variant's
    /// distinguished body position).
    Scan {
        pred: SymId,
        from_delta: bool,
        arity: usize,
        spec: ScanSpec,
    },
    /// Prune unless `¬∃(locals) pred(cols)` holds.
    Neg {
        pred: SymId,
        cols: Vec<NegCol>,
        n_locals: usize,
        consts: Vec<(usize, Const)>,
        bounds: Vec<(usize, u32)>,
    },
    /// Prune unless the comparison holds.
    Cmp { op: CmpOp, lhs: ValSrc, rhs: ValSrc },
    /// Evaluate `lhs op rhs` and bind or check the target.
    Arith {
        op: ArithOp,
        lhs: ValSrc,
        rhs: ValSrc,
        target: ArithTarget,
    },
}

/// A column-major batch of candidate bindings: `cols` is indexed by slot
/// id, and only the slots live at the current step (the plan's `carry`
/// set) hold `n` values.
#[derive(Debug, Default)]
struct Batch {
    n: usize,
    cols: Vec<Vec<Const>>,
}

impl Batch {
    fn reset(&mut self, n_slots: usize) {
        self.n = 0;
        if self.cols.len() < n_slots {
            self.cols.resize_with(n_slots, Vec::new);
        }
        for c in &mut self.cols {
            c.clear();
        }
    }

    #[inline]
    fn get(&self, slot: u32, row: usize) -> Const {
        self.cols[slot as usize][row]
    }
}

/// A cached hash-join table for one scan step: live rows satisfying the
/// scan's constant/check columns, keyed by the hash of their
/// bound-column cells. Valid for exactly one relation version
/// ([`Relation::version`]), so it is built once per version and reused
/// across chunks — and, over a small relation (≤ [`CHUNK`] rows), across
/// evaluation rounds too: for EDB relations, exactly once. A table over
/// a larger relation costs memory in proportion to it and was paid for
/// by one application's input, so it is dropped when that application
/// ends.
struct JoinTable {
    version: u128,
    map: Buckets,
    /// Built over a relation larger than [`CHUNK`] rows: dropped at the
    /// end of the application that built it.
    transient: bool,
}

/// Row ids grouped by the hash of their join key, in one array: each
/// hash's ids stay in the order they were added, and a table costs a
/// few words per row rather than an allocation per key.
struct Buckets {
    /// Key hash → the range of `ids` holding its rows.
    spans: FxHashMap<u64, (u32, u32)>,
    ids: Vec<u32>,
}

impl Buckets {
    /// Group `(hash, id)` entries by hash.
    fn new(mut entries: Vec<(u64, u32)>) -> Self {
        // A stable sort keeps each hash's ids in the order they came.
        entries.sort_by_key(|&(hash, _)| hash);
        let mut spans = FxHashMap::default();
        let mut at = 0;
        for run in entries.chunk_by(|a, b| a.0 == b.0) {
            spans.insert(run[0].0, (at, clamp(run.len())));
            at += clamp(run.len());
        }
        let ids = entries.into_iter().map(|(_, id)| id).collect();
        Buckets { spans, ids }
    }

    /// The ids whose key hashes to `hash`.
    fn get(&self, hash: u64) -> &[u32] {
        self.spans
            .get(&hash)
            .map_or(&[], |&(at, n)| &self.ids[at as usize..(at + n) as usize])
    }
}

/// Reusable per-plan evaluation buffers: one pattern/local/batch/row
/// buffer per step, taken out and restored around the recursive join so
/// no per-row allocation happens.
pub(crate) struct Scratch {
    patterns: Vec<Vec<Option<Const>>>,
    locals: Vec<Vec<Const>>,
    /// Per-step output batches of the batched executor.
    batches: Vec<Batch>,
    /// Per-step row-id buffers of the batched executor.
    rowbufs: Vec<Vec<u32>>,
    /// Per-step cached join tables.
    tables: Vec<Option<JoinTable>>,
    /// Per-step batch rows received in the current application (one
    /// [`RulePlan::eval`] call): what decides whether a step's relation
    /// is worth hashing whole.
    seen: Vec<usize>,
    /// Guard tick state and probe counter for this plan's evaluations.
    cursor: GuardCursor,
    /// Merge joins that defected to a hash join since the last take.
    defections: u64,
}

impl Scratch {
    /// Take (and reset) the join-probe count accumulated since the last
    /// call, for per-rule statistics.
    pub(crate) fn take_probes(&mut self) -> u64 {
        self.cursor.take_probes()
    }

    /// Take (and reset) the merge→hash join defection count accumulated
    /// since the last call, for per-rule statistics.
    pub(crate) fn take_defections(&mut self) -> u64 {
        mem::take(&mut self.defections)
    }

    /// Start the guard tick state afresh for a new run under a new
    /// guard, so the run checks it exactly as a new scratch would — its
    /// first check reading the clock — however an earlier run ended.
    pub(crate) fn restart(&mut self) {
        self.cursor = GuardCursor::new();
        self.defections = 0;
    }
}

/// A compiled rule variant: slots, ordered steps, head projection.
#[derive(Debug)]
pub(crate) struct RulePlan {
    /// The head predicate (interned).
    pub head_pred: SymId,
    head: Vec<ValSrc>,
    steps: Vec<Step>,
    n_slots: usize,
    /// `carry[i]`: the slots (sorted) whose values batches entering step
    /// `i` carry — bound before step `i` *and* still read by step `i` or
    /// later (or the head). `carry[steps.len()]` feeds the projection.
    carry: Vec<Vec<u32>>,
    /// The textual body position reading from the delta relation, if this
    /// is a semi-naive variant.
    pub delta_pred: Option<SymId>,
    /// `(predicate, column)` pairs this plan probes by value — constant
    /// and bound columns of its stored-relation scans and negations. The
    /// evaluator seals exactly these sorted indexes at round boundaries
    /// (`Database::ensure_index_id`); unlisted columns are never indexed.
    pub(crate) index_needs: Vec<(SymId, usize)>,
    /// Human-readable description of the chosen join order.
    pub order_desc: String,
    /// Where each constant of a body atom (positive or negated) landed,
    /// in textual order — the parameter order of a prepared query
    /// ([`RulePlan::rebind`]): its step and column.
    pub(crate) params: Vec<(usize, usize)>,
}

/// A row count as a probe count, saturating at `u32::MAX`.
fn clamp(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

fn hash_cells(cells: impl Iterator<Item = Const>) -> u64 {
    let mut h = FxHasher::default();
    for c in cells {
        c.hash(&mut h);
    }
    h.finish()
}

impl RulePlan {
    /// Compile `rule` into a plan. `delta_pos` selects the body position
    /// that reads from a delta relation (semi-naive variant); `db`
    /// supplies relation cardinality estimates for the greedy ordering.
    #[allow(clippy::too_many_lines)]
    pub fn compile(rule: &Clause, delta_pos: Option<usize>, db: &Database) -> Result<Self> {
        let unsafe_var = |v: &str| DatalogError::UnsafeVariable {
            variable: v.to_owned(),
            clause: rule.to_string(),
        };

        // Slot allocation: every variable bound by a positive literal or
        // an arithmetic target gets a dense slot.
        let mut slots: HashMap<&str, u32> = HashMap::new();
        fn slot_of<'a>(v: &'a str, slots: &mut HashMap<&'a str, u32>) -> u32 {
            let next = u32::try_from(slots.len()).expect("slot overflow");
            *slots.entry(v).or_insert(next)
        }
        for lit in &rule.body {
            match lit {
                Literal::Pos(a) => {
                    for v in a.variables() {
                        slot_of(v, &mut slots);
                    }
                }
                Literal::Arith { target, .. } => {
                    if let Some(v) = target.as_var() {
                        slot_of(v, &mut slots);
                    }
                }
                Literal::Neg(_) | Literal::Cmp { .. } => {}
            }
        }

        // Existential sets of negated literals, fixed by TEXTUAL order:
        // vars not bound by any earlier positive literal or arithmetic
        // target are quantified inside the negation.
        let mut textually_bound: HashSet<&str> = HashSet::new();
        let mut existential: Vec<Option<HashSet<&str>>> = Vec::with_capacity(rule.body.len());
        for lit in &rule.body {
            match lit {
                Literal::Neg(a) => {
                    let e: HashSet<&str> = a
                        .variables()
                        .filter(|v| !textually_bound.contains(v))
                        .collect();
                    existential.push(Some(e));
                }
                Literal::Pos(a) => {
                    textually_bound.extend(a.variables());
                    existential.push(None);
                }
                Literal::Arith { target, .. } => {
                    textually_bound.extend(target.as_var());
                    existential.push(None);
                }
                Literal::Cmp { .. } => existential.push(None),
            }
        }

        // Parameter numbering: the constants of body atoms, in textual
        // order; `param_base[i]` numbers the first one of literal `i`.
        let mut param_base = Vec::with_capacity(rule.body.len());
        let mut n_params = 0;
        for lit in &rule.body {
            param_base.push(n_params);
            if let Literal::Pos(a) | Literal::Neg(a) = lit {
                n_params += a.terms.iter().filter(|t| !t.is_var()).count();
            }
        }
        let mut params = vec![(0, 0); n_params];
        let mut place = |i: usize, step: usize, a: &crate::Atom| {
            let cols = a.terms.iter().enumerate().filter(|(_, t)| !t.is_var());
            for (k, (c, _)) in cols.enumerate() {
                params[param_base[i] + k] = (step, c);
            }
        };

        // Greedy scheduling.
        let mut bound: HashSet<u32> = HashSet::new();
        let mut scheduled = vec![false; rule.body.len()];
        let mut steps: Vec<Step> = Vec::with_capacity(rule.body.len());
        let mut carry: Vec<Vec<u32>> = Vec::with_capacity(rule.body.len() + 1);
        let mut order: Vec<usize> = Vec::with_capacity(rule.body.len());

        let snap = |bound: &HashSet<u32>| -> Vec<u32> {
            let mut v: Vec<u32> = bound.iter().copied().collect();
            v.sort_unstable();
            v
        };

        let val_src = |t: &Term, slots: &HashMap<&str, u32>| -> Result<ValSrc> {
            match t {
                Term::Const(c) => Ok(ValSrc::Const(*c)),
                Term::Var(v) => slots
                    .get(v.as_ref())
                    .map(|&s| ValSrc::Slot(s))
                    .ok_or_else(|| unsafe_var(v)),
            }
        };

        while scheduled.iter().any(|&s| !s) {
            // Flush every ready non-positive literal, in textual order.
            let mut progressed = true;
            while progressed {
                progressed = false;
                for i in 0..rule.body.len() {
                    if scheduled[i] {
                        continue;
                    }
                    match &rule.body[i] {
                        Literal::Neg(a) => {
                            let e = existential[i].as_ref().expect("neg has existential set");
                            let ready = a.variables().all(|v| {
                                e.contains(v) || slots.get(v).is_some_and(|s| bound.contains(s))
                            });
                            if !ready {
                                continue;
                            }
                            let mut local_of: HashMap<&str, u32> = HashMap::new();
                            let mut cols = Vec::with_capacity(a.terms.len());
                            for t in &a.terms {
                                cols.push(match t {
                                    Term::Const(c) => NegCol::Const(*c),
                                    Term::Var(v) if e.contains(v.as_ref()) => {
                                        let next =
                                            u32::try_from(local_of.len()).expect("local overflow");
                                        match local_of.entry(v.as_ref()) {
                                            std::collections::hash_map::Entry::Occupied(o) => {
                                                NegCol::LocalCheck(*o.get())
                                            }
                                            std::collections::hash_map::Entry::Vacant(va) => {
                                                va.insert(next);
                                                NegCol::Local(next)
                                            }
                                        }
                                    }
                                    Term::Var(v) => NegCol::Bound(slots[v.as_ref()]),
                                });
                            }
                            let consts = cols
                                .iter()
                                .enumerate()
                                .filter_map(|(c, col)| match col {
                                    NegCol::Const(v) => Some((c, *v)),
                                    _ => None,
                                })
                                .collect();
                            let neg_bounds = cols
                                .iter()
                                .enumerate()
                                .filter_map(|(c, col)| match col {
                                    NegCol::Bound(s) => Some((c, *s)),
                                    _ => None,
                                })
                                .collect();
                            carry.push(snap(&bound));
                            place(i, steps.len(), a);
                            steps.push(Step::Neg {
                                pred: a.predicate,
                                cols,
                                n_locals: local_of.len(),
                                consts,
                                bounds: neg_bounds,
                            });
                            scheduled[i] = true;
                            order.push(i);
                            progressed = true;
                        }
                        Literal::Cmp { op, lhs, rhs } => {
                            let ready = [lhs, rhs].into_iter().all(|t| {
                                t.as_var()
                                    .is_none_or(|v| slots.get(v).is_some_and(|s| bound.contains(s)))
                            });
                            if !ready {
                                continue;
                            }
                            carry.push(snap(&bound));
                            steps.push(Step::Cmp {
                                op: *op,
                                lhs: val_src(lhs, &slots)?,
                                rhs: val_src(rhs, &slots)?,
                            });
                            scheduled[i] = true;
                            order.push(i);
                            progressed = true;
                        }
                        Literal::Arith {
                            target,
                            lhs,
                            op,
                            rhs,
                        } => {
                            let ready = [lhs, rhs].into_iter().all(|t| {
                                t.as_var()
                                    .is_none_or(|v| slots.get(v).is_some_and(|s| bound.contains(s)))
                            });
                            if !ready {
                                continue;
                            }
                            carry.push(snap(&bound));
                            let tgt = match target {
                                Term::Const(c) => ArithTarget::CheckConst(*c),
                                Term::Var(v) => {
                                    let s = slots[v.as_ref()];
                                    if bound.contains(&s) {
                                        ArithTarget::CheckSlot(s)
                                    } else {
                                        bound.insert(s);
                                        ArithTarget::Bind(s)
                                    }
                                }
                            };
                            steps.push(Step::Arith {
                                op: *op,
                                lhs: val_src(lhs, &slots)?,
                                rhs: val_src(rhs, &slots)?,
                                target: tgt,
                            });
                            scheduled[i] = true;
                            order.push(i);
                            progressed = true;
                        }
                        Literal::Pos(_) => {}
                    }
                }
            }

            // Pick the best remaining positive literal: most bound
            // argument positions, then smallest estimated cardinality,
            // then textual position (for determinism).
            let best = (0..rule.body.len())
                .filter(|&i| !scheduled[i])
                .filter_map(|i| match &rule.body[i] {
                    Literal::Pos(a) => Some((i, a)),
                    _ => None,
                })
                .min_by_key(|&(i, a)| {
                    let bound_args = a
                        .terms
                        .iter()
                        .filter(|t| match t {
                            Term::Const(_) => true,
                            Term::Var(v) => {
                                slots.get(v.as_ref()).is_some_and(|s| bound.contains(s))
                            }
                        })
                        .count();
                    let est = if delta_pos == Some(i) {
                        // Deltas are typically tiny: rank them below every
                        // full relation so they are scheduled early.
                        0
                    } else {
                        db.relation_id(a.predicate).map_or(0, Relation::len) + 1
                    };
                    (usize::MAX - bound_args, est, i)
                });
            let Some((i, a)) = best else { break };
            let mut spec = ScanSpec::default();
            let mut first_col_of_slot: HashMap<u32, usize> = HashMap::new();
            for (c, t) in a.terms.iter().enumerate() {
                match t {
                    Term::Const(v) => spec.consts.push((c, *v)),
                    Term::Var(v) => {
                        let s = slots[v.as_ref()];
                        if bound.contains(&s) {
                            spec.bounds.push((c, s));
                        } else if let Some(&first) = first_col_of_slot.get(&s) {
                            spec.checks.push((c, first));
                        } else {
                            first_col_of_slot.insert(s, c);
                            spec.binds.push((c, s));
                        }
                    }
                }
            }
            carry.push(snap(&bound));
            bound.extend(first_col_of_slot.into_keys());
            place(i, steps.len(), a);
            steps.push(Step::Scan {
                pred: a.predicate,
                from_delta: delta_pos == Some(i),
                arity: a.terms.len(),
                spec,
            });
            scheduled[i] = true;
            order.push(i);
        }

        // Anything left never became ready: a built-in over variables no
        // positive literal binds. (The textual evaluator paniced here.)
        if let Some(i) = scheduled.iter().position(|&s| !s) {
            let v = rule.body[i]
                .variables()
                .into_iter()
                .find(|v| slots.get(v).is_none_or(|s| !bound.contains(s)))
                .unwrap_or("_");
            return Err(unsafe_var(v));
        }
        carry.push(snap(&bound));

        // Head projection (safety guarantees every head var is bound).
        let head = rule
            .head
            .terms
            .iter()
            .map(|t| val_src(t, &slots))
            .collect::<Result<Vec<_>>>()?;

        // Liveness trim: a batch entering step i only needs the slots
        // some step >= i (or the head) still reads. Then fix each scan's
        // gather list: its output rows are exactly carry[i + 1].
        let mut live: HashSet<u32> = head
            .iter()
            .filter_map(|h| match h {
                ValSrc::Slot(s) => Some(*s),
                ValSrc::Const(_) => None,
            })
            .collect();
        carry[steps.len()].retain(|s| live.contains(s));
        for i in (0..steps.len()).rev() {
            let slot_reads = |v: &ValSrc, live: &mut HashSet<u32>| {
                if let ValSrc::Slot(s) = v {
                    live.insert(*s);
                }
            };
            match &steps[i] {
                Step::Scan { spec, .. } => {
                    for &(_, s) in &spec.bounds {
                        live.insert(s);
                    }
                }
                Step::Neg { bounds, .. } => {
                    for &(_, s) in bounds {
                        live.insert(s);
                    }
                }
                Step::Cmp { lhs, rhs, .. } => {
                    slot_reads(lhs, &mut live);
                    slot_reads(rhs, &mut live);
                }
                Step::Arith {
                    lhs, rhs, target, ..
                } => {
                    slot_reads(lhs, &mut live);
                    slot_reads(rhs, &mut live);
                    if let ArithTarget::CheckSlot(s) = target {
                        live.insert(*s);
                    }
                }
            }
            carry[i].retain(|s| live.contains(s));
        }
        for i in 0..steps.len() {
            let out_slots = carry[i + 1].clone();
            if let Step::Scan { spec, .. } = &mut steps[i] {
                spec.gather = out_slots
                    .iter()
                    .map(|&slot| {
                        let from = spec
                            .binds
                            .iter()
                            .find(|&&(_, s)| s == slot)
                            .map(|&(c, _)| c);
                        (slot, from)
                    })
                    .collect();
            }
        }

        // Index demand: every column a stored-relation scan or negation
        // probes by value. Delta scans enumerate the delta fact list and
        // probe nothing.
        let mut index_needs: Vec<(SymId, usize)> = Vec::new();
        for s in &steps {
            match s {
                Step::Scan {
                    pred,
                    from_delta: false,
                    spec,
                    ..
                } => {
                    index_needs.extend(spec.consts.iter().map(|&(c, _)| (*pred, c)));
                    index_needs.extend(spec.bounds.iter().map(|&(c, _)| (*pred, c)));
                }
                // A fully bound negation tests membership and probes no
                // column.
                Step::Neg {
                    pred,
                    consts,
                    bounds,
                    n_locals,
                    ..
                } if *n_locals > 0 => {
                    index_needs.extend(consts.iter().map(|&(c, _)| (*pred, c)));
                    index_needs.extend(bounds.iter().map(|&(c, _)| (*pred, c)));
                }
                Step::Scan { .. } | Step::Neg { .. } | Step::Cmp { .. } | Step::Arith { .. } => {}
            }
        }
        index_needs.sort_unstable();
        index_needs.dedup();

        let order_desc = format!(
            "{}{} :- [{}]",
            rule.head.predicate,
            match delta_pos {
                Some(p) => format!(" (Δ@{p})"),
                None => String::new(),
            },
            order
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(",")
        );

        Ok(RulePlan {
            head_pred: rule.head.predicate,
            head,
            steps,
            n_slots: slots.len(),
            carry,
            delta_pred: delta_pos.map(|p| {
                rule.body[p]
                    .atom()
                    .expect("delta position is a positive literal")
                    .predicate
            }),
            index_needs,
            order_desc,
            params,
        })
    }

    /// Overwrite the body-atom constants with `params`, in textual order
    /// (as numbered at compile), so one plan answers every query of its
    /// shape. A step whose constants change drops its cached join table:
    /// the table holds only the rows matching the old constants.
    pub(crate) fn rebind(&mut self, params: &[Const], scratch: &mut Scratch) {
        for (&(step, col), &v) in self.params.iter().zip(params) {
            let (consts, neg_cols) = match &mut self.steps[step] {
                Step::Scan { spec, .. } => (&mut spec.consts, None),
                Step::Neg { consts, cols, .. } => (consts, Some(cols)),
                Step::Cmp { .. } | Step::Arith { .. } => continue,
            };
            let Some(cell) = consts.iter_mut().find(|(c, _)| *c == col) else {
                continue;
            };
            if cell.1 != v {
                cell.1 = v;
                if let Some(cols) = neg_cols {
                    cols[col] = NegCol::Const(v);
                }
                scratch.tables[step] = None;
            }
        }
    }

    /// Allocate evaluation buffers sized for this plan.
    pub fn new_scratch(&self) -> Scratch {
        Scratch {
            patterns: self
                .steps
                .iter()
                .map(|s| match s {
                    Step::Neg { cols, .. } => Vec::with_capacity(cols.len()),
                    _ => Vec::new(),
                })
                .collect(),
            locals: self
                .steps
                .iter()
                .map(|s| match s {
                    Step::Neg { n_locals, .. } => vec![Const::Int(0); *n_locals],
                    _ => Vec::new(),
                })
                .collect(),
            batches: self.steps.iter().map(|_| Batch::default()).collect(),
            rowbufs: self.steps.iter().map(|_| Vec::new()).collect(),
            tables: self.steps.iter().map(|_| None).collect(),
            seen: vec![0; self.steps.len()],
            cursor: GuardCursor::new(),
            defections: 0,
        }
    }

    /// Evaluate the plan with the batched executor, appending every head
    /// instantiation (possibly with duplicates) to `out`. `delta`
    /// supplies the delta facts when this is a semi-naive variant; deltas
    /// are plain fact lists (no indexes) because the planner schedules
    /// the delta scan early, where it is enumerated rather than probed.
    /// The `guard` is consulted at tick granularity inside the join loop
    /// and once more on completion, so deadline, budget, and cancellation
    /// trips surface from within a single (possibly enormous) rule
    /// application.
    pub fn eval(
        &self,
        db: &Database,
        delta: Option<&FactBuf>,
        scratch: &mut Scratch,
        out: &mut FactBuf,
        guard: &EvalGuard,
    ) -> Result<()> {
        let mut root = Batch::default();
        root.reset(self.n_slots);
        root.n = 1; // the single empty binding
        scratch.seen.fill(0);
        let result = self.exec_batch(0, db, delta, &root, scratch, out, guard);
        for table in &mut scratch.tables {
            if table.as_ref().is_some_and(|t| t.transient) {
                *table = None;
            }
        }
        result?;
        scratch.cursor.flush(guard)
    }

    #[inline]
    fn resolve_batch(&self, v: ValSrc, batch: &Batch, row: usize) -> Const {
        match v {
            ValSrc::Const(c) => c,
            ValSrc::Slot(s) => batch.get(s, row),
        }
    }

    /// Copy the carried slots of `row` from `batch` into `child`.
    #[inline]
    fn carry_row(&self, step: usize, batch: &Batch, row: usize, child: &mut Batch) {
        for &slot in &self.carry[step + 1] {
            child.cols[slot as usize].push(batch.get(slot, row));
        }
        child.n += 1;
    }

    #[allow(clippy::too_many_arguments, clippy::too_many_lines)]
    fn exec_batch(
        &self,
        step: usize,
        db: &Database,
        delta: Option<&FactBuf>,
        batch: &Batch,
        scratch: &mut Scratch,
        out: &mut FactBuf,
        guard: &EvalGuard,
    ) -> Result<()> {
        if batch.n == 0 {
            return Ok(());
        }
        let Some(s) = self.steps.get(step) else {
            for row in 0..batch.n {
                scratch.cursor.emit(guard)?;
                out.push_row(self.head.iter().map(|h| self.resolve_batch(*h, batch, row)));
            }
            return Ok(());
        };
        match s {
            Step::Scan {
                pred,
                from_delta,
                arity,
                spec,
            } => {
                let mut child = mem::take(&mut scratch.batches[step]);
                child.reset(self.n_slots);
                let mut result = if *from_delta {
                    self.scan_delta(
                        step, spec, db, delta, batch, &mut child, scratch, out, guard,
                    )
                } else {
                    self.scan_rel(
                        step, *pred, spec, *arity, db, delta, batch, &mut child, scratch, out,
                        guard,
                    )
                };
                if result.is_ok() && child.n > 0 {
                    result = self.exec_batch(step + 1, db, delta, &child, scratch, out, guard);
                }
                scratch.batches[step] = child;
                result
            }
            Step::Neg {
                pred,
                cols,
                n_locals,
                consts,
                bounds,
            } => {
                let mut child = mem::take(&mut scratch.batches[step]);
                child.reset(self.n_slots);
                let mut result = Ok(());
                match db.relation_id(*pred) {
                    // Fully bound: one membership test per row.
                    Some(rel) if *n_locals == 0 => {
                        let mut fact: Vec<Const> = Vec::with_capacity(cols.len());
                        for row in 0..batch.n {
                            fact.clear();
                            fact.extend(cols.iter().filter_map(|col| match col {
                                NegCol::Const(v) => Some(*v),
                                NegCol::Bound(s) => Some(batch.get(*s, row)),
                                NegCol::Local(_) | NegCol::LocalCheck(_) => None,
                            }));
                            result = scratch.cursor.probe_n(1, guard);
                            if result.is_err() {
                                break;
                            }
                            if !rel.contains(&fact) {
                                self.carry_row(step, batch, row, &mut child);
                            }
                        }
                    }
                    Some(rel) => {
                        let mut pattern = mem::take(&mut scratch.patterns[step]);
                        pattern.clear();
                        pattern.resize(cols.len(), None);
                        for &(c, v) in consts {
                            pattern[c] = Some(v);
                        }
                        let mut locals = mem::take(&mut scratch.locals[step]);
                        locals.clear();
                        locals.resize(*n_locals, Const::Int(0));
                        let mut rows = mem::take(&mut scratch.rowbufs[step]);
                        // Memoize existence per distinct bound-cell tuple:
                        // batches routinely repeat the same join key.
                        let mut memo: FxHashMap<Box<[Const]>, bool> = FxHashMap::default();
                        let mut key: Vec<Const> = Vec::with_capacity(bounds.len());
                        for row in 0..batch.n {
                            key.clear();
                            key.extend(bounds.iter().map(|&(_, s)| batch.get(s, row)));
                            let exists = match memo.get(key.as_slice()) {
                                Some(&e) => e,
                                None => {
                                    for &(c, s) in bounds {
                                        pattern[c] = Some(batch.get(s, row));
                                    }
                                    let scanned = rel.matching_rows(&pattern, &mut rows);
                                    let e = rows.iter().any(|&r| {
                                        cols.iter().enumerate().all(|(i, col)| match col {
                                            NegCol::Local(l) => {
                                                locals[*l as usize] = rel.cell(r, i);
                                                true
                                            }
                                            NegCol::LocalCheck(l) => {
                                                locals[*l as usize] == rel.cell(r, i)
                                            }
                                            NegCol::Const(_) | NegCol::Bound(_) => true,
                                        })
                                    });
                                    result = scratch.cursor.probe_n(clamp(scanned), guard);
                                    memo.insert(key.clone().into_boxed_slice(), e);
                                    e
                                }
                            };
                            if result.is_err() {
                                break;
                            }
                            if !exists {
                                self.carry_row(step, batch, row, &mut child);
                            }
                        }
                        scratch.patterns[step] = pattern;
                        scratch.locals[step] = locals;
                        scratch.rowbufs[step] = rows;
                    }
                    // Missing relation: the negation holds for every row.
                    None => {
                        for row in 0..batch.n {
                            self.carry_row(step, batch, row, &mut child);
                        }
                    }
                }
                if result.is_ok() {
                    result = self.exec_batch(step + 1, db, delta, &child, scratch, out, guard);
                }
                scratch.batches[step] = child;
                result
            }
            Step::Cmp { op, lhs, rhs } => {
                let mut child = mem::take(&mut scratch.batches[step]);
                child.reset(self.n_slots);
                let mut result = Ok(());
                for row in 0..batch.n {
                    let l = self.resolve_batch(*lhs, batch, row);
                    let r = self.resolve_batch(*rhs, batch, row);
                    match op.eval(&l, &r) {
                        Ok(true) => self.carry_row(step, batch, row, &mut child),
                        Ok(false) => {}
                        Err(e) => {
                            result = Err(e);
                            break;
                        }
                    }
                }
                if result.is_ok() {
                    result = self.exec_batch(step + 1, db, delta, &child, scratch, out, guard);
                }
                scratch.batches[step] = child;
                result
            }
            Step::Arith {
                op,
                lhs,
                rhs,
                target,
            } => {
                let as_int = |v: Const| -> Result<i64> {
                    match v {
                        Const::Int(i) => Ok(i),
                        other => Err(DatalogError::IncomparableTerms {
                            left: other.to_string(),
                            right: "integer".to_owned(),
                        }),
                    }
                };
                let mut child = mem::take(&mut scratch.batches[step]);
                child.reset(self.n_slots);
                let mut result = Ok(());
                for row in 0..batch.n {
                    let value = as_int(self.resolve_batch(*lhs, batch, row))
                        .and_then(|l| as_int(self.resolve_batch(*rhs, batch, row)).map(|r| (l, r)))
                        .and_then(|(l, r)| op.eval(l, r));
                    let value = match value {
                        Ok(v) => Const::Int(v),
                        Err(e) => {
                            result = Err(e);
                            break;
                        }
                    };
                    let keep = match target {
                        ArithTarget::CheckConst(c) => *c == value,
                        ArithTarget::CheckSlot(s) => batch.get(*s, row) == value,
                        ArithTarget::Bind(_) => true,
                    };
                    if keep {
                        for &slot in &self.carry[step + 1] {
                            let v = match target {
                                // The bound slot is new: the parent batch
                                // has no column for it.
                                ArithTarget::Bind(b) if *b == slot => value,
                                _ => batch.get(slot, row),
                            };
                            child.cols[slot as usize].push(v);
                        }
                        child.n += 1;
                    }
                }
                if result.is_ok() {
                    result = self.exec_batch(step + 1, db, delta, &child, scratch, out, guard);
                }
                scratch.batches[step] = child;
                result
            }
        }
    }

    /// Append one join pair — input-batch row × relation row — to the
    /// child batch, flushing a full child downstream.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn push_rel_pair(
        &self,
        step: usize,
        spec: &ScanSpec,
        batch: &Batch,
        row: usize,
        rel: &Relation,
        rel_row: u32,
        child: &mut Batch,
        db: &Database,
        delta: Option<&FactBuf>,
        scratch: &mut Scratch,
        out: &mut FactBuf,
        guard: &EvalGuard,
    ) -> Result<()> {
        for &(slot, from) in &spec.gather {
            let v = match from {
                Some(c) => rel.cell(rel_row, c),
                None => batch.get(slot, row),
            };
            child.cols[slot as usize].push(v);
        }
        child.n += 1;
        if child.n >= CHUNK {
            self.exec_batch(step + 1, db, delta, child, scratch, out, guard)?;
            child.reset(self.n_slots);
        }
        Ok(())
    }

    /// Drop candidate rows violating this scan's constant columns or
    /// intra-atom repeated variables. The merge path seeks on a *bound*
    /// column, so even a single const column must still be checked here.
    fn retain_scan_rows(spec: &ScanSpec, rel: &Relation, rows: &mut Vec<u32>) {
        if !spec.consts.is_empty() || !spec.checks.is_empty() {
            rows.retain(|&r| {
                spec.consts.iter().all(|&(c, v)| rel.cell(r, c) == v)
                    && spec
                        .checks
                        .iter()
                        .all(|&(c, b)| rel.cell(r, c) == rel.cell(r, b))
            });
        }
    }

    /// Replace `rows` with the live rows satisfying this scan's constant
    /// and repeated-variable columns, driven by `driver` (this scan's
    /// [`Relation::driving_const`]).
    fn candidate_rows(
        spec: &ScanSpec,
        rel: &Relation,
        driver: Option<Driver>,
        rows: &mut Vec<u32>,
    ) {
        rows.clear();
        rel.driven_rows(driver, rows);
        Self::retain_scan_rows(spec, rel, rows);
    }

    /// Hash join of `batch_rows` with the scan's candidate rows on every
    /// bound column. The relation side is hashed when a current cached
    /// table exists, when `cache` asks for one (a [`JoinTable`], kept for
    /// the step's next chunk until the relation version changes), or when it
    /// has no more candidates than `batch_rows`; otherwise the batch rows
    /// are hashed and the candidates probe them. Keys are hashes, so every
    /// pair is verified on all bound columns.
    #[allow(clippy::too_many_arguments)]
    fn hash_join(
        &self,
        step: usize,
        spec: &ScanSpec,
        rel: &Relation,
        driver: Option<Driver>,
        cache: bool,
        batch: &Batch,
        mut batch_rows: impl ExactSizeIterator<Item = u32>,
        child: &mut Batch,
        db: &Database,
        delta: Option<&FactBuf>,
        scratch: &mut Scratch,
        out: &mut FactBuf,
        guard: &EvalGuard,
    ) -> Result<()> {
        // Hash of the bound cells of a batch row (`of_batch`) or a
        // relation row.
        let key = |id: u32, of_batch: bool| {
            if of_batch {
                hash_cells(spec.bounds.iter().map(|&(_, s)| batch.get(s, id as usize)))
            } else {
                hash_cells(spec.bounds.iter().map(|&(c, _)| rel.cell(id, c)))
            }
        };
        let mut rows = mem::take(&mut scratch.rowbufs[step]);
        let cached = scratch.tables[step]
            .take()
            .filter(|t| t.version == rel.version());
        if cached.is_none() {
            Self::candidate_rows(spec, rel, driver, &mut rows);
        }
        let rel_side = cached.is_some() || cache || rows.len() <= batch_rows.len();
        let map = match cached {
            Some(t) => t.map,
            None if rel_side => Buckets::new(rows.iter().map(|&r| (key(r, false), r)).collect()),
            None => Buckets::new(
                batch_rows
                    .by_ref()
                    .map(|row| (key(row, true), row))
                    .collect(),
            ),
        };
        // Probe with the other side's rows: `p` pairs with each table
        // entry of the same key as (batch row, relation row).
        let mut probe = |p: u32| -> Result<()> {
            let cands = map.get(key(p, rel_side));
            if cands.is_empty() {
                return Ok(());
            }
            scratch.cursor.probe_n(clamp(cands.len()), guard)?;
            for &c in cands {
                let (row, r) = if rel_side { (p, c) } else { (c, p) };
                let row = row as usize;
                if spec
                    .bounds
                    .iter()
                    .all(|&(col, s)| rel.cell(r, col) == batch.get(s, row))
                {
                    self.push_rel_pair(
                        step, spec, batch, row, rel, r, child, db, delta, scratch, out, guard,
                    )?;
                }
            }
            Ok(())
        };
        let result = if rel_side {
            batch_rows.try_for_each(probe)
        } else {
            rows.iter().try_for_each(|&r| probe(r))
        };
        scratch.rowbufs[step] = rows;
        if cache {
            scratch.tables[step] = Some(JoinTable {
                version: rel.version(),
                map,
                transient: rel.len() > CHUNK,
            });
        }
        result
    }

    /// The bound column (with its slot) that drives a merge-join seek for
    /// the batch `rows`: the estimable column ([`Relation::count_eq`])
    /// matching the fewest live relation rows summed over their bound
    /// cells, else the first bound column — the rule
    /// [`Relation::driving_const`] applies to constants. The estimates
    /// count tombstones, which a commit's deletions leave behind, so the
    /// smallest one only caps the live counts that decide: each column's
    /// count stops once it reaches the best so far.
    fn driving_bound(
        spec: &ScanSpec,
        rel: &Relation,
        batch: &Batch,
        rows: impl IntoIterator<Item = usize> + Clone,
    ) -> (usize, u32) {
        let first = spec.bounds[0];
        if spec.bounds.len() == 1 {
            return first;
        }
        let cells = |slot: u32| rows.clone().into_iter().map(move |r| batch.get(slot, r));
        let estimable = spec.bounds.iter().filter(|&&(col, _)| rel.estimable(col));
        let estimates = estimable.clone().filter_map(|&(col, slot)| {
            cells(slot)
                .map(|v| rel.count_eq(col, v))
                .sum::<Option<usize>>()
        });
        let Some(min) = estimates.min() else {
            return first;
        };
        let (mut best, mut cap) = (first, min + 1);
        for &(col, slot) in estimable {
            let mut live = 0;
            for v in cells(slot) {
                live += rel.rows_eq(col, v).take(cap - live).count();
                if live == cap {
                    break;
                }
            }
            if live < cap {
                (best, cap) = ((col, slot), live);
            }
        }
        best
    }

    /// Batched scan of a stored relation. Fills `child` with join pairs
    /// (flushing at [`CHUNK`]); the caller flushes the remainder.
    #[allow(clippy::too_many_arguments)]
    fn scan_rel(
        &self,
        step: usize,
        pred: SymId,
        spec: &ScanSpec,
        arity: usize,
        db: &Database,
        delta: Option<&FactBuf>,
        batch: &Batch,
        child: &mut Batch,
        scratch: &mut Scratch,
        out: &mut FactBuf,
        guard: &EvalGuard,
    ) -> Result<()> {
        let Some(rel) = db.relation_id(pred) else {
            return Ok(());
        };
        if rel.arity() != Some(arity) {
            return Ok(()); // empty (or never-populated) relation
        }
        let driver = rel.driving_const(spec.consts.iter().copied());

        if spec.bounds.is_empty() {
            // No join columns: the matching rows are the same for every
            // batch row. Compute them once, then cross-product.
            let mut rows = mem::take(&mut scratch.rowbufs[step]);
            Self::candidate_rows(spec, rel, driver, &mut rows);
            let mut result = Ok(());
            'batch: for row in 0..batch.n {
                result = scratch.cursor.probe_n(clamp(rows.len()), guard);
                if result.is_err() {
                    break;
                }
                for &r in &rows {
                    result = self.push_rel_pair(
                        step, spec, batch, row, rel, r, child, db, delta, scratch, out, guard,
                    );
                    if result.is_err() {
                        break 'batch;
                    }
                }
            }
            scratch.rowbufs[step] = rows;
            return result;
        }

        // Bound columns: hash join on every bound column against a table
        // of the whole relation, cached per step by relation version, once
        // the rows this step has received in this application amortize
        // hashing it: a small relation (≤ CHUNK rows, so EDB relations
        // are hashed once per evaluation), or one joined on two or more
        // columns, whose merge join would check every column but the
        // driving one on each pair. The input is counted over the whole
        // application, not per chunk, so a relation of more than
        // `TABLE_BUILD_RATIO` chunks still qualifies once enough chunks
        // have arrived; one-off small evaluations (incremental delta
        // propagation, point queries) fall through. An indexed constant
        // column selecting no more rows than the batch has bindings makes
        // an uncached table cheap too.
        scratch.seen[step] += batch.n;
        let table_valid = scratch.tables[step]
            .as_ref()
            .is_some_and(|t| t.version == rel.version());
        let whole = table_valid
            || ((rel.len() <= CHUNK || spec.bounds.len() >= 2)
                && scratch.seen[step].saturating_mul(TABLE_BUILD_RATIO) >= rel.len());
        let selective = driver
            .and_then(|d| d.estimate)
            .is_some_and(|n| n <= batch.n);
        if whole || selective {
            let all = (0..batch.n).map(clamp);
            return self.hash_join(
                step, spec, rel, driver, whole, batch, all, child, db, delta, scratch, out, guard,
            );
        }

        // Merge join: one bound column drives the seek (`driving_bound`)
        // and every other one is checked on each pair. A batch large
        // enough to amortize a cursor picks its column once, is sorted on
        // that slot (keys computed once, not per comparison) and walks
        // the column's sorted permutation index with a galloping cursor —
        // one forward merge instead of a hash probe per row. Cursor
        // construction sorts the index's uncovered tail, so smaller
        // batches are grouped on all their bound cells instead, and each
        // group picks its own column and probes it directly (binary
        // search per run plus an unsorted-tail scan).
        let merge_col = (batch.n >= CURSOR_BATCH_MIN).then(|| {
            let sample = (0..DRIVER_SAMPLE).map(|i| i * batch.n / DRIVER_SAMPLE);
            Self::driving_bound(spec, rel, batch, sample)
        });
        let mut order: Vec<(u128, u32)> = (0..batch.n)
            .map(|r| {
                let key = match merge_col {
                    Some((_, slot)) => key_of(batch.get(slot, r)),
                    None => hash_cells(spec.bounds.iter().map(|&(_, s)| batch.get(s, r))).into(),
                };
                (key, clamp(r))
            })
            .collect();
        order.sort_unstable();
        let mut cur = merge_col.map(|(col, _)| rel.col_cursor(col));
        let mut rows = mem::take(&mut scratch.rowbufs[step]);
        let mut result = Ok(());
        let mut i = 0;
        // Adaptive defection (see the module docs): with two or more
        // bound columns, a key group of `g` batch rows seeking `s` rows
        // costs `g × s` pair checks. Once that product, or the rows seeked
        // by earlier groups, exceeds `bail` (one relation scan plus a
        // chunk), this group and every later one take the hash join on
        // all bound columns instead.
        let defect = spec.bounds.len() >= 2;
        let bail = rel.len().saturating_add(CHUNK);
        let mut seeked = 0usize;
        'merge: while i < order.len() && !(defect && seeked > bail) {
            let (k, first) = (order[i].0, order[i].1 as usize);
            let (jcol, jslot) =
                merge_col.unwrap_or_else(|| Self::driving_bound(spec, rel, batch, [first]));
            // A cursor group shares its key; a probed group, hashed on
            // every bound cell, must also share those cells.
            let same = |r: u32| {
                let r = r as usize;
                merge_col.is_some()
                    || spec
                        .bounds
                        .iter()
                        .all(|&(_, s)| batch.get(s, r) == batch.get(s, first))
            };
            let mut j = i + 1;
            while j < order.len() && order[j].0 == k && same(order[j].1) {
                j += 1;
            }
            let v = batch.get(jslot, first);
            rows.clear();
            match &mut cur {
                Some(cur) => cur.seek(v, &mut rows),
                None => rows.extend(rel.rows_eq(jcol, v)),
            }
            Self::retain_scan_rows(spec, rel, &mut rows);
            if defect && rows.len().saturating_mul(j - i) > bail {
                break;
            }
            seeked += rows.len();
            result = scratch
                .cursor
                .probe_n(clamp(rows.len().saturating_mul(j - i)), guard);
            if result.is_err() {
                break;
            }
            for &(_, br) in &order[i..j] {
                let row = br as usize;
                for &r in &rows {
                    if spec
                        .bounds
                        .iter()
                        .all(|&(c, s)| c == jcol || rel.cell(r, c) == batch.get(s, row))
                    {
                        result = self.push_rel_pair(
                            step, spec, batch, row, rel, r, child, db, delta, scratch, out, guard,
                        );
                        if result.is_err() {
                            break 'merge;
                        }
                    }
                }
            }
            i = j;
        }
        scratch.rowbufs[step] = rows;
        if result.is_ok() && i < order.len() {
            scratch.defections += 1;
            let rest = order[i..].iter().map(|&(_, br)| br);
            result = self.hash_join(
                step, spec, rel, driver, false, batch, rest, child, db, delta, scratch, out, guard,
            );
        }
        result
    }

    /// Batched scan of the semi-naive delta (a plain fact list): nested
    /// loop, outer over delta facts, inner over batch rows. The planner
    /// schedules delta scans early, so the batch side is small here.
    #[allow(clippy::too_many_arguments)]
    fn scan_delta(
        &self,
        step: usize,
        spec: &ScanSpec,
        db: &Database,
        delta: Option<&FactBuf>,
        batch: &Batch,
        child: &mut Batch,
        scratch: &mut Scratch,
        out: &mut FactBuf,
        guard: &EvalGuard,
    ) -> Result<()> {
        let facts = delta.expect("delta variant evaluated without a delta");
        let mut result = Ok(());
        'facts: for fi in 0..facts.len() {
            let fact = facts.row(fi);
            result = scratch.cursor.probe_n(clamp(batch.n), guard);
            if result.is_err() {
                break;
            }
            if !spec.consts.iter().all(|&(c, v)| fact[c] == v)
                || !spec.checks.iter().all(|&(c, b)| fact[c] == fact[b])
            {
                continue;
            }
            for row in 0..batch.n {
                if !spec
                    .bounds
                    .iter()
                    .all(|&(c, s)| batch.get(s, row) == fact[c])
                {
                    continue;
                }
                for &(slot, from) in &spec.gather {
                    let v = match from {
                        Some(c) => fact[c],
                        None => batch.get(slot, row),
                    };
                    child.cols[slot as usize].push(v);
                }
                child.n += 1;
                if child.n >= CHUNK {
                    result = self.exec_batch(step + 1, db, delta, child, scratch, out, guard);
                    child.reset(self.n_slots);
                    if result.is_err() {
                        break 'facts;
                    }
                }
            }
        }
        result
    }
}

/// Delta-variant positions of a rule within `stratum_preds`: each body
/// position holding a positive literal over a same-stratum predicate.
pub(crate) fn delta_positions(rule: &Clause, stratum_preds: &HashSet<SymId>) -> Vec<usize> {
    rule.body
        .iter()
        .enumerate()
        .filter_map(|(i, l)| match l {
            Literal::Pos(a) if stratum_preds.contains(&a.predicate) => Some(i),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::storage::Fact;

    fn plan_for(src: &str, head: &str, delta_pos: Option<usize>) -> RulePlan {
        let p = parse_program(src).unwrap();
        let db = Database::new();
        let rule = p
            .clauses()
            .iter()
            .rfind(|c| !c.is_fact() && c.head.predicate.as_str() == head)
            .expect("rule present");
        RulePlan::compile(rule, delta_pos, &db).unwrap()
    }

    #[test]
    fn delta_literal_is_scheduled_first() {
        let src = "edge(a, b). path(X, Y) :- edge(X, Y).\
                   path(X, Z) :- edge(X, Y), path(Y, Z).";
        // Delta on body position 1 (path): it should be first in the order.
        let plan = plan_for(src, "path", Some(1));
        assert!(
            plan.order_desc.contains(":- [1,0]"),
            "delta first: {}",
            plan.order_desc
        );
        assert_eq!(plan.delta_pred.unwrap().as_str(), "path");
    }

    #[test]
    fn builtins_schedule_when_bound() {
        // The comparison references Y, bound only by the second literal:
        // the planner must order it after s(Y) instead of failing.
        let src = "q(a). s(1). p(X) :- q(X), Y < 2, s(Y).";
        let plan = plan_for(src, "p", None);
        let order: &str = plan
            .order_desc
            .split('[')
            .nth(1)
            .unwrap()
            .trim_end_matches(']');
        let pos_of = |i: char| order.chars().position(|c| c == i).unwrap();
        assert!(pos_of('2') < pos_of('1'), "cmp after s(Y): {order}");
    }

    #[test]
    fn existential_set_fixed_by_textual_order() {
        // Y is existential in `not r(X, Y)` (no earlier positive binds
        // it), even though p(X, Y) would bind Y if scheduled first.
        let src = "s(a). p(a, b). r(a, c). q(X) :- s(X), not r(X, Y), p(X, Y).";
        let p = parse_program(src).unwrap();
        let rule = p.clauses().iter().find(|c| !c.is_fact()).unwrap();
        let mut db = Database::new();
        db.insert("s", vec![Const::sym("a")]);
        db.insert("p", vec![Const::sym("a"), Const::sym("b")]);
        db.insert("r", vec![Const::sym("a"), Const::sym("c")]);
        let plan = RulePlan::compile(rule, None, &db).unwrap();
        let mut derived = FactBuf::default();
        plan.eval(
            &db,
            None,
            &mut plan.new_scratch(),
            &mut derived,
            &EvalGuard::unlimited(),
        )
        .unwrap();
        // ∃Y r(a, Y) holds, so the negation fails and nothing is derived —
        // even though the (a, b) binding from p would not match r.
        assert!(derived.is_empty(), "derived: {derived:?}");
    }

    #[test]
    fn unready_builtin_reports_unsafe_variable() {
        use crate::clause::Clause;
        use crate::{Atom, CmpOp};
        // Hand-built rule (the parser/safety layer would reject it):
        // p(X) :- q(X), Z != a — Z is never bound.
        let rule = Clause::new(
            Atom::new("p", vec![Term::var("X")]),
            vec![
                Literal::Pos(Atom::new("q", vec![Term::var("X")])),
                Literal::Cmp {
                    op: CmpOp::Ne,
                    lhs: Term::var("Z"),
                    rhs: Term::sym("a"),
                },
            ],
        );
        let db = Database::new();
        let err = RulePlan::compile(&rule, None, &db).unwrap_err();
        assert!(matches!(err, DatalogError::UnsafeVariable { variable, .. } if variable == "Z"));
    }

    /// The batched executor and the naive reference over a mixed rule set
    /// (joins, negation, arithmetic, comparisons, repeated variables)
    /// must derive identical multisets of head tuples.
    #[test]
    fn batched_matches_reference_executor() {
        let src = "e(a, b). e(b, c). e(c, a). e(a, a).\
                   n(1). n(2). n(3).\
                   loop(X) :- e(X, X).\
                   pair(X, Y) :- e(X, Y), not loop(X).\
                   sum(X, S) :- n(X), S = X + 10, X < 3.";
        let p = parse_program(src).unwrap();
        let mut db = Database::new();
        for c in p.clauses().iter().filter(|c| c.is_fact()) {
            let fact: Fact = c
                .head
                .terms
                .iter()
                .map(|t| *t.as_const().unwrap())
                .collect();
            db.insert(c.head.predicate.as_str(), fact);
        }
        let guard = EvalGuard::unlimited();
        for rule in p.clauses().iter().filter(|c| !c.is_fact()) {
            let plan = RulePlan::compile(rule, None, &db).unwrap();
            let mut batched = FactBuf::default();
            plan.eval(&db, None, &mut plan.new_scratch(), &mut batched, &guard)
                .unwrap();
            let mut batched: Vec<Fact> = batched.rows().map(Fact::from).collect();
            let mut reference = crate::reference::apply_rule(rule, &db).unwrap();
            batched.sort();
            reference.sort();
            assert_eq!(batched, reference, "rule {rule}");
        }
    }
}
