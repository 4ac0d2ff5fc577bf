//! Columnar fact storage: relations as column-major segments with
//! sorted-run permutation indexes, and the database of all relations.
//!
//! # Layout
//!
//! A [`Relation`] stores its tuples in rows addressed by a dense `u32`
//! row id. Rows are grouped into short fixed-size *segments* of
//! `SEG_ROWS` (256) rows. A full segment is sealed, column-major, into one
//! `Arc`-shared allocation and never mutated again; only the newest,
//! unsealed rows live in a mutable *tail*, stored row-major in one flat
//! buffer. Cloning a relation — the copy-on-write detach behind MVCC
//! generations — therefore copies fewer than `SEG_ROWS × arity` tail
//! cells plus one pointer per sealed segment, however large the relation
//! is.
//!
//! # Indexes
//!
//! Each column carries a *sorted permutation index*: row ids ordered by
//! cell value, maintained as a small set of sorted runs merged with a
//! doubling (binary-counter) discipline, plus an unsorted tail of the
//! most recent rows that probes scan linearly. Indexes are built
//! **lazily**: inserts never sort anything. Two kinds of column get
//! indexed:
//!
//! * **plan-declared** columns — the evaluator declares which columns
//!   its compiled plans will probe and seals them up to date at round
//!   boundaries ([`Relation::ensure_index`], driven by
//!   `Database::ensure_index_id`);
//! * **reader-declared** columns — columns that queries against a
//!   published database bind by value although no rule probes them (the
//!   key column of a belief relation). The engine that publishes the
//!   database lists them and [`Database::seal_indexes`] seals them in
//!   every generation, including after a compaction or an empty-reset
//!   has dropped their runs.
//!
//! Relations that are only ever written — the common case for derived
//! predicates — never pay for an index at all, while indexed columns
//! amortize to O(log n) sealing work per insert. A point probe is one
//! binary search per run plus a bounded linear scan of the unsealed
//! tail. Runs are `Arc`-shared across clones like segments are. The runs
//! order by [`key_of`] — a cheap integral total order on `Const` — not
//! by the user-visible text order; only [`Relation::sorted`] pays for
//! text comparison.
//!
//! A lookup with several constant columns is driven by one of them
//! ([`Relation::driving_const`]): the one with the fewest rows among the
//! columns whose runs cover all but [`INDEX_TAIL_MAX`] rows. A column
//! without such runs is never scanned just to estimate it.
//!
//! # Deduplication and retraction
//!
//! Duplicate detection maps each tuple hash to one row id (`u64 → u32`,
//! flat `Copy` entries), split into a frozen `Arc`-shared map and a
//! per-clone overlay of recent inserts that shadows it and is folded into
//! it amortized. Retraction tombstones the row — one bit in a row bitset
//! that probes test — and re-inserting a fact whose hash slot holds only
//! a dead row reuses the slot for the new row, so retract/re-insert
//! churn grows neither map. Two distinct live facts with one 64-bit hash
//! are rare: the later one goes to a small side table (`spill`). The
//! relation compacts once tombstones reach half the stored rows, so
//! storage stays within a constant factor of the live set without
//! per-retract index surgery.
//!
//! A clone shares the sealed segments, the index runs and the frozen map,
//! and copies the tail, the overlay, the side table and the tombstone
//! bitset (one bit per stored row) — flat buffers, one allocation each,
//! that are freed as cheaply when the clone drops.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::mem;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::fx::{FxHashMap, FxHasher};
use crate::term::{Const, SymId};

/// A stored fact: one tuple of constants.
///
/// Facts are boxed slices of `Copy` constants: a single allocation per
/// fact, no capacity slack, and equality/hash by value. Inside a
/// [`Relation`] the cells live column-major; `Fact` is the interchange
/// format at the API boundary (inserts, deltas, query answers).
pub type Fact = Box<[Const]>;

/// A dense list of same-arity facts stored back-to-back in one flat
/// buffer — the interchange format between the executors and the
/// evaluation loops (derived tuples out, semi-naive deltas back in).
/// One bulk allocation amortized over thousands of facts, where a
/// `Vec<Fact>` pays a boxed-slice allocation per fact.
#[derive(Clone, Debug, Default)]
pub(crate) struct FactBuf {
    arity: usize,
    rows: usize,
    cells: Vec<Const>,
}

impl FactBuf {
    pub(crate) fn len(&self) -> usize {
        self.rows
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.rows == 0
    }

    pub(crate) fn clear(&mut self) {
        self.rows = 0;
        self.cells.clear();
    }

    /// Row `i` as a cell slice.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[Const] {
        &self.cells[i * self.arity..(i + 1) * self.arity]
    }

    /// Append one fact. The first row after construction (or
    /// [`FactBuf::clear`]) fixes the buffer's arity.
    #[inline]
    pub(crate) fn push_row(&mut self, cells: impl IntoIterator<Item = Const>) {
        let before = self.cells.len();
        self.cells.extend(cells);
        if self.rows == 0 {
            self.arity = self.cells.len();
        } else {
            debug_assert_eq!(self.cells.len() - before, self.arity, "arity mismatch");
        }
        self.rows += 1;
    }

    pub(crate) fn rows(&self) -> impl Iterator<Item = &[Const]> {
        (0..self.rows).map(move |i| self.row(i))
    }
}

/// Rows per sealed segment; a power of two so row → segment is a shift.
/// Small, because the unsealed tail is what a copy-on-write detach
/// copies.
const SEG_SHIFT: u32 = 8;
const SEG_ROWS: u32 = 1 << SEG_SHIFT;
/// Most recent rows a column index may leave unsorted before
/// [`Database::ensure_index_id`] reseals the column. Probes scan this
/// tail linearly, so it bounds the per-probe linear work between seals.
const INDEX_TAIL_MAX: u32 = 128;

/// Source of unique relation identities (see [`Relation::version`]).
static NEXT_RELATION_ID: AtomicU64 = AtomicU64::new(1);

fn fresh_relation_id() -> u64 {
    NEXT_RELATION_ID.fetch_add(1, Ordering::Relaxed)
}
/// Minimum overlay size before it is folded into the frozen dedup map.
const FOLD_MIN: usize = 4096;
/// Minimum tombstones before compaction is considered.
pub(crate) const COMPACT_MIN: usize = 1024;

/// Whether bit `row` is set in a row bitset.
#[inline]
fn bit(bits: &[u64], row: u32) -> bool {
    bits.get((row >> 6) as usize)
        .is_some_and(|w| (w >> (row & 63)) & 1 != 0)
}

fn fact_hash(fact: &[Const]) -> u64 {
    let mut h = FxHasher::default();
    fact.hash(&mut h);
    #[cfg(test)]
    return h.finish() & tests::HASH_MASK.with(std::cell::Cell::get);
    #[cfg(not(test))]
    h.finish()
}

/// A cheap integral total order on `Const` for the sorted runs:
/// discriminant, then the raw interned id (symbols) or the sign-flipped
/// two's complement (integers). Equality coincides with `Const`
/// equality, but the order differs from the user-visible `Ord` (which
/// compares symbol *text*) — the runs only need a fixed total order, and
/// comparing two `u128`s is far cheaper than two string compares.
#[inline]
pub(crate) fn key_of(c: Const) -> u128 {
    match c {
        Const::Sym(s) => s.index() as u128,
        #[allow(clippy::cast_sign_loss)]
        Const::Int(i) => (1u128 << 64) | u128::from((i as u64) ^ (1u64 << 63)),
    }
}

/// First index in `xs[from..]` where `pred` stops holding, found by
/// exponential (galloping) search: O(log distance) rather than
/// O(log len), which is what makes repeated forward seeks over one run
/// sum to a linear merge.
fn gallop<T>(xs: &[T], from: usize, mut pred: impl FnMut(&T) -> bool) -> usize {
    if from >= xs.len() || !pred(&xs[from]) {
        return from;
    }
    let mut lo = from; // pred holds at lo
    let mut step = 1usize;
    let mut hi = lo + 1;
    while hi < xs.len() && pred(&xs[hi]) {
        lo = hi;
        step *= 2;
        hi = lo.saturating_add(step);
    }
    let hi = hi.min(xs.len());
    lo + 1 + xs[lo + 1..hi].partition_point(|x| pred(x))
}

/// One sealed, immutable row group: `SEG_ROWS` rows of every column,
/// column-major (column `c` at `[c << SEG_SHIFT..]`), shared by `Arc`
/// across copy-on-write clones.
type Segment = Arc<[Const]>;

/// The constant column chosen to drive a lookup; see
/// [`Relation::driving_const`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct Driver {
    pub col: usize,
    pub value: Const,
    /// Rows (tombstones included) whose `col` cell equals `value`, when
    /// the column is estimable without a full scan.
    pub estimate: Option<usize>,
}

/// Per-column permutation index: disjoint sorted runs covering rows
/// `0..covered`, each ordered by `(key_of(cell), row)`, newest last.
#[derive(Clone, Default)]
struct ColIndex {
    runs: Vec<Arc<[u32]>>,
    covered: u32,
}

/// A set of facts of a single predicate in columnar storage.
///
/// Bottom-up rule evaluation probes relations either with a binding
/// pattern ([`Relation::matching`]) or — on the batched join path — with
/// row-id probes against the per-column sorted indexes
/// (`rows_eq`, `col_cursor`; crate-private).
pub struct Relation {
    arity: Option<usize>,
    /// Sealed immutable segments; shared (not copied) by `clone`.
    sealed: Vec<Segment>,
    /// The rows after the last sealed segment (fewer than `SEG_ROWS`),
    /// row-major.
    tail: Vec<Const>,
    /// Total stored rows, live and tombstoned.
    total: u32,
    /// Tombstones (retracted rows not yet compacted away): bit `r % 64`
    /// of word `r / 64` is set for a dead row `r`. Allocated only up to
    /// the highest tombstoned row, so a relation without tombstones has
    /// none.
    dead: Vec<u64>,
    /// Set bits in `dead`.
    dead_count: u32,
    /// Frozen dedup map (`tuple hash → row id`), shared by `clone`; the
    /// row may be tombstoned — lookups filter `dead`.
    frozen: Arc<FxHashMap<u64, u32>>,
    /// Recent insertions not yet folded into `frozen`; per-clone. It takes
    /// a hash only when `frozen`'s row for it is dead or absent, and the
    /// fold replaces that row.
    overlay: FxHashMap<u64, u32>,
    /// Rows of live facts whose hash slot already held a different live
    /// fact: true 64-bit collisions. Per-clone and almost always empty.
    spill: FxHashMap<u64, Vec<u32>>,
    /// One sorted permutation index per column.
    indexes: Vec<ColIndex>,
    /// Identity for [`Relation::version`]; every clone gets a fresh one,
    /// so cached derivations keyed by version can never confuse two
    /// lineages that happen to share a mutation count.
    id: u64,
    /// Successful inserts + retracts on this lineage (monotone).
    mutations: u64,
}

impl Default for Relation {
    fn default() -> Self {
        Relation {
            arity: None,
            sealed: Vec::new(),
            tail: Vec::new(),
            total: 0,
            dead: Vec::new(),
            dead_count: 0,
            frozen: Arc::default(),
            overlay: FxHashMap::default(),
            spill: FxHashMap::default(),
            indexes: Vec::new(),
            id: fresh_relation_id(),
            mutations: 0,
        }
    }
}

impl Clone for Relation {
    fn clone(&self) -> Self {
        Relation {
            arity: self.arity,
            sealed: self.sealed.clone(),
            tail: self.tail.clone(),
            total: self.total,
            dead: self.dead.clone(),
            dead_count: self.dead_count,
            frozen: Arc::clone(&self.frozen),
            overlay: self.overlay.clone(),
            spill: self.spill.clone(),
            indexes: self.indexes.clone(),
            id: fresh_relation_id(),
            mutations: self.mutations,
        }
    }
}

impl Relation {
    /// Create an empty relation.
    pub fn new() -> Self {
        Relation::default()
    }

    /// The arity, once at least one fact has been inserted.
    pub fn arity(&self) -> Option<usize> {
        self.arity
    }

    /// Number of live facts.
    pub fn len(&self) -> usize {
        (self.total - self.dead_count) as usize
    }

    /// Whether the relation holds no facts.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Insert a fact; returns `true` if it was new.
    ///
    /// # Panics
    ///
    /// Panics if the fact's arity differs from previously inserted facts —
    /// arity consistency is validated upstream by [`crate::Program`].
    pub fn insert(&mut self, fact: impl Into<Fact>) -> bool {
        self.insert_if_new(&fact.into())
    }

    /// Insert a fact given by reference; returns `true` if it was new.
    /// Cells are copied into the column tails only when the fact is
    /// genuinely new; duplicates (the common case near the fixpoint)
    /// cost one hash lookup.
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch, as [`Relation::insert`] does.
    pub fn insert_if_new(&mut self, fact: &[Const]) -> bool {
        self.prepare(fact.len());
        let hash = fact_hash(fact);
        let holder = self.holder(hash);
        if holder.is_some_and(|r| self.row_eq(r, fact)) || self.find_spilled(hash, fact).is_some() {
            return false;
        }
        let row = self.total;
        assert!(row < u32::MAX, "relation row overflow");
        self.tail.extend_from_slice(fact);
        self.total += 1;
        self.mutations += 1;
        if holder.is_some() {
            // A distinct live fact owns the slot: a true collision.
            let dead = &self.dead;
            let chain = self.spill.entry(hash).or_default();
            chain.retain(|&r| !bit(dead, r));
            chain.push(row);
        } else {
            // Empty slot, or one holding only a dead row: take it over.
            self.overlay.insert(hash, row);
        }
        if self.total & (SEG_ROWS - 1) == 0 {
            self.seal_segment();
        }
        self.fold_overlay();
        true
    }

    /// A value that changes whenever this relation's contents may have
    /// changed: the lineage id (fresh per clone) plus the mutation count.
    /// Used to validate cached per-plan join tables across evaluation
    /// rounds.
    #[inline]
    pub(crate) fn version(&self) -> u128 {
        (u128::from(self.id) << 64) | u128::from(self.mutations)
    }

    /// Rows not yet covered by `col`'s sorted runs.
    pub(crate) fn index_lag(&self, col: usize) -> u32 {
        self.indexes.get(col).map_or(0, |i| self.total - i.covered)
    }

    /// Whether any column index has been materialized (probed at least
    /// once) but has uncovered rows in its unsorted tail.
    pub(crate) fn has_unsealed_index(&self) -> bool {
        self.indexes
            .iter()
            .any(|i| !i.runs.is_empty() && i.covered < self.total)
    }

    /// Seal every materialized column index. Columns never probed by any
    /// plan (nor declared for readers, see [`Database::seal_indexes`])
    /// stay unindexed and keep costing nothing.
    pub(crate) fn seal_materialized_indexes(&mut self) {
        for col in 0..self.indexes.len() {
            if !self.indexes[col].runs.is_empty() && self.indexes[col].covered < self.total {
                self.seal_runs_col(col);
            }
        }
    }

    /// Seal `col`'s uncovered rows into its sorted-run index. Called by
    /// the evaluator for the columns its plans actually probe, and at
    /// publish for reader-declared columns; other columns never pay for
    /// sorting.
    pub(crate) fn ensure_index(&mut self, col: usize) {
        if self
            .indexes
            .get(col)
            .is_some_and(|i| i.covered < self.total)
        {
            self.seal_runs_col(col);
        }
    }

    fn prepare(&mut self, arity: usize) {
        match self.arity {
            None => {
                self.arity = Some(arity);
                self.indexes = vec![ColIndex::default(); arity];
            }
            Some(a) => assert_eq!(a, arity, "arity mismatch on insert"),
        }
    }

    /// Transpose the full tail into a column-major segment behind an
    /// `Arc`; later clones share it. The tail keeps its capacity.
    fn seal_segment(&mut self) {
        let arity = self.arity.unwrap_or(0);
        debug_assert_eq!(self.tail.len(), arity << SEG_SHIFT);
        let tail = &self.tail;
        let segment: Segment = (0..arity)
            .flat_map(|col| tail[col..].iter().step_by(arity).copied())
            .collect();
        self.tail.clear();
        self.sealed.push(segment);
    }

    /// Sort `col`'s uncovered index tail into a fresh run, then merge
    /// trailing runs while the newest is at least as long as its
    /// predecessor — the binary-counter discipline that keeps the run
    /// count logarithmic and the total merge work O(n log n).
    fn seal_runs_col(&mut self, col: usize) {
        let mut idx = mem::take(&mut self.indexes[col]);
        // Each row's key is computed once, not in every comparison.
        let mut keyed: Vec<(u128, u32)> = (idx.covered..self.total)
            .map(|r| (key_of(self.cell(r, col)), r))
            .collect();
        keyed.sort_unstable();
        idx.covered = self.total;
        idx.runs.push(keyed.into_iter().map(|(_, r)| r).collect());
        while idx.runs.len() >= 2
            && idx.runs[idx.runs.len() - 1].len() >= idx.runs[idx.runs.len() - 2].len()
        {
            let b = idx.runs.pop().expect("run present");
            let a = idx.runs.pop().expect("run present");
            idx.runs.push(self.merge_runs(&a, &b, col));
        }
        self.indexes[col] = idx;
    }

    fn merge_runs(&self, a: &[u32], b: &[u32], col: usize) -> Arc<[u32]> {
        // Each row's key is computed once, when the merge reaches it.
        let key = |run: &[u32], i: usize| run.get(i).map(|&r| (key_of(self.cell(r, col)), r));
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        let (mut ka, mut kb) = (key(a, 0), key(b, 0));
        while let (Some(x), Some(y)) = (ka, kb) {
            if x <= y {
                out.push(x.1);
                i += 1;
                ka = key(a, i);
            } else {
                out.push(y.1);
                j += 1;
                kb = key(b, j);
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        out.into()
    }

    /// Fold the overlay into the frozen dedup map once it is both large
    /// and a noticeable fraction of the frozen map; overlay entries
    /// replace the frozen entries they shadow. `Arc::make_mut` copies the
    /// frozen map only when a clone still shares it; folds are rare
    /// enough (every quarter-growth at most) to amortize that.
    ///
    /// A shared frozen map means this relation lives in copy-on-write
    /// generations, where every detach copies the overlay's whole
    /// capacity, so the overlay restarts empty. Otherwise it keeps its
    /// capacity, and a bulk load does not regrow it after every fold.
    fn fold_overlay(&mut self) {
        if self.overlay.len() >= FOLD_MIN && self.overlay.len() * 4 >= self.frozen.len() {
            let shared = Arc::get_mut(&mut self.frozen).is_none();
            Arc::make_mut(&mut self.frozen).extend(self.overlay.drain());
            if shared {
                self.overlay = FxHashMap::default();
            }
        }
    }

    /// The live row in `hash`'s dedup slot, if any. At most one of the
    /// frozen map's and the overlay's rows for a hash is live: the
    /// overlay only takes a hash whose frozen row is dead or absent, and
    /// a dead row never revives. The frozen map, which holds most rows,
    /// is probed first.
    #[inline]
    fn holder(&self, hash: u64) -> Option<u32> {
        let live = |r: &u32| !self.is_dead(*r);
        match self.frozen.get(&hash) {
            Some(&r) if live(&r) => Some(r),
            _ => self.overlay.get(&hash).copied().filter(live),
        }
    }

    /// The live row in `hash`'s collision chain storing exactly `fact`.
    #[inline]
    fn find_spilled(&self, hash: u64, fact: &[Const]) -> Option<u32> {
        if self.spill.is_empty() {
            return None;
        }
        self.spill
            .get(&hash)?
            .iter()
            .copied()
            .find(|&r| !self.is_dead(r) && self.row_eq(r, fact))
    }

    /// The live row storing exactly `fact`, if any.
    fn find_live(&self, hash: u64, fact: &[Const]) -> Option<u32> {
        self.holder(hash)
            .filter(|&r| self.row_eq(r, fact))
            .or_else(|| self.find_spilled(hash, fact))
    }

    #[inline]
    fn row_eq(&self, row: u32, fact: &[Const]) -> bool {
        (0..fact.len()).all(|c| self.cell(row, c) == fact[c])
    }

    #[inline]
    fn is_dead(&self, row: u32) -> bool {
        bit(&self.dead, row)
    }

    /// The cell at (`row`, `col`).
    #[inline]
    pub(crate) fn cell(&self, row: u32, col: usize) -> Const {
        let offset = (row & (SEG_ROWS - 1)) as usize;
        match self.sealed.get((row >> SEG_SHIFT) as usize) {
            Some(segment) => segment[(col << SEG_SHIFT) | offset],
            None => self.tail[offset * self.arity.unwrap_or(0) + col],
        }
    }

    /// Materialize one stored row as a [`Fact`].
    pub(crate) fn row_fact(&self, row: u32) -> Fact {
        (0..self.arity.unwrap_or(0))
            .map(|c| self.cell(row, c))
            .collect()
    }

    /// The live rows whose `col` cell equals `value`, via the column's
    /// sorted runs plus a linear scan of the index tail.
    pub(crate) fn rows_eq(&self, col: usize, value: Const) -> impl Iterator<Item = u32> + '_ {
        let k = key_of(value);
        let idx = &self.indexes[col];
        let runs = idx.runs.iter().flat_map(move |run| {
            let lo = run.partition_point(|&r| key_of(self.cell(r, col)) < k);
            run[lo..]
                .iter()
                .copied()
                .take_while(move |&r| self.cell(r, col) == value)
        });
        let tail = (idx.covered..self.total).filter(move |&r| self.cell(r, col) == value);
        runs.chain(tail).filter(move |&r| !self.is_dead(r))
    }

    /// Whether `col` is *estimable*: its sorted runs cover all but at most
    /// [`INDEX_TAIL_MAX`] rows (see [`Relation::count_eq`]).
    pub(crate) fn estimable(&self, col: usize) -> bool {
        self.index_lag(col) <= INDEX_TAIL_MAX
    }

    /// Number of rows (tombstones included) whose `col` cell equals
    /// `value`, if `col` is *estimable*: its sorted runs cover all but at
    /// most [`INDEX_TAIL_MAX`] rows, so counting is a binary search per
    /// run plus a bounded tail scan. `None` for any other column — an
    /// estimate must never cost a full-column scan.
    pub(crate) fn count_eq(&self, col: usize, value: Const) -> Option<usize> {
        if !self.estimable(col) {
            return None;
        }
        let k = key_of(value);
        let idx = self.indexes.get(col)?;
        let mut n = 0;
        for run in &idx.runs {
            let lo = run.partition_point(|&r| key_of(self.cell(r, col)) < k);
            n += run[lo..].partition_point(|&r| key_of(self.cell(r, col)) == k);
        }
        Some(
            n + (idx.covered..self.total)
                .filter(|&r| self.cell(r, col) == value)
                .count(),
        )
    }

    /// The constant column that should drive a lookup constrained by
    /// `consts` (`(column, value)` pairs), or `None` when there are no
    /// constants. Among the estimable columns (see
    /// [`Relation::count_eq`]) the one matching the fewest rows wins and
    /// carries its count; with none estimable, the first constant drives
    /// without an estimate — one probe (a column scan), never one scan
    /// per constant. Callers still check every constant on the driven
    /// rows, so the choice never changes a result.
    pub(crate) fn driving_const(
        &self,
        consts: impl IntoIterator<Item = (usize, Const)>,
    ) -> Option<Driver> {
        let mut best: Option<Driver> = None;
        for (col, value) in consts {
            let estimate = self.count_eq(col, value);
            let better = match best {
                None => true,
                Some(b) => estimate.is_some_and(|n| b.estimate.is_none_or(|m| n < m)),
            };
            if better {
                best = Some(Driver {
                    col,
                    value,
                    estimate,
                });
            }
        }
        best
    }

    /// Append the live rows matching `driver`'s column (every live row
    /// without a driver); the caller filters the remaining constraints.
    pub(crate) fn driven_rows(&self, driver: Option<Driver>, out: &mut Vec<u32>) {
        match driver {
            Some(d) => out.extend(self.rows_eq(d.col, d.value)),
            None => self.live_rows(out),
        }
    }

    /// What a clone copies rather than shares: tail cells, dedup overlay
    /// and collision entries, and tombstone words.
    fn detach_cells(&self) -> usize {
        self.tail.len()
            + self.overlay.len()
            + self.spill.values().map(Vec::len).sum::<usize>()
            + self.dead.len()
    }

    /// Tombstoned rows not yet compacted away.
    #[cfg(test)]
    pub(crate) fn tombstones(&self) -> usize {
        self.dead_count as usize
    }

    /// Append every live row id.
    pub(crate) fn live_rows(&self, out: &mut Vec<u32>) {
        out.extend((0..self.total).filter(|&r| !self.is_dead(r)));
    }

    /// A merge-join cursor over one column's sorted index: successive
    /// [`ColCursor::seek`] calls with non-decreasing keys advance each
    /// run's position monotonically (galloping), so probing a sorted
    /// batch of keys costs one linear merge rather than a binary search
    /// per key.
    pub(crate) fn col_cursor(&self, col: usize) -> ColCursor<'_> {
        let idx = &self.indexes[col];
        let mut tail: Vec<(u128, u32)> = (idx.covered..self.total)
            .map(|r| (key_of(self.cell(r, col)), r))
            .collect();
        tail.sort_unstable();
        ColCursor {
            rel: self,
            col,
            pos: vec![0; idx.runs.len()],
            tail,
            tail_pos: 0,
        }
    }

    /// Retract a fact; returns `true` if it was present.
    ///
    /// The row is tombstoned rather than moved — sorted runs make
    /// id-patching (the old swap-remove scheme) too expensive — and the
    /// relation compacts once tombstones reach half the stored rows.
    /// When the last fact is retracted the relation returns to its
    /// pristine state (arity forgotten), so a later insert may legally
    /// use a different arity.
    pub fn retract(&mut self, fact: &[Const]) -> bool {
        if self.arity != Some(fact.len()) {
            return false;
        }
        let hash = fact_hash(fact);
        let Some(row) = self.find_live(hash, fact) else {
            return false;
        };
        let word = (row >> 6) as usize;
        if self.dead.len() <= word {
            self.dead.resize(word + 1, 0);
        }
        self.dead[word] |= 1 << (row & 63);
        self.dead_count += 1;
        self.mutations += 1;
        if self.is_empty() {
            *self = Relation::default();
            return true;
        }
        let dead = self.dead_count as usize;
        if dead >= COMPACT_MIN && dead * 2 >= self.total as usize {
            self.compact();
        }
        true
    }

    /// Rebuild storage with tombstoned rows dropped, in storage order.
    /// Segments, indexes, and the dedup map are rebuilt from scratch;
    /// the cost is amortized against the retractions that created the
    /// tombstones.
    fn compact(&mut self) {
        let Some(arity) = self.arity else { return };
        let mut fresh = Relation::default();
        fresh.prepare(arity);
        let mut buf: Vec<Const> = Vec::with_capacity(arity);
        for row in 0..self.total {
            if self.is_dead(row) {
                continue;
            }
            buf.clear();
            for c in 0..arity {
                buf.push(self.cell(row, c));
            }
            fresh.insert_if_new(&buf);
        }
        *self = fresh;
    }

    /// Whether the relation contains exactly this fact.
    pub fn contains(&self, fact: &[Const]) -> bool {
        self.arity == Some(fact.len()) && self.find_live(fact_hash(fact), fact).is_some()
    }

    /// Iterate over all live facts, materialized row by row in storage
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = Fact> + '_ {
        (0..self.total)
            .filter(|&r| !self.is_dead(r))
            .map(|r| self.row_fact(r))
    }

    /// Facts matching a binding pattern: `pattern[i] = Some(c)` requires
    /// column `i` to equal `c`. One bound column drives the probe
    /// (`Relation::driving_const`); the rest post-filter. Rows are
    /// yielded in no particular order; every externally visible ordering
    /// goes through [`Relation::sorted`].
    pub fn matching(&self, pattern: &[Option<Const>]) -> impl Iterator<Item = Fact> + '_ {
        let mut rows: Vec<u32> = Vec::new();
        self.matching_rows(pattern, &mut rows);
        rows.into_iter().map(|r| self.row_fact(r))
    }

    /// Replace `rows` with the live rows matching `pattern` (see
    /// [`Relation::matching`]), returning how many candidate rows the
    /// driving probe scanned to find them.
    pub(crate) fn matching_rows(&self, pattern: &[Option<Const>], rows: &mut Vec<u32>) -> usize {
        rows.clear();
        if self.arity != Some(pattern.len()) {
            return 0;
        }
        let bound = pattern.iter().enumerate();
        let driver = self.driving_const(bound.filter_map(|(i, p)| p.map(|c| (i, c))));
        self.driven_rows(driver, rows);
        let scanned = rows.len();
        rows.retain(|&r| {
            pattern
                .iter()
                .enumerate()
                .all(|(i, p)| p.is_none_or(|c| self.cell(r, i) == c))
        });
        scanned
    }

    /// Facts sorted lexicographically — deterministic output order for
    /// printing and testing.
    pub fn sorted(&self) -> Vec<Fact> {
        let mut out: Vec<Fact> = self.iter().collect();
        out.sort();
        out
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Relation({} facts)", self.len())
    }
}

/// See [`Relation::col_cursor`].
pub(crate) struct ColCursor<'a> {
    rel: &'a Relation,
    col: usize,
    /// Per-run forward position (monotone under sorted seeks).
    pos: Vec<usize>,
    /// `(key, row)` for rows not yet covered by a run, sorted.
    tail: Vec<(u128, u32)>,
    tail_pos: usize,
}

impl ColCursor<'_> {
    /// Append the live rows whose cell equals `value`. Successive calls
    /// must present non-decreasing `key_of(value)`.
    pub(crate) fn seek(&mut self, value: Const, out: &mut Vec<u32>) {
        let k = key_of(value);
        let idx = &self.rel.indexes[self.col];
        for (run, p) in idx.runs.iter().zip(&mut self.pos) {
            *p = gallop(run, *p, |&r| key_of(self.rel.cell(r, self.col)) < k);
            while let Some(&r) = run.get(*p) {
                if self.rel.cell(r, self.col) != value {
                    break;
                }
                *p += 1;
                if !self.rel.is_dead(r) {
                    out.push(r);
                }
            }
        }
        let t = &mut self.tail_pos;
        *t = gallop(&self.tail, *t, |&(tk, _)| tk < k);
        while let Some(&(tk, r)) = self.tail.get(*t) {
            if tk != k {
                break;
            }
            *t += 1;
            if !self.rel.is_dead(r) {
                out.push(r);
            }
        }
    }
}

/// A database: all relations, keyed by interned predicate id.
///
/// Lookups by `&str` intern the name once; hot paths inside the engine
/// use the `*_id` variants to skip the symbol-table round trip entirely.
/// Iteration (`relations`, `predicates`) stays in name order so printed
/// output is deterministic and identical to the previous
/// `BTreeMap<Arc<str>, _>` representation.
///
/// Relations are [`Arc`]-shared: `Database::clone` is O(number of
/// relations) and shares every segment, index run, and dedup table with
/// the original. Mutation goes through [`Arc::make_mut`], which detaches
/// only the relations a writer actually touches — and a detach itself is
/// cheap, copying the short mutable tail, the dedup overlay and the
/// tombstones (flat buffers) and the run/segment pointer lists while
/// continuing to share the sealed column segments and the frozen dedup
/// map. This is what makes MVCC generations cheap — a committed
/// generation can stay pinned by reader [`Snapshot`](crate::Snapshot)s
/// while the next one is built from a clone.
#[derive(Clone, Default)]
pub struct Database {
    relations: FxHashMap<SymId, Arc<Relation>>,
    fact_count: usize,
    /// See [`Database::detached_cells`].
    detached_cells: usize,
}

/// Make a relation handle unique, copying it if another database still
/// shares it, and add what the copy cost to `detached`.
fn detach<'a>(rel: &'a mut Arc<Relation>, detached: &mut usize) -> &'a mut Relation {
    if Arc::get_mut(rel).is_none() {
        *detached += rel.detach_cells();
    }
    Arc::make_mut(rel)
}

impl Database {
    /// Create an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// The relation for `predicate`, if any fact or declaration exists.
    pub fn relation(&self, predicate: &str) -> Option<&Relation> {
        self.relations.get(&SymId::intern(predicate)).map(|r| &**r)
    }

    /// The relation for an interned predicate id, if present.
    pub fn relation_id(&self, predicate: SymId) -> Option<&Relation> {
        self.relations.get(&predicate).map(|r| &**r)
    }

    /// The relation for `predicate`, creating it if missing.
    pub fn relation_mut(&mut self, predicate: &str) -> &mut Relation {
        self.relation_mut_id(SymId::intern(predicate))
    }

    /// The relation for an interned predicate id, creating it if missing.
    ///
    /// If the relation is shared with another generation (the database
    /// was cloned), it is detached here; sealed segments and the frozen
    /// dedup map stay shared, so the detach copies a short tail and the
    /// flat overlay and tombstone tables, not the relation.
    pub fn relation_mut_id(&mut self, predicate: SymId) -> &mut Relation {
        detach(
            self.relations.entry(predicate).or_default(),
            &mut self.detached_cells,
        )
    }

    /// Cells, dedup entries and tombstone words that copy-on-write detaches
    /// of shared relations have copied on this database's lineage, in
    /// total. Deterministic for a given sequence of clones and writes,
    /// unlike the wall time of those copies.
    pub(crate) fn detached_cells(&self) -> usize {
        self.detached_cells
    }

    /// Bring `predicate`'s sorted index on `col` up to date, if the
    /// column has fallen more than [`INDEX_TAIL_MAX`] rows behind.
    /// Compiled plans declare the columns they probe and the evaluator
    /// calls this at round boundaries — the trigger that makes index
    /// maintenance demand-driven. Detaches the relation (copy-on-write)
    /// only when there is sealing work to do.
    pub(crate) fn ensure_index_id(&mut self, predicate: SymId, col: usize) {
        let Some(rel) = self.relations.get_mut(&predicate) else {
            return;
        };
        if rel.index_lag(col) >= INDEX_TAIL_MAX {
            detach(rel, &mut self.detached_cells).ensure_index(col);
        }
    }

    /// Seal every materialized index tail across all relations, plus the
    /// reader-declared `columns` (`(predicate, column)` pairs) whether or
    /// not they have runs yet. Called before publishing this database as
    /// an immutable snapshot: readers cannot seal lazily, so shipping
    /// fully covered indexes keeps their probes on the sorted-run fast
    /// path. A declared column whose runs a compaction or an empty-reset
    /// dropped is rebuilt here; otherwise sealing follows the
    /// binary-counter discipline, amortized O(log n) per inserted row.
    /// Detaches (copy-on-write) only relations with sealing work
    /// outstanding.
    pub fn seal_indexes(&mut self, columns: &[(SymId, usize)]) {
        for rel in self.relations.values_mut() {
            if rel.has_unsealed_index() {
                detach(rel, &mut self.detached_cells).seal_materialized_indexes();
            }
        }
        for &(predicate, col) in columns {
            if let Some(rel) = self.relations.get_mut(&predicate) {
                if rel.index_lag(col) > 0 {
                    detach(rel, &mut self.detached_cells).ensure_index(col);
                }
            }
        }
    }

    /// Insert a fact; returns `true` if new.
    pub fn insert(&mut self, predicate: &str, fact: impl Into<Fact>) -> bool {
        self.insert_id(SymId::intern(predicate), fact)
    }

    /// Insert a fact under an interned predicate id; returns `true` if new.
    pub fn insert_id(&mut self, predicate: SymId, fact: impl Into<Fact>) -> bool {
        let new = self.relation_mut_id(predicate).insert(fact);
        if new {
            self.fact_count += 1;
        }
        new
    }

    /// Insert a fact by reference under an interned predicate id, copying
    /// it only when new; returns `true` if new.
    pub fn insert_if_new_id(&mut self, predicate: SymId, fact: &[Const]) -> bool {
        let new = self.relation_mut_id(predicate).insert_if_new(fact);
        if new {
            self.fact_count += 1;
        }
        new
    }

    /// Retract a fact; returns `true` if it was present.
    pub fn retract(&mut self, predicate: &str, fact: &[Const]) -> bool {
        self.retract_id(SymId::intern(predicate), fact)
    }

    /// Retract a fact under an interned predicate id; returns `true` if it
    /// was present. The relation entry itself stays registered (empty), so
    /// plans that resolved the predicate keep working.
    pub fn retract_id(&mut self, predicate: SymId, fact: &[Const]) -> bool {
        // Only detach the shared relation if the fact is actually present;
        // a no-op retract must not copy anything.
        let gone = match self.relations.get_mut(&predicate) {
            Some(rel) if rel.contains(fact) => detach(rel, &mut self.detached_cells).retract(fact),
            _ => false,
        };
        if gone {
            self.fact_count -= 1;
        }
        gone
    }

    /// Reset the relation for a predicate id to `from`'s — a shared,
    /// copy-on-write handle, or an empty relation when `from` has none —
    /// and adjust the database total. The relation stays registered, so
    /// compiled plans keep resolving it. Used by the incremental engine
    /// to reset a stratum to its base facts before recomputing it.
    pub(crate) fn reset_relation_id(&mut self, predicate: SymId, from: &Database) {
        // A fresh handle rather than make_mut: the old relation may stay
        // pinned by a snapshot, and a reset needs no copy anyway.
        let rel = from.relations.get(&predicate).cloned().unwrap_or_default();
        self.replace_relation(predicate, rel);
    }

    /// Store `rel` as the relation for a predicate id, replacing any
    /// earlier one, and adjust the database total: a relation built
    /// elsewhere (an operator's output) stored without copying a fact.
    pub(crate) fn install_relation_id(&mut self, predicate: SymId, rel: Relation) {
        self.replace_relation(predicate, Arc::new(rel));
    }

    fn replace_relation(&mut self, predicate: SymId, rel: Arc<Relation>) {
        self.fact_count += rel.len();
        if let Some(old) = self.relations.insert(predicate, rel) {
            self.fact_count -= old.len();
        }
    }

    /// Drop every relation whose predicate `keep` rejects.
    pub(crate) fn retain_predicates(&mut self, mut keep: impl FnMut(&str) -> bool) {
        let mut dropped = 0;
        self.relations.retain(|p, rel| {
            let kept = keep(p.as_str());
            if !kept {
                dropped += rel.len();
            }
            kept
        });
        self.fact_count -= dropped;
    }

    /// Whether the database contains this ground fact.
    pub fn contains(&self, predicate: &str, fact: &[Const]) -> bool {
        self.contains_id(SymId::intern(predicate), fact)
    }

    /// Whether the database contains this ground fact (by predicate id).
    pub fn contains_id(&self, predicate: SymId, fact: &[Const]) -> bool {
        self.relations
            .get(&predicate)
            .is_some_and(|r| r.contains(fact))
    }

    /// Total number of facts across relations.
    pub fn fact_count(&self) -> usize {
        self.fact_count
    }

    /// Iterate over `(predicate, relation)` pairs in name order.
    pub fn relations(&self) -> impl Iterator<Item = (&str, &Relation)> {
        let mut entries: Vec<(SymId, &Relation)> =
            self.relations.iter().map(|(&k, v)| (k, &**v)).collect();
        entries.sort_by_key(|&(k, _)| k);
        entries.into_iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Names of all predicates with at least one stored relation entry.
    pub fn predicates(&self) -> impl Iterator<Item = &str> {
        self.relations().map(|(p, _)| p)
    }
}

impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Database ({} facts):", self.fact_count)?;
        for (p, r) in self.relations() {
            writeln!(f, "  {p}/{:?}: {} facts", r.arity(), r.len())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    thread_local! {
        /// ANDed into every tuple hash on this test thread, so a test can
        /// force distinct facts onto one hash slot.
        pub(super) static HASH_MASK: std::cell::Cell<u64> = const { std::cell::Cell::new(u64::MAX) };
    }

    fn c(s: &str) -> Const {
        Const::sym(s)
    }

    #[test]
    fn insert_dedups() {
        let mut r = Relation::new();
        assert!(r.insert(vec![c("a"), c("b")]));
        assert!(!r.insert(vec![c("a"), c("b")]));
        assert_eq!(r.len(), 1);
        assert!(r.contains(&[c("a"), c("b")]));
        assert!(!r.contains(&[c("b"), c("a")]));
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_panics() {
        let mut r = Relation::new();
        r.insert(vec![c("a")]);
        r.insert(vec![c("a"), c("b")]);
    }

    #[test]
    fn matching_uses_pattern() {
        let mut r = Relation::new();
        for (x, y) in [("a", "b"), ("a", "c"), ("b", "c")] {
            r.insert(vec![c(x), c(y)]);
        }
        let pat = vec![Some(c("a")), None];
        let hits: Vec<_> = r.matching(&pat).collect();
        assert_eq!(hits.len(), 2);
        let pat = vec![Some(c("a")), Some(c("c"))];
        assert_eq!(r.matching(&pat).count(), 1);
        let pat = vec![None, None];
        assert_eq!(r.matching(&pat).count(), 3);
        let pat = vec![Some(c("zzz")), None];
        assert_eq!(r.matching(&pat).count(), 0);
    }

    #[test]
    fn matching_picks_selective_column() {
        let mut r = Relation::new();
        for i in 0..100 {
            r.insert(vec![c("hot"), Const::int(i)]);
        }
        r.insert(vec![c("cold"), Const::int(0)]);
        // Column 1 (selectivity 2) should drive; result must still be right.
        let pat = vec![Some(c("hot")), Some(Const::int(0))];
        assert_eq!(r.matching(&pat).count(), 1);
    }

    #[test]
    fn driver_prefers_an_indexed_column_and_never_estimates_an_unindexed_one() {
        // Column 0 is indexed and matches ~200 rows per value; column 1 is
        // unique per row but unindexed, far past INDEX_TAIL_MAX.
        let n = 20 * i64::from(INDEX_TAIL_MAX);
        let (mut r, mut bare) = (Relation::new(), Relation::new());
        for i in 0..n {
            r.insert(vec![Const::int(i % 13), Const::int(i)]);
            bare.insert(vec![Const::int(i % 13), Const::int(i)]);
        }
        r.ensure_index(0);
        assert_eq!(r.index_lag(0), 0);
        assert!(r.index_lag(1) > 10 * INDEX_TAIL_MAX);
        assert_eq!(r.count_eq(1, Const::int(7)), None, "no scan to estimate");
        let hot = Const::int(7);
        let want = (0..n).filter(|i| i % 13 == 7).count();
        // Estimating column 1 would pick it (one row): the indexed,
        // less selective column drives because column 1 is not counted.
        let consts = [(1, Const::int(7)), (0, hot)];
        let d = r.driving_const(consts).expect("constants present");
        assert_eq!((d.col, d.estimate), (0, Some(want)));
        let pat = vec![Some(hot), Some(Const::int(7))];
        assert_eq!(r.matching(&pat).count(), 1);
        // With no estimable column the first constant drives, unestimated,
        // and the remaining constants still filter.
        let d = bare.driving_const(consts).expect("constants present");
        assert_eq!((d.col, d.estimate), (1, None));
        assert_eq!(bare.matching(&pat).count(), 1);
        assert!(bare.driving_const([]).is_none());
    }

    #[test]
    fn sealed_runs_keep_key_then_row_order_over_colliding_keys() {
        // Three distinct keys (two symbols, one integer) over 45 rows,
        // sealed in batches so runs are sorted fresh and merged.
        let mut r = Relation::new();
        let cell = |i: i64| match i % 3 {
            0 => c("x"),
            1 => Const::int(-1),
            _ => c("y"),
        };
        let mut next = 0;
        for batch in [10, 10, 5, 20] {
            for _ in 0..batch {
                r.insert(vec![cell(next), Const::int(next)]);
                next += 1;
            }
            r.ensure_index(0);
            let mut covered: Vec<u32> = Vec::new();
            for run in &r.indexes[0].runs {
                let keyed: Vec<(u128, u32)> = run
                    .iter()
                    .map(|&row| (key_of(r.cell(row, 0)), row))
                    .collect();
                assert!(keyed.windows(2).all(|w| w[0] < w[1]), "{keyed:?}");
                covered.extend(run.iter());
            }
            covered.sort_unstable();
            assert_eq!(covered, (0..r.total).collect::<Vec<_>>());
        }
        // 10 + 10 merged, then 5 + 20 and 20 + 25.
        assert_eq!(r.indexes[0].runs.len(), 1);
    }

    #[test]
    fn sorted_is_deterministic() {
        let mut r = Relation::new();
        r.insert(vec![c("b")]);
        r.insert(vec![c("a")]);
        let sorted = r.sorted();
        assert_eq!(sorted.len(), 2);
        assert_eq!(*sorted[0], [c("a")]);
        assert_eq!(*sorted[1], [c("b")]);
    }

    #[test]
    fn database_counts() {
        let mut db = Database::new();
        assert!(db.insert("p", vec![c("a")]));
        assert!(!db.insert("p", vec![c("a")]));
        assert!(db.insert("q", vec![c("a")]));
        assert_eq!(db.fact_count(), 2);
        assert!(db.contains("p", &[c("a")]));
        assert!(!db.contains("r", &[c("a")]));
        assert_eq!(db.predicates().collect::<Vec<_>>(), vec!["p", "q"]);
    }

    #[test]
    fn retract_removes_and_reports() {
        let mut r = Relation::new();
        r.insert(vec![c("a"), c("b")]);
        r.insert(vec![c("b"), c("c")]);
        assert!(r.retract(&[c("a"), c("b")]));
        assert!(!r.retract(&[c("a"), c("b")]), "second retract is a no-op");
        assert!(!r.retract(&[c("z"), c("z")]), "absent fact");
        assert!(!r.retract(&[c("b")]), "wrong arity is not a panic");
        assert_eq!(r.len(), 1);
        assert!(r.contains(&[c("b"), c("c")]));
        assert!(!r.contains(&[c("a"), c("b")]));
    }

    #[test]
    fn retract_keeps_probes_consistent() {
        // Tombstoned rows must be invisible to index probes and dedup.
        let mut r = Relation::new();
        for (x, y) in [("a", "b"), ("c", "d"), ("e", "f")] {
            r.insert(vec![c(x), c(y)]);
        }
        assert!(r.retract(&[c("a"), c("b")]));
        let pat = vec![Some(c("e")), None];
        let hits: Vec<_> = r.matching(&pat).collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(*hits[0], [c("e"), c("f")]);
        assert!(r.contains(&[c("e"), c("f")]));
        assert!(!r.insert(vec![c("e"), c("f")]), "dedup still sees it");
        assert!(!r.insert(vec![c("c"), c("d")]));
        let pat = vec![Some(c("a")), None];
        assert_eq!(r.matching(&pat).count(), 0, "tombstone is invisible");
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn retract_to_empty_resets_arity() {
        let mut r = Relation::new();
        r.insert(vec![c("a"), c("b")]);
        assert!(r.retract(&[c("a"), c("b")]));
        assert!(r.is_empty());
        assert_eq!(r.arity(), None);
        // A fresh arity is legal again, exactly as on a new relation.
        assert!(r.insert(vec![c("x")]));
        assert_eq!(r.arity(), Some(1));
        assert!(r.contains(&[c("x")]));
    }

    #[test]
    fn retract_interleaved_with_insert_stays_consistent() {
        let mut r = Relation::new();
        for i in 0..20 {
            r.insert(vec![Const::int(i), Const::int(i + 1)]);
        }
        for i in (0..20).step_by(2) {
            assert!(r.retract(&[Const::int(i), Const::int(i + 1)]));
        }
        for i in 0..20 {
            let present = i % 2 == 1;
            assert_eq!(r.contains(&[Const::int(i), Const::int(i + 1)]), present);
            let pat = vec![Some(Const::int(i)), None];
            assert_eq!(r.matching(&pat).count(), usize::from(present));
        }
        // Reinsert everything; dedup must admit the retracted half only.
        let mut added = 0;
        for i in 0..20 {
            if r.insert(vec![Const::int(i), Const::int(i + 1)]) {
                added += 1;
            }
        }
        assert_eq!(added, 10);
        assert_eq!(r.len(), 20);
    }

    #[test]
    fn probes_work_across_sealed_runs_and_segments() {
        // Cross both the INDEX_TAIL_MAX run-seal and the SEG_ROWS
        // segment-seal thresholds, then verify point probes everywhere.
        let seg = i64::from(SEG_ROWS);
        let n = seg + 700;
        let mut r = Relation::new();
        for i in 0..n {
            r.insert(vec![Const::int(i), Const::int(i % 7)]);
            // Staggered seals build a genuine run cascade on column 0
            // while column 1 keeps a partial index plus unsorted tail.
            if i == 100 || i == seg - 20 || i == seg + 300 {
                r.ensure_index(0);
            }
            if i == seg / 2 {
                r.ensure_index(1);
            }
        }
        r.ensure_index(0);
        assert_eq!(r.index_lag(0), 0);
        assert!(r.index_lag(1) > 0, "column 1 keeps an unsealed tail");
        assert_eq!(r.len(), usize::try_from(n).expect("fits"));
        for i in [0, 1, seg - 1, seg, seg + 1, n - 1] {
            let pat = vec![Some(Const::int(i)), None];
            assert_eq!(r.matching(&pat).count(), 1, "row {i}");
            assert!(r.contains(&[Const::int(i), Const::int(i % 7)]));
        }
        // Low-selectivity column: every residue class is fully found.
        let pat = vec![None, Some(Const::int(3))];
        let expect = (0..n).filter(|i| i % 7 == 3).count();
        assert_eq!(r.matching(&pat).count(), expect);
    }

    #[test]
    fn cursor_merges_sorted_probes() {
        let mut r = Relation::new();
        for i in 0..1000 {
            r.insert(vec![Const::int(i % 50), Const::int(i)]);
            if i == 300 || i == 600 {
                r.ensure_index(0);
            }
        }
        // Two sealed runs plus a 399-row unsorted tail: the cursor must
        // merge all three sources.
        let mut cur = r.col_cursor(0);
        let mut total = 0;
        for v in 0..50 {
            let mut rows = Vec::new();
            cur.seek(Const::int(v), &mut rows);
            assert_eq!(rows.len(), 20, "value {v}");
            assert!(rows.iter().all(|&row| r.cell(row, 0) == Const::int(v)));
            total += rows.len();
        }
        assert_eq!(total, 1000);
    }

    #[test]
    fn compaction_preserves_contents() {
        let mut r = Relation::new();
        let n = 4 * i64::try_from(COMPACT_MIN).expect("fits");
        for i in 0..n {
            r.insert(vec![Const::int(i)]);
        }
        for i in 0..n {
            if i % 2 == 0 {
                assert!(r.retract(&[Const::int(i)]));
            }
        }
        // Compaction has certainly triggered: half the rows died.
        assert_eq!(r.len(), usize::try_from(n / 2).expect("fits"));
        for i in 0..n {
            assert_eq!(r.contains(&[Const::int(i)]), i % 2 == 1);
        }
        let pat = vec![Some(Const::int(1))];
        assert_eq!(r.matching(&pat).count(), 1);
    }

    #[test]
    fn clone_shares_segments_and_stays_isolated() {
        let mut r = Relation::new();
        let n = i64::from(SEG_ROWS) + 10;
        for i in 0..n {
            r.insert(vec![Const::int(i)]);
        }
        let snap = r.clone();
        // The sealed segment is shared, not copied.
        assert!(Arc::ptr_eq(&r.sealed[0], &snap.sealed[0]));
        // Mutating the original must not leak into the clone.
        r.insert(vec![Const::int(n)]);
        assert!(r.retract(&[Const::int(0)]));
        assert_eq!(snap.len(), usize::try_from(n).expect("fits"));
        assert!(snap.contains(&[Const::int(0)]));
        assert!(!snap.contains(&[Const::int(n)]));
        let pat = vec![Some(Const::int(0))];
        assert_eq!(snap.matching(&pat).count(), 1);
        assert_eq!(r.matching(&pat).count(), 0);
    }

    /// Force every tuple hash on this thread into `mask` until dropped.
    struct ForcedHashes;

    impl ForcedHashes {
        fn mask(mask: u64) -> Self {
            HASH_MASK.with(|m| m.set(mask));
            ForcedHashes
        }
    }

    impl Drop for ForcedHashes {
        fn drop(&mut self) {
            HASH_MASK.with(|m| m.set(u64::MAX));
        }
    }

    fn spilled(r: &Relation) -> usize {
        r.spill.values().map(Vec::len).sum()
    }

    #[test]
    fn colliding_facts_share_a_slot_through_the_side_table() {
        let _forced = ForcedHashes::mask(0);
        let (a, b, x) = ([c("a")], [c("b")], [c("x")]);
        let mut r = Relation::new();
        assert!(r.insert(a.to_vec()));
        assert!(r.insert(b.to_vec()), "a collision is not a duplicate");
        assert!(!r.insert(b.to_vec()));
        assert_eq!((r.len(), spilled(&r)), (2, 1));
        assert!(r.contains(&a) && r.contains(&b) && !r.contains(&x));
        // Retracting the slot's holder leaves the spilled fact visible;
        // re-inserting it takes over the dead slot, not the side table.
        assert!(r.retract(&a));
        assert!(!r.contains(&a) && r.contains(&b));
        assert!(r.insert(a.to_vec()));
        assert_eq!((r.len(), spilled(&r)), (2, 1));
        assert!(r.retract(&b));
        assert!(!r.retract(&b));
        assert!(
            r.insert(b.to_vec()),
            "a dead spilled row is not a duplicate"
        );
        assert_eq!(spilled(&r), 1, "dead chain rows are pruned on push");
        // Both lineages of a clone keep their own collision chains.
        let mut snap = r.clone();
        assert!(r.insert(x.to_vec()));
        assert!(snap.retract(&b));
        assert!(r.contains(&b) && r.contains(&x) && r.len() == 3);
        assert!(!snap.contains(&b) && !snap.contains(&x) && snap.len() == 1);
        let pat = vec![Some(c("b"))];
        assert_eq!(
            (r.matching(&pat).count(), snap.matching(&pat).count()),
            (1, 0)
        );
    }

    #[test]
    fn colliding_facts_survive_folds_and_compaction() {
        // 8192 hash slots for more facts than the fold threshold: many
        // rows are spilled, and the script crosses the fold and
        // compaction thresholds with collisions live.
        let _forced = ForcedHashes::mask(u64::MAX << 51);
        // Scrambled values, so the masked hashes spread over the slots.
        #[allow(clippy::cast_possible_wrap)]
        let f = |i: u64| [Const::int(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) as i64)];
        let n = 6000;
        let mut r = Relation::new();
        for i in 0..n {
            assert!(r.insert(f(i).to_vec()));
        }
        assert!(
            spilled(&r) > 0 && !r.frozen.is_empty(),
            "spilled and folded"
        );
        let snap = r.clone();
        for i in (0..n).filter(|i| i % 3 != 0) {
            assert!(r.retract(&f(i)));
        }
        assert!(r.tombstones() < COMPACT_MIN, "compaction ran");
        for i in 0..n {
            assert_eq!(r.contains(&f(i)), i % 3 == 0, "fact {i}");
            assert!(snap.contains(&f(i)), "clone keeps fact {i}");
        }
        for i in 0..n {
            assert_eq!(r.insert(f(i).to_vec()), i % 3 != 0, "re-insert {i}");
        }
        assert_eq!(r.len(), snap.len());
        assert_eq!(r.sorted(), snap.sorted());
    }

    #[test]
    fn reinserted_facts_survive_the_overlay_fold() {
        // Retract facts whose rows sit in the frozen map and re-insert
        // them (the overlay takes their dead slots), then insert enough
        // to fold the overlay — once with the frozen map unshared, once
        // shared with a clone. The fold must keep the new rows.
        let fold = i64::try_from(FOLD_MIN).expect("fits");
        let churn = i64::try_from(COMPACT_MIN).expect("fits") - 24;
        for shared in [false, true] {
            let mut r = Relation::new();
            for i in 0..fold {
                r.insert(vec![Const::int(i)]);
            }
            assert_eq!((r.frozen.len(), r.overlay.len()), (FOLD_MIN, 0));
            for i in 0..churn {
                assert!(r.retract(&[Const::int(i)]));
                assert!(r.insert(vec![Const::int(i)]));
            }
            let snap = shared.then(|| r.clone());
            for i in fold..2 * fold {
                r.insert(vec![Const::int(i)]);
            }
            assert!(r.overlay.len() < FOLD_MIN, "the overlay folded");
            assert_eq!(r.tombstones(), usize::try_from(churn).expect("fits"));
            for i in 0..2 * fold {
                assert!(r.contains(&[Const::int(i)]), "fact {i} (shared: {shared})");
            }
            assert!((0..churn).all(|i| !r.insert(vec![Const::int(i)])));
            assert_eq!(r.len(), 2 * usize::try_from(fold).expect("fits"));
            if let Some(snap) = snap {
                assert_eq!(snap.len(), FOLD_MIN);
                assert!(!snap.contains(&[Const::int(fold)]));
            }
        }
    }

    #[test]
    fn database_retract_tracks_fact_count() {
        let mut db = Database::new();
        db.insert("p", vec![c("a")]);
        db.insert("p", vec![c("b")]);
        db.insert("q", vec![c("a")]);
        assert!(db.retract("p", &[c("a")]));
        assert!(!db.retract("p", &[c("a")]));
        assert!(!db.retract("r", &[c("a")]), "unknown predicate");
        assert_eq!(db.fact_count(), 2);
        assert!(db.retract("q", &[c("a")]));
        assert_eq!(db.fact_count(), 1);
        // The emptied relation stays registered.
        assert!(db.relation("q").is_some());
        assert!(db.relation("q").unwrap().is_empty());
    }

    #[test]
    fn id_paths_agree_with_str_paths() {
        let mut db = Database::new();
        let p = SymId::intern("p");
        assert!(db.insert_id(p, vec![c("a")]));
        assert!(db.contains("p", &[c("a")]));
        assert!(db.contains_id(p, &[c("a")]));
        assert_eq!(db.relation_id(p).unwrap().len(), 1);
        assert!(std::ptr::eq(
            db.relation("p").unwrap(),
            db.relation_id(p).unwrap()
        ));
    }
}

/// Model-based property tests for the per-column sorted permutation
/// indexes: after any interleaving of inserts, retracts, partial index
/// seals, and COW clones — sized to cross the segment-seal
/// ([`SEG_ROWS`]), overlay-fold ([`FOLD_MIN`]), and tombstone-compaction
/// ([`COMPACT_MIN`]) thresholds — every index run must stay sorted and
/// jointly partition `0..covered`, and both probe paths
/// ([`Relation::rows_eq`], [`ColCursor::seek`]) must agree with a
/// naive scan of the column segments.
#[cfg(test)]
mod index_properties {
    use super::*;
    use proptest::prelude::*;

    fn nv(i: usize) -> Const {
        Const::sym(format!("v{i}"))
    }

    /// Check every sorted-run invariant plus probe/cursor agreement with
    /// a naive segment scan, for every column, at whatever index
    /// coverage the relation currently has (tail paths included).
    fn assert_indexes_agree(rel: &Relation) {
        let Some(arity) = rel.arity() else { return };
        let mut live = Vec::new();
        rel.live_rows(&mut live);
        for col in 0..arity {
            let idx = &rel.indexes[col];
            // Each run is strictly sorted by (key, row); together the
            // runs are a permutation of the covered prefix.
            let mut union: Vec<u32> = Vec::new();
            for run in &idx.runs {
                for w in run.windows(2) {
                    let a = (key_of(rel.cell(w[0], col)), w[0]);
                    let b = (key_of(rel.cell(w[1], col)), w[1]);
                    assert!(a < b, "run out of order on col {col}: {a:?} !< {b:?}");
                }
                union.extend_from_slice(run);
            }
            union.sort_unstable();
            assert_eq!(
                union,
                (0..idx.covered).collect::<Vec<u32>>(),
                "runs must partition 0..covered on col {col}"
            );
            // Ground truth per value, straight from the segment cells.
            let mut truth: FxHashMap<Const, Vec<u32>> = FxHashMap::default();
            for &r in &live {
                truth.entry(rel.cell(r, col)).or_default().push(r);
            }
            // The cursor contract requires non-decreasing keys.
            let mut values: Vec<Const> = truth.keys().copied().collect();
            values.sort_unstable_by_key(|&v| key_of(v));
            let mut cur = rel.col_cursor(col);
            for &v in &values {
                let mut probed: Vec<u32> = rel.rows_eq(col, v).collect();
                probed.sort_unstable();
                assert_eq!(probed, truth[&v], "rows_eq col {col} value {v:?}");
                // count_eq counts tombstones too: an upper bound. It
                // estimates only columns with runs over all but a
                // bounded tail.
                let estimable = rel.index_lag(col) <= INDEX_TAIL_MAX;
                match rel.count_eq(col, v) {
                    Some(n) => assert!(estimable && n >= probed.len()),
                    None => assert!(!estimable),
                }
                let mut sought = Vec::new();
                cur.seek(v, &mut sought);
                sought.sort_unstable();
                assert_eq!(sought, truth[&v], "cursor seek col {col} value {v:?}");
            }
            assert!(
                rel.rows_eq(col, Const::sym("absent-key")).next().is_none(),
                "absent value must probe empty on col {col}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn sorted_indexes_agree_with_segments(
            preload in (FOLD_MIN + 40)..(FOLD_MIN + 260),
            ops in proptest::collection::vec((0u8..100, 0usize..12, 0usize..64), 1..48),
        ) {
            // Preload distinct facts past the SEG_ROWS segment seal and
            // the FOLD_MIN overlay fold; col 0 is 12-valued (fat key
            // groups), col 1 is unique per row.
            let mut rel = Relation::new();
            for i in 0..preload {
                rel.insert_if_new(&[nv(i % 12), Const::int(i as i64)]);
            }
            rel.ensure_index(0);
            assert_indexes_agree(&rel); // col 1 unsealed: pure tail path

            // COW generation pinned mid-history.
            let snapshot = rel.clone();
            let snap_facts = snapshot.sorted();

            for &(w, x, y) in &ops {
                let f = [nv(x), Const::int(y as i64)];
                match w {
                    0..=44 => {
                        rel.insert_if_new(&f);
                    }
                    45..=84 => {
                        rel.retract(&f);
                    }
                    _ => rel.ensure_index(usize::from(w) % 2),
                }
            }
            rel.ensure_index(0);
            rel.ensure_index(1);
            assert_indexes_agree(&rel);

            // Mass-retract half the preload: crosses COMPACT_MIN, so the
            // relation rebuilds and the indexes restart from scratch.
            for i in 0..preload / 2 {
                rel.retract(&[nv(i % 12), Const::int(i as i64)]);
            }
            rel.ensure_index(0);
            assert_indexes_agree(&rel);

            // The pinned generation never saw any of it, and sealing its
            // own indexes is still consistent and content-preserving.
            let mut snap = snapshot;
            prop_assert_eq!(&snap.sorted(), &snap_facts);
            snap.ensure_index(0);
            snap.ensure_index(1);
            assert_indexes_agree(&snap);
            prop_assert_eq!(&snap.sorted(), &snap_facts);
        }
    }
}
