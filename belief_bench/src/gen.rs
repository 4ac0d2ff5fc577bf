//! Seeded MultiLog source generators.
//!
//! Every workload input is MultiLog source text built here from the
//! `--seed`; the engine under test only ever sees that text. Sizes are
//! exact and only the assignment of cells to keys, levels and
//! classifications is random, so two seeds give databases of the same
//! shape and the run-to-run spread of a metric is not dominated by one
//! seed drawing a bigger database than another.

use std::fmt::Write as _;

/// SplitMix64: a small, fast, deterministic generator (no external
/// crates are available to the benchmark).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_BE11_EF00_0000)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) has no values");
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Shuffle `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Level names of a chain lattice `l0 < l1 < … < l{depth-1}`.
pub fn level_names(depth: usize) -> Vec<String> {
    (0..depth).map(|i| format!("l{i}")).collect()
}

/// One classified `data` cell: `l{level}[data(k{key} : a -l{class}-> v{value})]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cell {
    /// Entity key index.
    pub key: usize,
    /// Level the cell is asserted at.
    pub level: usize,
    /// Classification of the value (`class <= level`).
    pub class: usize,
    /// Value index; unique per cell, so a cell is its own witness.
    pub value: usize,
}

impl Cell {
    /// The ground m-atom, without the trailing period.
    pub fn atom(&self) -> String {
        format!(
            "l{}[data(k{} : a -l{}-> v{})]",
            self.level, self.key, self.class, self.value
        )
    }
}

/// Shape of a belief database: a chain lattice, `cells` polyinstantiated
/// `data` cells below the top level (`cells_per_key` per key), and
/// `rules` top-level rules consulting cautious beliefs about them.
#[derive(Clone, Copy, Debug)]
pub struct BeliefSpec {
    /// Number of levels (at least 2).
    pub depth: usize,
    /// Number of base `data` cells.
    pub cells: usize,
    /// Cells sharing one key; the cautious `beaten_h` join is quadratic
    /// in this.
    pub cells_per_key: usize,
    /// Number of cautious top-level rules.
    pub rules: usize,
}

/// A generated belief database: its cells (for oracles and update
/// streams) and its source text.
#[derive(Clone, Debug)]
pub struct BeliefDb {
    /// The shape it was generated from.
    pub spec: BeliefSpec,
    /// Every base `data` cell, in source order.
    pub cells: Vec<Cell>,
    /// Key consulted by each cautious rule.
    pub rule_keys: Vec<usize>,
    /// MultiLog source text.
    pub source: String,
}

impl BeliefDb {
    /// Number of distinct keys.
    pub fn keys(&self) -> usize {
        key_count(&self.spec)
    }

    /// Source text of the same database with `cells` as its base cells
    /// (the oracle's "base plus committed history").
    pub fn source_with<'a>(&self, cells: impl IntoIterator<Item = &'a Cell>) -> String {
        let depth = self.spec.depth;
        let mut source = lattice_source(depth);
        for c in cells {
            let _ = writeln!(source, "{}.", c.atom());
        }
        let (top, below) = (depth - 1, depth - 2);
        for (r, key) in self.rule_keys.iter().enumerate() {
            let _ = writeln!(
                source,
                "l{top}[derived(k{key} : b -l{top}-> d{r})] <- \
                 l{below}[data(k{key} : a -C-> V)] << cau."
            );
        }
        source
    }
}

fn key_count(spec: &BeliefSpec) -> usize {
    (spec.cells / spec.cells_per_key.max(1)).max(1)
}

/// Generate a belief database for `spec` from `seed`.
pub fn belief_db(spec: BeliefSpec, seed: u64) -> BeliefDb {
    assert!(
        spec.depth >= 2,
        "a belief database needs at least two levels"
    );
    let mut rng = Rng::new(seed);
    let keys = key_count(&spec);
    // Exactly balanced levels below the top, randomly assigned.
    let mut levels: Vec<usize> = (0..spec.cells).map(|i| i % (spec.depth - 1)).collect();
    rng.shuffle(&mut levels);
    let cells: Vec<Cell> = levels
        .into_iter()
        .enumerate()
        .map(|(i, level)| Cell {
            key: i % keys,
            level,
            class: rng.below(level + 1),
            value: i,
        })
        .collect();
    let rule_keys = (0..spec.rules).map(|_| rng.below(keys)).collect();
    let mut db = BeliefDb {
        spec,
        cells,
        rule_keys,
        source: String::new(),
    };
    db.source = db.source_with(&db.cells);
    db
}

fn lattice_source(depth: usize) -> String {
    let mut out = String::new();
    for i in 0..depth {
        let _ = writeln!(out, "level(l{i}).");
    }
    for i in 1..depth {
        let _ = writeln!(out, "order(l{}, l{i}).", i - 1);
    }
    out
}

/// Shape of the combined "agency" database of the batch workload.
#[derive(Clone, Copy, Debug)]
pub struct AgencySpec {
    /// The cautious-belief part.
    pub belief: BeliefSpec,
    /// Polyinstantiated `emp` salary cells behind the `count` dashboard.
    pub emp_cells: usize,
    /// Distinct `emp` keys.
    pub emp_keys: usize,
    /// Nodes of the `boss` chain-of-command graph.
    pub staff: usize,
}

/// A generated agency database with what its oracles need.
#[derive(Clone, Debug)]
pub struct AgencyDb {
    /// The shape it was generated from.
    pub spec: AgencySpec,
    /// `emp` cells per level (the expected dashboard row of level `h`
    /// counts the cells at levels `0..=h`).
    pub emp_per_level: Vec<usize>,
    /// `boss(X, Y)` edges (`X` reports to `Y`) as staff indices.
    pub boss: Vec<(usize, usize)>,
    /// MultiLog source text, ending in the stored queries.
    pub source: String,
}

/// Members per manager from one tier of the chain of command to the next.
const FAN_OUT: usize = 4;

/// Generate the agency database for `spec` from `seed`: the belief
/// database, a per-level `count` dashboard over `emp` cells, and an
/// `@bfs` chain of command over a power-law `boss` tree.
pub fn agency_db(spec: AgencySpec, seed: u64) -> AgencyDb {
    let belief = belief_db(spec.belief, seed);
    let depth = spec.belief.depth;
    let top = depth - 1;
    let mut rng = Rng::new(seed.wrapping_add(1));
    let mut source = belief.source;
    // Exactly balanced levels and keys, randomly paired.
    let mut levels: Vec<usize> = (0..spec.emp_cells).map(|i| i % depth).collect();
    let mut keys: Vec<usize> = (0..spec.emp_cells)
        .map(|i| i % spec.emp_keys.max(1))
        .collect();
    rng.shuffle(&mut levels);
    rng.shuffle(&mut keys);
    let mut emp_per_level = vec![0usize; depth];
    for (i, (level, key)) in levels.into_iter().zip(keys).enumerate() {
        emp_per_level[level] += 1;
        let class = rng.below(level + 1);
        let _ = writeln!(source, "l{level}[emp(e{key} : sal -l{class}-> s{i})].");
    }
    // Tiers growing by FAN_OUT, each member reporting to one manager of
    // the tier above, chosen by preferential attachment (copy a peer's
    // manager half the time), so a few managers collect most reports
    // while every member's chain has its tier's length.
    let mut boss: Vec<(usize, usize)> = Vec::new();
    let (mut above, mut next) = (0..1, 1);
    while next < spec.staff {
        let tier = next..(next + above.len() * FAN_OUT).min(spec.staff);
        let first_edge = boss.len();
        for x in tier.clone() {
            let manager = if boss.len() == first_edge || rng.below(2) == 0 {
                above.start + rng.below(above.len())
            } else {
                boss[first_edge + rng.below(boss.len() - first_edge)].1
            };
            boss.push((x, manager));
        }
        next = tier.end;
        above = tier;
    }
    for (x, y) in &boss {
        let _ = writeln!(source, "boss(m{x}, m{y}).");
    }
    source.push_str("chain(X, Y) <- @bfs(boss, X, Y).\n");
    source.push_str("total(H, count(K)) <- H[emp(K : sal -_C-> _V)] << opt, level(H).\n");
    source.push_str("<- total(H, N).\n");
    source.push_str("<- chain(X, Y).\n");
    let _ = writeln!(source, "<- l{top}[derived(K : b -C-> V)] << cau.");
    AgencyDb {
        spec,
        emp_per_level,
        boss,
        source,
    }
}
