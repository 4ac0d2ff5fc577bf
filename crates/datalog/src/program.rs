//! Programs: clause collections with arity checking, dependency analysis,
//! and stratification.

use std::collections::HashMap;
use std::fmt;

use crate::atom::Literal;
use crate::clause::Clause;
use crate::term::SymId;
use crate::{DatalogError, Result};

/// A validated Datalog program.
#[derive(Clone, Default)]
pub struct Program {
    clauses: Vec<Clause>,
    /// Interned predicate → arity.
    arities: HashMap<SymId, usize>,
}

impl Program {
    /// Create an empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Build a program from clauses, checking safety and arity consistency.
    pub fn from_clauses(clauses: Vec<Clause>) -> Result<Self> {
        let mut p = Program::new();
        for c in clauses {
            p.push(c)?;
        }
        Ok(p)
    }

    /// Build a program from clauses **without** any validation — no
    /// safety checking, no arity recording for `skip_arity` predicates.
    /// Test-only: lets regression tests reach the engine's internal
    /// invariant errors, which validated construction makes unreachable.
    #[cfg(test)]
    pub(crate) fn from_clauses_unchecked(clauses: Vec<Clause>, skip_arity: &[&str]) -> Self {
        let mut arities = HashMap::new();
        for c in &clauses {
            for (pred, arity) in std::iter::once((c.head.predicate, c.head.arity())).chain(
                c.body
                    .iter()
                    .filter_map(|l| l.atom().map(|a| (a.predicate, a.arity()))),
            ) {
                if !skip_arity.contains(&pred.as_str()) {
                    arities.entry(pred).or_insert(arity);
                }
            }
        }
        Program { clauses, arities }
    }

    /// Add one clause, validating it.
    pub fn push(&mut self, clause: Clause) -> Result<()> {
        clause.check_safety()?;
        self.check_arity(&clause)?;
        self.clauses.push(clause);
        Ok(())
    }

    /// Append all clauses of another program.
    pub fn extend(&mut self, other: &Program) -> Result<()> {
        for c in &other.clauses {
            self.push(c.clone())?;
        }
        Ok(())
    }

    fn check_arity(&mut self, clause: &Clause) -> Result<()> {
        let mut check = |pred: SymId, arity: usize| -> Result<()> {
            match self.arities.get(&pred) {
                Some(&a) if a != arity => Err(DatalogError::ArityMismatch {
                    predicate: pred.to_string(),
                    expected: a,
                    found: arity,
                }),
                Some(_) => Ok(()),
                None => {
                    self.arities.insert(pred, arity);
                    Ok(())
                }
            }
        };
        check(clause.head.predicate, clause.head.arity())?;
        for l in &clause.body {
            if let Some(a) = l.atom() {
                check(a.predicate, a.arity())?;
            }
        }
        Ok(())
    }

    /// The clauses in insertion order.
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// The declared arity of a predicate, if seen.
    pub fn arity(&self, predicate: &str) -> Option<usize> {
        self.arities.get(&SymId::intern(predicate)).copied()
    }

    /// All predicate names, sorted.
    pub fn predicates(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self.arities.keys().map(|k| k.as_str()).collect();
        out.sort_unstable();
        out
    }

    /// Number of clauses.
    pub fn len(&self) -> usize {
        self.clauses.len()
    }

    /// Whether the program has no clauses.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// The set of predicates the given seed predicates depend on
    /// (transitively, through positive and negative body literals),
    /// including the seeds themselves. Used for query-restricted
    /// evaluation: predicates outside this set cannot influence the
    /// query's answers. An `@algo(input)` call predicate depends on its
    /// input relation, so demanding the call pulls the input in too.
    pub fn dependencies_of<'a>(
        &self,
        seeds: impl IntoIterator<Item = &'a str>,
    ) -> std::collections::HashSet<String> {
        let mut needed: std::collections::HashSet<String> =
            seeds.into_iter().map(str::to_owned).collect();
        loop {
            let mut changed = false;
            // Algo call predicates have no defining clauses; their input
            // dependency lives in the predicate name itself.
            let inputs: Vec<String> = needed
                .iter()
                .filter_map(|p| crate::algo::parse_call(p))
                .map(|(_, input)| input.to_owned())
                .collect();
            for input in inputs {
                if needed.insert(input) {
                    changed = true;
                }
            }
            for c in &self.clauses {
                if !needed.contains(c.head.predicate.as_ref()) {
                    continue;
                }
                for l in &c.body {
                    if let Some(a) = l.atom() {
                        if needed.insert(a.predicate.to_string()) {
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                return needed;
            }
        }
    }

    /// A copy of the program without its fact clauses. The arity table
    /// is kept whole, so facts-only predicates keep their arities and
    /// the copy stratifies exactly like the whole program.
    pub fn without_facts(&self) -> Program {
        Program {
            clauses: self
                .clauses
                .iter()
                .filter(|c| !c.is_fact())
                .cloned()
                .collect(),
            arities: self.arities.clone(),
        }
    }

    /// A copy of the program with every clause whose head is in
    /// `excluded` dropped. The arity table is kept whole, so the copy
    /// still validates literals over excluded predicates (they behave as
    /// empty EDB relations).
    ///
    /// This is the demand-cone hook for callers that *know* a predicate
    /// cannot contribute to any visible answer — e.g. the τ reduction's
    /// per-level belief machinery for levels outside the session
    /// clearance, whose every use site is conjoined with a statically
    /// false `dominate` guard. Excluding such predicates keeps the
    /// magic-sets rewrite from demanding (and materializing) their
    /// sub-fixpoints.
    pub fn without_predicates(&self, excluded: &std::collections::HashSet<String>) -> Program {
        Program {
            clauses: self
                .clauses
                .iter()
                .filter(|c| !excluded.contains(c.head.predicate.as_str()))
                .cloned()
                .collect(),
            arities: self.arities.clone(),
        }
    }

    /// A copy of the program with every clause structurally equal to one
    /// in `excluded` dropped (the arity table is kept whole). The
    /// clause-granular companion of [`Program::without_predicates`]: the
    /// flow-pruned demand path drops individual rules that a static
    /// analysis proved can never fire, while other clauses with the same
    /// head predicate (in particular its EDB facts) stay live.
    pub fn without_clauses(&self, excluded: &std::collections::HashSet<Clause>) -> Program {
        Program {
            clauses: self
                .clauses
                .iter()
                .filter(|c| !excluded.contains(c))
                .cloned()
                .collect(),
            arities: self.arities.clone(),
        }
    }

    /// The predicate dependency graph of the program: one node per
    /// predicate, one edge from every body predicate to the head
    /// predicate that depends on it, tagged negative when the body
    /// literal is negated. Stratification reads the negative-cycle
    /// witness off it.
    pub fn dependency_graph(&self) -> DepGraph {
        let preds: Vec<String> = self.predicates().iter().map(|&p| p.to_owned()).collect();
        let index: HashMap<String, usize> = preds
            .iter()
            .enumerate()
            .map(|(i, p)| (p.clone(), i))
            .collect();
        let mut edges = Vec::new();
        for c in &self.clauses {
            // Clauses naming a predicate outside the arity table cannot
            // exist in a validated program; total lookup (skip) instead
            // of indexing keeps the analysis panic-free regardless.
            let Some(&h) = index.get(c.head.predicate.as_ref()) else {
                continue;
            };
            // Aggregate clauses read their body like negation reads its
            // atom: the body must be complete before the fold runs, so
            // every body edge is negative (stratum-separating).
            let agg = c.agg.is_some();
            for l in &c.body {
                let (q, negative) = match l {
                    Literal::Pos(a) => (index.get(a.predicate.as_ref()), agg),
                    Literal::Neg(a) => (index.get(a.predicate.as_ref()), true),
                    Literal::Cmp { .. } | Literal::Arith { .. } => continue,
                };
                let Some(&q) = q else { continue };
                edges.push((q, h, negative));
            }
        }
        // `@algo(input)` call predicates depend negatively on their
        // input relation: the operator consumes the *complete* input, so
        // the call sits strictly above it — a dependency edge like
        // negation.
        for (p, &pi) in &index {
            if let Some((_, input)) = crate::algo::parse_call(p) {
                if let Some(&qi) = index.get(input) {
                    edges.push((qi, pi, true));
                }
            }
        }
        DepGraph::from_edges(preds, edges)
    }

    /// Compute a stratification of the program.
    ///
    /// Predicates are assigned to strata such that positive dependencies
    /// stay within or below a stratum and negative dependencies point
    /// strictly below. Errors with [`DatalogError::NotStratifiable`] when a
    /// predicate depends negatively on itself through recursion; the error
    /// carries the full witness cycle from [`DepGraph::negative_cycle`].
    pub fn stratify(&self) -> Result<Stratification> {
        // Collect predicate ids.
        let preds: Vec<&str> = self.predicates();
        let id: HashMap<&str, usize> = preds.iter().enumerate().map(|(i, &p)| (p, i)).collect();
        let n = preds.len();

        // stratum[p] via the standard iterative algorithm:
        //   pos edge q -> head: stratum(head) >= stratum(q)
        //   neg edge q -> head: stratum(head) >= stratum(q) + 1
        // Iterate to fixpoint; if any stratum exceeds n, there is a negative
        // cycle.
        let mut stratum = vec![0usize; n];
        // An `@algo(input)` call predicate sits strictly above its input
        // relation, exactly like a negated dependency: the operator only
        // runs once the input is complete.
        let algo_edges: Vec<(usize, usize)> = preds
            .iter()
            .filter_map(|&p| {
                let (_, input) = crate::algo::parse_call(p)?;
                Some((*id.get(input)?, *id.get(p)?))
            })
            .collect();
        let mut changed = true;
        while changed {
            changed = false;
            for c in &self.clauses {
                // Total lookups, as in `dependency_graph`: a predicate
                // missing from the arity table contributes no
                // constraints rather than a panic.
                let Some(&h) = id.get(c.head.predicate.as_ref()) else {
                    continue;
                };
                // Aggregate bodies must be complete before the fold,
                // like negation: every body edge separates strata.
                let agg_delta = usize::from(c.agg.is_some());
                for l in &c.body {
                    let (q, delta) = match l {
                        Literal::Pos(a) => (id.get(a.predicate.as_ref()), agg_delta),
                        Literal::Neg(a) => (id.get(a.predicate.as_ref()), 1),
                        Literal::Cmp { .. } | Literal::Arith { .. } => continue,
                    };
                    let Some(&q) = q else { continue };
                    let need = stratum[q] + delta;
                    if stratum[h] < need {
                        if need > n {
                            let cycle = self
                                .dependency_graph()
                                .negative_cycle()
                                .unwrap_or_else(|| vec![c.head.predicate.to_string()]);
                            return Err(DatalogError::NotStratifiable { cycle });
                        }
                        stratum[h] = need;
                        changed = true;
                    }
                }
            }
            for &(q, h) in &algo_edges {
                let need = stratum[q] + 1;
                if stratum[h] < need {
                    if need > n {
                        let cycle = self
                            .dependency_graph()
                            .negative_cycle()
                            .unwrap_or_else(|| vec![preds[h].to_owned()]);
                        return Err(DatalogError::NotStratifiable { cycle });
                    }
                    stratum[h] = need;
                    changed = true;
                }
            }
        }

        let max = stratum.iter().copied().max().unwrap_or(0);
        let mut strata: Vec<Vec<String>> = vec![Vec::new(); max + 1];
        for (i, &s) in stratum.iter().enumerate() {
            strata[s].push(preds[i].to_owned());
        }
        let by_pred = preds
            .iter()
            .enumerate()
            .map(|(i, &p)| (p.to_owned(), stratum[i]))
            .collect();
        Ok(Stratification { strata, by_pred })
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in &self.clauses {
            writeln!(f, "{c}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Program({} clauses)", self.clauses.len())
    }
}

/// The predicate dependency graph of a program (see
/// [`Program::dependency_graph`]). Edges run from a body predicate to the
/// head predicate of the clause using it; an edge is *negative* when some
/// clause uses the body predicate under `not`.
#[derive(Clone, Debug)]
pub struct DepGraph {
    preds: Vec<String>,
    index: HashMap<String, usize>,
    /// `(from, to, negative)`, sorted and deduplicated.
    edges: Vec<(usize, usize, bool)>,
    /// The strongly connected component of each node (see
    /// [`DepGraph::sccs`]).
    comp: Vec<usize>,
    /// Per component: whether it sits on a cycle — more than one node,
    /// or a node with an edge to itself.
    recursive: Vec<bool>,
}

impl DepGraph {
    /// Build a dependency graph directly from nodes and edges, for
    /// analyses over non-Datalog rule systems (the MultiLog lattice-flow
    /// pass builds its Σ/Π predicate graph this way and reuses the SCC
    /// machinery). Edges are `(from, to, negative)` node indices;
    /// out-of-range edges are dropped.
    pub fn from_edges(nodes: Vec<String>, mut edges: Vec<(usize, usize, bool)>) -> DepGraph {
        let n = nodes.len();
        edges.retain(|&(q, h, _)| q < n && h < n);
        edges.sort_unstable();
        edges.dedup();
        let index = nodes
            .iter()
            .enumerate()
            .map(|(i, p)| (p.clone(), i))
            .collect();
        let comp = Self::sccs(n, &edges);
        let mut size = vec![0usize; comp.iter().max().map_or(0, |&c| c + 1)];
        for &c in &comp {
            size[c] += 1;
        }
        let mut recursive: Vec<bool> = size.into_iter().map(|s| s > 1).collect();
        for &(q, h, _) in &edges {
            recursive[comp[q]] |= q == h;
        }
        DepGraph {
            preds: nodes,
            index,
            edges,
            comp,
            recursive,
        }
    }

    /// The node index of a predicate.
    pub fn index_of(&self, predicate: &str) -> Option<usize> {
        self.index.get(predicate).copied()
    }

    /// Iterate over edges as `(from, to, negative)` predicate names.
    pub fn edges(&self) -> impl Iterator<Item = (&str, &str, bool)> {
        self.edges
            .iter()
            .map(|&(q, h, neg)| (self.preds[q].as_str(), self.preds[h].as_str(), neg))
    }

    /// The predicates transitively reachable from `seeds` by following
    /// edges *forward* (i.e. the predicates that depend on a seed),
    /// including the seeds themselves.
    pub fn dependents_of<'a>(&self, seeds: impl IntoIterator<Item = &'a str>) -> Vec<String> {
        let mut seen = vec![false; self.preds.len()];
        let mut stack: Vec<usize> = seeds.into_iter().filter_map(|s| self.index_of(s)).collect();
        for &s in &stack {
            seen[s] = true;
        }
        while let Some(q) = stack.pop() {
            for &(from, to, _) in &self.edges {
                if from == q && !seen[to] {
                    seen[to] = true;
                    stack.push(to);
                }
            }
        }
        let mut out: Vec<String> = seen
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s)
            .map(|(i, _)| self.preds[i].clone())
            .collect();
        out.sort_unstable();
        out
    }

    /// The strongly connected component of each of `n` nodes, numbered in
    /// dependency order (see [`DepGraph::condensation`]). Iterative
    /// Kosaraju — robust against deep recursion on generated programs.
    fn sccs(n: usize, edges: &[(usize, usize, bool)]) -> Vec<usize> {
        let mut fwd: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(q, h, _) in edges {
            fwd[q].push(h);
            rev[h].push(q);
        }
        // Pass 1: finish order via iterative DFS over the forward graph.
        let mut state = vec![0u8; n]; // 0 unvisited, 1 in-stack, 2 done
        let mut order = Vec::with_capacity(n);
        for root in 0..n {
            if state[root] != 0 {
                continue;
            }
            let mut stack = vec![(root, 0usize)];
            state[root] = 1;
            while let Some(&mut (v, ref mut next)) = stack.last_mut() {
                if *next < fwd[v].len() {
                    let w = fwd[v][*next];
                    *next += 1;
                    if state[w] == 0 {
                        state[w] = 1;
                        stack.push((w, 0));
                    }
                } else {
                    state[v] = 2;
                    order.push(v);
                    stack.pop();
                }
            }
        }
        // Pass 2: components over the reverse graph in reverse finish order.
        let mut comp = vec![usize::MAX; n];
        let mut c = 0;
        for &root in order.iter().rev() {
            if comp[root] != usize::MAX {
                continue;
            }
            let mut stack = vec![root];
            comp[root] = c;
            while let Some(v) = stack.pop() {
                for &w in &rev[v] {
                    if comp[w] == usize::MAX {
                        comp[w] = c;
                        stack.push(w);
                    }
                }
            }
            c += 1;
        }
        comp
    }

    /// The strongly connected components in **dependency order**: every
    /// edge either stays inside one component or runs from an earlier
    /// component to a later one, so a fixpoint that processes components
    /// in the returned order (iterating only within each component)
    /// visits every predicate's dependencies before the predicate
    /// itself. Each component is a sorted list of node indices.
    pub fn condensation(&self) -> Vec<Vec<usize>> {
        let mut out: Vec<Vec<usize>> = vec![Vec::new(); self.recursive.len()];
        for (node, &c) in self.comp.iter().enumerate() {
            out[c].push(node);
        }
        out
    }

    /// Whether `a` and `b` are in the same strongly connected component
    /// (i.e. mutually recursive). A predicate is *not* considered
    /// recursive with itself unless it actually sits on a cycle.
    pub fn same_scc(&self, a: &str, b: &str) -> bool {
        match (self.index_of(a), self.index_of(b)) {
            (Some(i), Some(j)) => self.comp[i] == self.comp[j] && self.recursive[self.comp[i]],
            _ => false,
        }
    }

    /// A witness that the program is not stratifiable: an ordered
    /// predicate list `p₀ → p₁ → … → pₙ` such that every consecutive edge
    /// (and the closing edge `pₙ → p₀`) is a dependency edge and at least
    /// one of them is negative. `None` when every negative edge crosses
    /// between distinct strongly connected components (the program is
    /// stratifiable).
    ///
    /// Deterministic: the lexicographically first negative in-component
    /// edge is chosen, and the closing path is a shortest path found by
    /// BFS over sorted adjacency.
    pub fn negative_cycle(&self) -> Option<Vec<String>> {
        let comp = &self.comp;
        // The negative edge (q -> h) inside one SCC with the smallest
        // (from-name, to-name); edges are already sorted by index, which
        // matches name order because `preds` is sorted.
        let &(q, h, _) = self
            .edges
            .iter()
            .find(|&&(q, h, neg)| neg && comp[q] == comp[h])?;
        // Shortest path h ~> q staying inside the component.
        let n = self.preds.len();
        let mut prev = vec![usize::MAX; n];
        let mut queue = std::collections::VecDeque::from([h]);
        let mut seen = vec![false; n];
        seen[h] = true;
        while let Some(v) = queue.pop_front() {
            if v == q {
                break;
            }
            for &(from, to, _) in &self.edges {
                if from == v && comp[to] == comp[h] && !seen[to] {
                    seen[to] = true;
                    prev[to] = v;
                    queue.push_back(to);
                }
            }
        }
        // Reconstruct h … q, then rotate so the cycle starts at h (the
        // head of the negative edge): [h, …, q] with the closing negative
        // edge q -> h implicit.
        let mut path = vec![q];
        let mut cur = q;
        while cur != h {
            cur = prev[cur];
            if cur == usize::MAX {
                // q unreachable from h inside the SCC — cannot happen for a
                // genuine SCC, but stay defensive for degenerate graphs.
                return Some(vec![self.preds[h].clone()]);
            }
            path.push(cur);
        }
        path.reverse(); // h … q
        Some(path.into_iter().map(|i| self.preds[i].clone()).collect())
    }
}

/// A stratification: predicates grouped into evaluation layers.
#[derive(Clone, Debug)]
pub struct Stratification {
    strata: Vec<Vec<String>>,
    by_pred: HashMap<String, usize>,
}

impl Stratification {
    /// The number of strata.
    pub fn len(&self) -> usize {
        self.strata.len()
    }

    /// Whether there are no strata (empty program).
    pub fn is_empty(&self) -> bool {
        self.strata.is_empty()
    }

    /// The predicates of stratum `i` (sorted).
    pub fn stratum(&self, i: usize) -> &[String] {
        &self.strata[i]
    }

    /// The stratum index of a predicate.
    pub fn stratum_of(&self, predicate: &str) -> Option<usize> {
        self.by_pred.get(predicate).copied()
    }

    /// Iterate over strata, lowest first.
    pub fn iter(&self) -> impl Iterator<Item = &[String]> {
        self.strata.iter().map(Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    #[test]
    fn arity_mismatch_detected() {
        let err = parse_program("p(a). p(a, b).").unwrap_err();
        assert!(matches!(err, DatalogError::ArityMismatch { .. }));
    }

    #[test]
    fn arity_mismatch_in_body() {
        let err = parse_program("p(a). q(X) :- p(X, X).").unwrap_err();
        assert!(matches!(err, DatalogError::ArityMismatch { .. }));
    }

    #[test]
    fn positive_recursion_single_stratum() {
        let p = parse_program(
            "edge(a, b). path(X, Y) :- edge(X, Y). path(X, Y) :- edge(X, Z), path(Z, Y).",
        )
        .unwrap();
        let s = p.stratify().unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.stratum_of("path"), Some(0));
    }

    #[test]
    fn negation_pushes_to_higher_stratum() {
        let p = parse_program(
            "node(a). node(b). edge(a, b).\
             unreachable(X) :- node(X), not reached(X).\
             reached(X) :- edge(a, X).",
        )
        .unwrap();
        let s = p.stratify().unwrap();
        let r = s.stratum_of("reached").unwrap();
        let u = s.stratum_of("unreachable").unwrap();
        assert!(u > r);
    }

    #[test]
    fn negative_recursion_rejected() {
        let err = parse_program("win(X) :- move(X, Y), not win(Y). move(a, b).")
            .unwrap()
            .stratify()
            .unwrap_err();
        assert!(matches!(err, DatalogError::NotStratifiable { .. }));
    }

    #[test]
    fn mutual_negative_recursion_rejected() {
        let err = parse_program("p(X) :- base(X), not q(X). q(X) :- base(X), not p(X). base(a).")
            .unwrap()
            .stratify()
            .unwrap_err();
        // The error carries the full witness cycle, not just one name.
        let DatalogError::NotStratifiable { cycle } = err else {
            panic!("expected NotStratifiable, got {err:?}");
        };
        assert!(
            cycle == ["p", "q"] || cycle == ["q", "p"],
            "full cycle expected: {cycle:?}"
        );
    }

    #[test]
    fn empty_program_stratifies() {
        let p = Program::new();
        let s = p.stratify().unwrap();
        assert_eq!(s.len(), 1); // one empty stratum
        assert!(s.stratum(0).is_empty());
    }

    #[test]
    fn predicates_sorted() {
        let p = parse_program("b(x). a(y). c(Z) :- a(Z).").unwrap();
        assert_eq!(p.predicates(), vec!["a", "b", "c"]);
        assert_eq!(p.arity("a"), Some(1));
        assert_eq!(p.arity("zz"), None);
    }

    #[test]
    fn algo_call_sits_above_its_input() {
        let p = parse_program("edge(a, b). reach(X, Y) :- @bfs(edge, X, Y).").unwrap();
        let s = p.stratify().unwrap();
        assert!(s.stratum_of("@bfs(edge)").unwrap() > s.stratum_of("edge").unwrap());
        assert!(s.stratum_of("reach").unwrap() >= s.stratum_of("@bfs(edge)").unwrap());
        let deps = p.dependencies_of(["reach"]);
        assert!(deps.contains("edge"), "algo input is a dependency");
        let graph = p.dependency_graph();
        assert!(graph
            .edges()
            .any(|(q, h, neg)| q == "edge" && h == "@bfs(edge)" && neg));
    }

    #[test]
    fn algo_input_cycle_rejected() {
        let p = parse_program(
            "edge(a, b). edge(X, Y) :- reach(X, Y). reach(X, Y) :- @bfs(edge, X, Y).",
        )
        .unwrap();
        assert!(matches!(
            p.stratify().unwrap_err(),
            DatalogError::NotStratifiable { .. }
        ));
    }

    #[test]
    fn aggregate_clause_sits_above_its_body() {
        let p =
            parse_program("p(a, 1). t(G, count(V)) :- p(G, V). q(X) :- t(X, N), N > 0.").unwrap();
        let s = p.stratify().unwrap();
        assert!(s.stratum_of("t").unwrap() > s.stratum_of("p").unwrap());
        let graph = p.dependency_graph();
        assert!(graph.edges().any(|(q, h, neg)| q == "p" && h == "t" && neg));
    }

    #[test]
    fn aggregation_through_recursion_rejected() {
        let p = parse_program("p(a, 1). t(G, count(V)) :- p(G, V), t(G, V).").unwrap();
        assert!(matches!(
            p.stratify().unwrap_err(),
            DatalogError::NotStratifiable { .. }
        ));
    }

    #[test]
    fn display_roundtrips_through_parser() {
        let src = "p(X) :- q(X), not r(X), X != a.\nq(a).\nq(b).\nr(b).\n";
        let p = parse_program(src).unwrap();
        let printed = p.to_string();
        let p2 = parse_program(&printed).unwrap();
        assert_eq!(p.len(), p2.len());
        assert_eq!(printed, p2.to_string());
    }
}
