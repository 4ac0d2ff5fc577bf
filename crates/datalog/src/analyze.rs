//! Layer-independent analysis kernels shared by the MultiLog lint
//! (ML0008 algorithm-operator calls, ML0111 unused-predicate, ML0112
//! singleton-variable) and the lattice-flow pass in `multilog-core`. Each caller reduces its clause
//! structure to predicate indices or variable occurrence lists and calls
//! the same fixpoint.

/// One clause abstracted to what the possibly-nonempty fixpoint needs:
/// the head predicate index and the positive body predicate indices that
/// must all be (possibly) nonempty for the clause to fire. Negated
/// literals and built-ins never block firing and are simply omitted.
#[derive(Clone, Debug)]
pub struct AbstractClause {
    /// The head predicate's index.
    pub head: usize,
    /// Indices of the positive body predicates.
    pub positive_body: Vec<usize>,
}

/// The possibly-nonempty fixpoint, starting from the predicates already
/// known nonempty: a predicate is possibly nonempty when it is seeded or
/// some clause for it has an all-possibly-nonempty positive body. A sound
/// over-approximation of "has at least one derivable tuple". Callers with
/// bulk fact data seed those heads directly and pass only genuine rules,
/// keeping the fixpoint proportional to the rule count rather than the
/// data volume.
#[must_use]
pub fn possibly_nonempty_from(mut nonempty: Vec<bool>, clauses: &[AbstractClause]) -> Vec<bool> {
    let predicates = nonempty.len();
    loop {
        let mut changed = false;
        for c in clauses {
            if c.head < predicates
                && !nonempty[c.head]
                && c.positive_body
                    .iter()
                    .all(|&p| p < predicates && nonempty[p])
            {
                nonempty[c.head] = true;
                changed = true;
            }
        }
        if !changed {
            return nonempty;
        }
    }
}

/// Transitive reachability over `nodes` many nodes from `seeds` along
/// `edges` (directed `from → to` index pairs) — the kernel of the
/// unused-predicate lint, which walks the dependency graph *backwards*
/// from the query seeds by passing reversed edges.
#[must_use]
pub fn reachable(
    nodes: usize,
    edges: &[(usize, usize)],
    seeds: impl IntoIterator<Item = usize>,
) -> Vec<bool> {
    let mut seen = vec![false; nodes];
    let mut stack: Vec<usize> = seeds.into_iter().filter(|&s| s < nodes).collect();
    for &s in &stack {
        seen[s] = true;
    }
    while let Some(v) = stack.pop() {
        for &(from, to) in edges {
            if from == v && to < nodes && !seen[to] {
                seen[to] = true;
                stack.push(to);
            }
        }
    }
    seen
}

/// The variables occurring exactly once in `occurrences` (one entry per
/// textual occurrence), excluding `_`-prefixed opt-outs, sorted. Callers
/// decide what one "source item" is — for MultiLog, a whole molecule
/// spanning several desugared clauses.
#[must_use]
pub fn singleton_variables<'a>(occurrences: impl IntoIterator<Item = &'a str>) -> Vec<&'a str> {
    let mut counts: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
    for v in occurrences {
        *counts.entry(v).or_insert(0) += 1;
    }
    let mut singles: Vec<&str> = counts
        .into_iter()
        .filter(|&(v, n)| n == 1 && !v.starts_with('_'))
        .map(|(v, _)| v)
        .collect();
    singles.sort_unstable();
    singles
}

/// The ML0008 operator-call check for `@name(input, ...)` with `args`
/// terms (the input relation plus the output terms): `None` when the
/// call names a registered operator at its arity, else the lint name
/// (`unknown-algo` or `algo-call-arity`) and the message.
#[must_use]
pub fn algo_call_problem(name: &str, args: usize) -> Option<(&'static str, String)> {
    let registry = crate::algo::registry();
    match registry.get(name) {
        None => Some((
            "unknown-algo",
            format!(
                "unknown algorithm operator `@{name}` (known: {})",
                registry.names().join(", ")
            ),
        )),
        Some(op) if args != op.arity() + 1 => Some((
            "algo-call-arity",
            format!(
                "`@{name}(...)` called with {} argument terms, but the operator takes {}",
                args.saturating_sub(1),
                op.arity()
            ),
        )),
        Some(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    #[test]
    fn unreachable_rule_flagged() {
        // p(X) :- ghost(X).  q(a).   — nodes p=0, ghost=1, q=2.
        let rules = [AbstractClause {
            head: 0,
            positive_body: vec![1],
        }];
        let nonempty = possibly_nonempty_from(vec![false, false, true], &rules);
        assert_eq!(nonempty, vec![false, false, true]);
        // Once ghost has a fact, the rule can fire.
        let nonempty = possibly_nonempty_from(vec![false, true, true], &rules);
        assert_eq!(nonempty, vec![true, true, true]);
    }

    #[test]
    fn singleton_variable_flagged_and_underscore_exempt() {
        assert_eq!(singleton_variables(["X", "X", "Lone"]), vec!["Lone"]);
        assert!(singleton_variables(["X", "X", "_Lone"]).is_empty());
    }

    #[test]
    fn unused_predicate_only_with_seeds() {
        // s depends on q; r stands alone — nodes q=0, r=1, s=2, with
        // reversed (head → body) edges as the lint passes them.
        let edges = [(2, 0)];
        assert_eq!(reachable(3, &edges, [2]), vec![true, false, true]);
        assert_eq!(reachable(3, &edges, []), vec![false; 3]);
    }

    #[test]
    fn negative_cycle_reported_with_witness() {
        let p = parse_program("p(X) :- base(X), not q(X). q(X) :- base(X), not p(X). base(a).")
            .unwrap();
        let cycle = p.dependency_graph().negative_cycle().unwrap();
        assert!(
            cycle == ["p", "q"] || cycle == ["q", "p"],
            "full cycle expected: {cycle:?}"
        );
    }

    #[test]
    fn unknown_algo_operator_flagged() {
        let (name, message) = algo_call_problem("frobnicate", 3).unwrap();
        assert_eq!(name, "unknown-algo");
        assert!(message.contains("@frobnicate"), "{message}");
        assert!(message.contains("bfs"), "{message}");
    }

    #[test]
    fn algo_call_arity_mismatch_flagged() {
        // `@bfs(edge, X)`: the input relation plus one output term.
        let (name, message) = algo_call_problem("bfs", 2).unwrap();
        assert_eq!(name, "algo-call-arity");
        assert!(message.contains("called with 1"), "{message}");
        // `@bfs(edge, X, Y)` is well-formed.
        assert_eq!(algo_call_problem("bfs", 3), None);
    }

    #[test]
    fn aggregation_through_recursion_flagged() {
        // An aggregate's body edges are stratum-separating, so folding
        // over its own head is a one-predicate negative cycle.
        let p =
            parse_program("part(a, b). part(b, c). total(P, count(S)) :- total(P, S), part(P, S).")
                .unwrap();
        let graph = p.dependency_graph();
        assert!(graph.same_scc("total", "total"));
        assert_eq!(graph.negative_cycle(), Some(vec!["total".to_owned()]));
        // Aggregation over a lower stratum is fine.
        let clean =
            parse_program("part(a, b). part(b, c). total(P, count(S)) :- part(P, S).").unwrap();
        let graph = clean.dependency_graph();
        assert!(!graph.same_scc("total", "total"));
        assert_eq!(graph.negative_cycle(), None);
    }

    #[test]
    fn algo_input_and_aggregate_body_are_not_unused() {
        // `edge` is consulted only through the `@bfs(edge, ...)` call;
        // `visit` only inside an aggregate body. Walking the dependency
        // graph backwards from the seeds reaches both.
        let p = parse_program(
            "edge(a, b). edge(b, c). reach(X, Y) :- @bfs(edge, X, Y). \
             visit(a, u1). visit(a, u2). hits(P, count(U)) :- visit(P, U).",
        )
        .unwrap();
        let graph = p.dependency_graph();
        let at = |pred| graph.index_of(pred).unwrap();
        let reversed: Vec<(usize, usize)> = graph
            .edges()
            .map(|(body, head, _)| (at(head), at(body)))
            .collect();
        let live = reachable(p.predicates().len(), &reversed, [at("reach"), at("hits")]);
        assert!(live[at("edge")] && live[at("visit")], "{live:?}");
    }
}
