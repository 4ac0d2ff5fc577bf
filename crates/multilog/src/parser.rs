//! Parser for the MultiLog concrete syntax.
//!
//! ```text
//! database := item*
//! item     := clause "." | "<-" body "."            (a query)
//! clause   := head ( "<-" body )?
//! head     := m-molecule | p-atom | l-atom | h-atom
//! body     := atom ("," atom)*
//! atom     := m-molecule ("<<" MODE)? | l-atom | h-atom | leq | p-atom
//! m-molecule := term "[" IDENT "(" term ":" field (";" field)* ")" "]"
//! field    := IDENT "-" term "->" term
//! l-atom   := "level" "(" term ")"
//! h-atom   := "order" "(" term "," term ")"
//! leq      := term "leq" term
//! p-atom   := IDENT ( "(" term ("," term)* ")" )?
//! term     := VARIABLE | IDENT | INTEGER | "null" | "_"
//! ```
//!
//! Identifiers starting lowercase are symbols; uppercase or `_`-prefixed
//! are variables; a bare `_` is a *don't-care* (§7) and desugars to a
//! fresh variable. `%` starts a line comment. Molecular heads desugar to
//! one clause per field; molecular body atoms desugar to conjunctions.

use multilog_datalog::{AggFunc, Aggregate};

use crate::ast::{shared_name, Atom, Clause, Goal, Head, MMolecule, PAtom, Span, Term};
use crate::db::MultiLogDb;
use crate::{MultiLogError, Result};

/// The raw output of the parser: clauses (spans attached) and queries
/// with their source spans, *before* any database-level validation.
///
/// The lint pass works on this form so it can report range-restriction
/// and admissibility problems as collected diagnostics instead of the
/// fail-fast errors [`MultiLogDb::new`] raises.
#[derive(Clone, Debug, Default)]
pub struct ParsedProgram {
    /// The clauses in source order, each carrying its span.
    pub clauses: Vec<Clause>,
    /// The queries (`<- …` items) in source order.
    pub queries: Vec<Goal>,
    /// The source span of each query, parallel to `queries`.
    pub query_spans: Vec<Span>,
}

/// Parse a database into its raw, unvalidated form (see
/// [`ParsedProgram`]). Only syntax errors are reported here.
pub fn parse_items(src: &str) -> Result<ParsedProgram> {
    let mut p = Parser::new(src)?;
    let mut out = ParsedProgram::default();
    while !p.at_end() {
        let span = p.span_here();
        if p.peek_is(&Tok::Arrow) {
            p.advance();
            let body = p.body()?;
            p.expect(&Tok::Dot, "`.`")?;
            out.queries.push(body);
            out.query_spans.push(span);
        } else {
            out.clauses.extend(p.clause()?);
        }
    }
    Ok(out)
}

/// Parse a full database (clauses and `<- …` queries), validating it
/// (Definition 5.1 partitioning plus the syntactic admissibility checks).
pub fn parse_database(src: &str) -> Result<MultiLogDb> {
    let items = parse_items(src)?;
    MultiLogDb::new(items.clauses, items.queries)
}

/// Parse one clause (molecular heads may yield several); must consume all
/// input.
pub fn parse_clause(src: &str) -> Result<Vec<Clause>> {
    let mut p = Parser::new(src)?;
    let cs = p.clause()?;
    p.expect_end()?;
    Ok(cs)
}

/// Parse a goal (conjunction of atoms, optionally ending with `.`).
pub fn parse_goal(src: &str) -> Result<Goal> {
    let mut p = Parser::new(src)?;
    if p.peek_is(&Tok::Arrow) {
        p.advance();
    }
    let mut g = p.body()?;
    if p.peek_is(&Tok::Dot) {
        p.advance();
    }
    p.expect_end()?;
    // Callers often keep goals (sessions, oracles); drop the growth slack.
    g.shrink_to_fit();
    Ok(g)
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    AlgoName(String), // `@bfs`, `@cc`, … (without the `@`)
    Var(String),
    Int(i64),
    Null,
    DontCare,
    LBracket,
    RBracket,
    LParen,
    RParen,
    Colon,
    Semi,
    Comma,
    Dot,
    Arrow,   // <- or :-
    Believe, // <<
    Dash,    // -
    RArrow,  // ->
    Leq,     // keyword `leq`
}

struct Parser {
    tokens: Vec<(Tok, usize, usize)>,
    pos: usize,
    fresh: usize,
}

impl Parser {
    fn new(src: &str) -> Result<Self> {
        Ok(Parser {
            tokens: lex(src)?,
            pos: 0,
            fresh: 0,
        })
    }

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|(t, _, _)| t)
    }

    fn peek_is(&self, t: &Tok) -> bool {
        self.peek() == Some(t)
    }

    fn peek2_is(&self, t: &Tok) -> bool {
        self.tokens.get(self.pos + 1).map(|(t, _, _)| t) == Some(t)
    }

    fn advance(&mut self) -> Option<Tok> {
        let t = self.tokens.get(self.pos).map(|(t, _, _)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, message: impl Into<String>) -> MultiLogError {
        let (line, column) = self
            .tokens
            .get(self.pos)
            .or_else(|| self.tokens.last())
            .map_or((1, 1), |&(_, l, c)| (l, c));
        MultiLogError::Parse {
            line,
            column,
            message: message.into(),
        }
    }

    fn expect(&mut self, t: &Tok, what: &str) -> Result<()> {
        if self.peek_is(t) {
            self.advance();
            Ok(())
        } else {
            Err(self.err(format!("expected {what}")))
        }
    }

    fn expect_end(&self) -> Result<()> {
        if self.at_end() {
            Ok(())
        } else {
            Err(self.err("expected end of input"))
        }
    }

    fn fresh_var(&mut self) -> Term {
        self.fresh += 1;
        Term::var(format!("_Dc{}", self.fresh))
    }

    /// The span of the next token (or of the last token at end of input).
    fn span_here(&self) -> Span {
        self.tokens
            .get(self.pos)
            .or_else(|| self.tokens.last())
            .map_or_else(Span::unknown, |&(_, l, c)| Span::new(l, c))
    }

    fn clause(&mut self) -> Result<Vec<Clause>> {
        let span = self.span_here();
        let (heads, agg) = self.head()?;
        let body = if self.peek_is(&Tok::Arrow) {
            self.advance();
            self.body()?
        } else {
            Vec::new()
        };
        self.expect(&Tok::Dot, "`.` at end of clause")?;
        Ok(heads
            .into_iter()
            .map(|head| {
                let mut c = Clause::new(head, body.clone()).with_span(span);
                if let Some(agg) = agg {
                    c = c.with_agg(agg);
                }
                c
            })
            .collect())
    }

    /// A head: returns several heads when molecular, plus the aggregate
    /// annotation when the head is an aggregate p-atom.
    fn head(&mut self) -> Result<(Vec<Head>, Option<Aggregate>)> {
        // level(…)/order(…) with the distinguished arities; otherwise fall
        // back to a p-atom of the same name.
        let start = self.pos;
        if let Some(la) = self.try_level_order()? {
            return Ok((
                vec![match la {
                    Atom::L(t) => Head::L(t),
                    Atom::H(l, h) => Head::H(l, h),
                    other => {
                        return Err(
                            self.err(format!("expected a level/order head, found `{other}`"))
                        )
                    }
                }],
                None,
            ));
        }
        self.pos = start;
        // m-molecule (term "[" …) or p-atom.
        if let Ok(mol) = self.molecule() {
            return Ok((mol.atoms().into_iter().map(Head::M).collect(), None));
        }
        self.pos = start;
        let (p, agg) = self.head_patom()?;
        Ok((vec![Head::P(p)], agg))
    }

    /// A p-atom head, where one argument may be an aggregate term
    /// `count(V)` / `sum(V)` / `min(V)` / `max(V)` — the aggregated
    /// variable is stored as a plain term and the function recorded in
    /// the returned [`Aggregate`].
    fn head_patom(&mut self) -> Result<(PAtom, Option<Aggregate>)> {
        let pred = match self.advance() {
            Some(Tok::Ident(p)) => p,
            _ => {
                self.pos = self.pos.saturating_sub(1);
                return Err(self.err("expected predicate name"));
            }
        };
        let mut args = Vec::new();
        let mut agg: Option<Aggregate> = None;
        if self.peek_is(&Tok::LParen) {
            self.advance();
            loop {
                let func = match self.peek() {
                    Some(Tok::Ident(n)) if self.peek2_is(&Tok::LParen) => AggFunc::from_name(n),
                    _ => None,
                };
                if let Some(func) = func {
                    self.advance(); // the function name
                    self.advance(); // `(`
                    if agg.is_some() {
                        return Err(self.err("at most one aggregate per head"));
                    }
                    let var = match self.advance() {
                        Some(Tok::Var(v)) => Term::var(v),
                        _ => {
                            return Err(
                                self.err(format!("`{func}(...)` takes a variable to aggregate"))
                            )
                        }
                    };
                    self.expect(&Tok::RParen, "`)` after aggregate variable")?;
                    agg = Some(Aggregate {
                        func,
                        position: args.len(),
                    });
                    args.push(var);
                } else {
                    args.push(self.term()?);
                }
                if self.peek_is(&Tok::Comma) {
                    self.advance();
                } else {
                    break;
                }
            }
            self.expect(&Tok::RParen, "`)`")?;
        }
        Ok((
            PAtom {
                pred: shared_name(&pred),
                args,
            },
            agg,
        ))
    }

    /// Attempt to parse `level(t)` or `order(l, h)`; `Ok(None)` when the
    /// lookahead does not match, leaving the position for the caller to
    /// reset on fallback.
    fn try_level_order(&mut self) -> Result<Option<Atom>> {
        let start = self.pos;
        let name = match self.peek() {
            Some(Tok::Ident(n))
                if (n == "level" || n == "order") && self.peek2_is(&Tok::LParen) =>
            {
                n.clone()
            }
            _ => return Ok(None),
        };
        self.advance();
        self.advance(); // `(`
        let first = match self.term() {
            Ok(t) => t,
            Err(_) => {
                self.pos = start;
                return Ok(None);
            }
        };
        if name == "level" {
            if self.peek_is(&Tok::RParen) {
                self.advance();
                return Ok(Some(Atom::L(first)));
            }
        } else if self.peek_is(&Tok::Comma) {
            self.advance();
            if let Ok(second) = self.term() {
                if self.peek_is(&Tok::RParen) {
                    self.advance();
                    return Ok(Some(Atom::H(first, second)));
                }
            }
        }
        // Wrong arity: not an l-/h-atom; let the caller re-parse as p-atom.
        self.pos = start;
        Ok(None)
    }

    fn body(&mut self) -> Result<Vec<Atom>> {
        let mut out = Vec::new();
        self.body_atom(&mut out)?;
        while self.peek_is(&Tok::Comma) {
            self.advance();
            self.body_atom(&mut out)?;
        }
        Ok(out)
    }

    fn body_atom(&mut self, out: &mut Vec<Atom>) -> Result<()> {
        // `@name(input, t1, …, tn)` — a native algorithm operator call,
        // carried as a p-atom whose predicate keeps the `@` prefix; the
        // reduction passes it through verbatim to the Datalog layer.
        if let Some(Tok::AlgoName(name)) = self.peek().cloned() {
            self.advance();
            self.expect(&Tok::LParen, "`(` after algorithm operator")?;
            let input = match self.advance() {
                Some(Tok::Ident(p)) => Term::sym(p),
                _ => return Err(self.err("expected an input predicate name (identifier)")),
            };
            let mut args = vec![input];
            while self.peek_is(&Tok::Comma) {
                self.advance();
                args.push(self.term()?);
            }
            self.expect(&Tok::RParen, "`)`")?;
            out.push(Atom::P(PAtom {
                pred: shared_name(&format!("@{name}")),
                args,
            }));
            return Ok(());
        }
        // level(…) / order(…)?
        let start = self.pos;
        if let Some(la) = self.try_level_order()? {
            out.push(la);
            return Ok(());
        }
        self.pos = start;
        // m-molecule, possibly believed?
        if let Ok(mol) = self.molecule() {
            if self.peek_is(&Tok::Believe) {
                self.advance();
                let mode = match self.advance() {
                    Some(Tok::Ident(m)) => m,
                    _ => return Err(self.err("expected belief mode after `<<`")),
                };
                for a in mol.atoms() {
                    out.push(Atom::B(a, shared_name(&mode)));
                }
            } else {
                for a in mol.atoms() {
                    out.push(Atom::M(a));
                }
            }
            return Ok(());
        }
        self.pos = start;
        // `term leq term`?
        if let Ok(l) = self.term() {
            if self.peek_is(&Tok::Leq) {
                self.advance();
                let h = self.term()?;
                out.push(Atom::Leq(l, h));
                return Ok(());
            }
        }
        self.pos = start;
        out.push(Atom::P(self.patom()?));
        Ok(())
    }

    fn molecule(&mut self) -> Result<MMolecule> {
        let level = self.term()?;
        self.expect(&Tok::LBracket, "`[`")?;
        let pred = match self.advance() {
            Some(Tok::Ident(p)) => p,
            _ => return Err(self.err("expected predicate name")),
        };
        self.expect(&Tok::LParen, "`(`")?;
        let key = self.term()?;
        self.expect(&Tok::Colon, "`:`")?;
        let mut fields = Vec::new();
        loop {
            let attr = match self.advance() {
                Some(Tok::Ident(a)) => a,
                _ => return Err(self.err("expected attribute name")),
            };
            self.expect(&Tok::Dash, "`-`")?;
            let class = self.term_or_dontcare()?;
            self.expect(&Tok::RArrow, "`->`")?;
            let value = self.term()?;
            fields.push((shared_name(&attr), class, value));
            if self.peek_is(&Tok::Semi) {
                self.advance();
            } else {
                break;
            }
        }
        self.expect(&Tok::RParen, "`)`")?;
        self.expect(&Tok::RBracket, "`]`")?;
        Ok(MMolecule {
            level,
            pred: shared_name(&pred),
            key,
            fields,
        })
    }

    fn patom(&mut self) -> Result<PAtom> {
        let pred = match self.advance() {
            Some(Tok::Ident(p)) => p,
            _ => {
                self.pos = self.pos.saturating_sub(1);
                return Err(self.err("expected predicate name"));
            }
        };
        let mut args = Vec::new();
        if self.peek_is(&Tok::LParen) {
            self.advance();
            args.push(self.term()?);
            while self.peek_is(&Tok::Comma) {
                self.advance();
                args.push(self.term()?);
            }
            self.expect(&Tok::RParen, "`)`")?;
        }
        Ok(PAtom {
            pred: shared_name(&pred),
            args,
        })
    }

    fn term(&mut self) -> Result<Term> {
        self.term_or_dontcare()
    }

    fn term_or_dontcare(&mut self) -> Result<Term> {
        match self.peek().cloned() {
            Some(Tok::Ident(s)) => {
                // An identifier followed by `[` or `(` is not a plain term
                // in contexts where we backtrack — but inside terms that is
                // the caller's concern; accept the symbol.
                self.advance();
                Ok(Term::sym(s))
            }
            Some(Tok::Var(v)) => {
                self.advance();
                Ok(Term::var(v))
            }
            Some(Tok::Int(i)) => {
                self.advance();
                Ok(Term::Int(i))
            }
            Some(Tok::Null) => {
                self.advance();
                Ok(Term::Null)
            }
            Some(Tok::DontCare) => {
                self.advance();
                Ok(self.fresh_var())
            }
            _ => Err(self.err("expected term")),
        }
    }
}

fn lex(src: &str) -> Result<Vec<(Tok, usize, usize)>> {
    let mut out = Vec::new();
    let mut it = src.chars().peekable();
    let (mut line, mut col) = (1usize, 1usize);
    macro_rules! bump {
        ($c:expr) => {
            if $c == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        };
    }
    let perr = |line: usize, column: usize, message: String| MultiLogError::Parse {
        line,
        column,
        message,
    };
    while let Some(&ch) = it.peek() {
        let (tl, tc) = (line, col);
        match ch {
            c if c.is_whitespace() => {
                it.next();
                bump!(c);
            }
            '%' => {
                for c in it.by_ref() {
                    bump!(c);
                    if c == '\n' {
                        break;
                    }
                }
            }
            '@' => {
                it.next();
                bump!('@');
                let mut text = String::new();
                while let Some(&d) = it.peek() {
                    if d.is_alphanumeric() || d == '_' {
                        text.push(d);
                        it.next();
                        bump!(d);
                    } else {
                        break;
                    }
                }
                if text.is_empty() || !text.starts_with(|c: char| c.is_lowercase()) {
                    return Err(perr(
                        tl,
                        tc,
                        "expected a lowercase algorithm operator name after `@`".into(),
                    ));
                }
                out.push((Tok::AlgoName(text), tl, tc));
            }
            '[' | ']' | '(' | ')' | ';' | ',' | '.' => {
                it.next();
                bump!(ch);
                let t = match ch {
                    '[' => Tok::LBracket,
                    ']' => Tok::RBracket,
                    '(' => Tok::LParen,
                    ')' => Tok::RParen,
                    ';' => Tok::Semi,
                    ',' => Tok::Comma,
                    _ => Tok::Dot,
                };
                out.push((t, tl, tc));
            }
            ':' => {
                it.next();
                bump!(':');
                if it.peek() == Some(&'-') {
                    it.next();
                    bump!('-');
                    out.push((Tok::Arrow, tl, tc));
                } else {
                    out.push((Tok::Colon, tl, tc));
                }
            }
            '<' => {
                it.next();
                bump!('<');
                match it.peek() {
                    Some('-') => {
                        it.next();
                        bump!('-');
                        out.push((Tok::Arrow, tl, tc));
                    }
                    Some('<') => {
                        it.next();
                        bump!('<');
                        out.push((Tok::Believe, tl, tc));
                    }
                    _ => return Err(perr(tl, tc, "expected `<-` or `<<`".into())),
                }
            }
            '-' => {
                it.next();
                bump!('-');
                if it.peek() == Some(&'>') {
                    it.next();
                    bump!('>');
                    out.push((Tok::RArrow, tl, tc));
                } else if it.peek().is_some_and(|c| c.is_ascii_digit()) {
                    let mut text = String::from("-");
                    while let Some(&d) = it.peek() {
                        if d.is_ascii_digit() {
                            text.push(d);
                            it.next();
                            bump!(d);
                        } else {
                            break;
                        }
                    }
                    let i: i64 = text
                        .parse()
                        .map_err(|_| perr(tl, tc, format!("bad integer {text}")))?;
                    out.push((Tok::Int(i), tl, tc));
                } else {
                    out.push((Tok::Dash, tl, tc));
                }
            }
            c if c.is_ascii_digit() => {
                let mut text = String::new();
                while let Some(&d) = it.peek() {
                    if d.is_ascii_digit() {
                        text.push(d);
                        it.next();
                        bump!(d);
                    } else {
                        break;
                    }
                }
                let i: i64 = text
                    .parse()
                    .map_err(|_| perr(tl, tc, format!("bad integer {text}")))?;
                out.push((Tok::Int(i), tl, tc));
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut text = String::new();
                while let Some(&d) = it.peek() {
                    if d.is_alphanumeric() || d == '_' {
                        text.push(d);
                        it.next();
                        bump!(d);
                    } else {
                        break;
                    }
                }
                let t = if text == "null" {
                    Tok::Null
                } else if text == "leq" {
                    Tok::Leq
                } else if text == "_" {
                    Tok::DontCare
                } else if text.starts_with(|c: char| c.is_uppercase() || c == '_') {
                    Tok::Var(text)
                } else {
                    Tok::Ident(text)
                };
                out.push((t, tl, tc));
            }
            other => return Err(perr(tl, tc, format!("unexpected character `{other}`"))),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_example_51_molecule() {
        // Example 5.1 of the paper (with `;` separators).
        let cs = parse_clause(
            "s[mission(avenger : starship -s-> avenger; objective -s-> shipping; \
             destination -s-> pluto)].",
        )
        .unwrap();
        assert_eq!(cs.len(), 3, "molecule desugars to one clause per field");
        assert!(cs.iter().all(|c| c.is_fact()));
        match &cs[1].head {
            Head::M(m) => {
                assert_eq!(m.attr.as_ref(), "objective");
                assert_eq!(m.value, Term::sym("shipping"));
            }
            other => panic!("unexpected head {other:?}"),
        }
    }

    #[test]
    fn parses_figure10_database() {
        let db = parse_database(
            r#"
            % Database D1 of Figure 10.
            level(u). level(c). level(s).
            order(u, c). order(c, s).
            u[p(k : a -u-> v)].
            c[p(k : a -c-> t)] <- q(j).
            s[p(k : a -u-> v)] <- c[p(k : a -c-> t)] << cau.
            q(j).
            <- c[p(k : a -u-> v)] << opt.
            "#,
        )
        .unwrap();
        assert_eq!(db.lambda().len(), 5);
        assert_eq!(db.sigma().len(), 3);
        assert_eq!(db.pi().len(), 1);
        assert_eq!(db.queries().len(), 1);
    }

    #[test]
    fn parses_batom_in_body() {
        let cs = parse_clause("s[p(k : a -u-> v)] <- c[p(k : a -c-> t)] << cau.").unwrap();
        assert_eq!(cs.len(), 1);
        assert!(matches!(cs[0].body[0], Atom::B(_, ref m) if m.as_ref() == "cau"));
    }

    #[test]
    fn parses_leq_constraint() {
        let g = parse_goal("u leq H, H leq s").unwrap();
        assert_eq!(g.len(), 2);
        assert!(matches!(g[0], Atom::Leq(_, _)));
    }

    #[test]
    fn dont_care_becomes_fresh_variable() {
        let g = parse_goal("c[mission(phantom : objective -_-> X)] << opt").unwrap();
        match &g[0] {
            Atom::B(m, _) => {
                assert!(m.class.is_var());
                assert_ne!(m.class, Term::var("X"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn molecular_body_atom_desugars() {
        let g = parse_goal("s[m(k : a -u-> v; b -u-> w)]").unwrap();
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn variable_level_and_class() {
        let cs = parse_clause("L[p(K : a -C-> V)] <- level(L), q(K, C, V).").unwrap();
        match &cs[0].head {
            Head::M(m) => {
                assert!(m.level.is_var());
                assert!(m.class.is_var());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn p_clause_named_level_with_args_is_latom_only_with_one_arg() {
        // level/1 and order/2 are distinguished; a 2-ary `level` is just a
        // p-atom.
        let db = parse_database("level(a, b).").unwrap();
        assert_eq!(db.pi().len(), 1);
        assert!(db.lambda().is_empty());
    }

    #[test]
    fn queries_accept_plain_atoms() {
        let db = parse_database("q(a). <- q(X).").unwrap();
        assert_eq!(db.queries().len(), 1);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_database("u[p(k a -u-> v)].").is_err());
        assert!(parse_database("u[p(k : a -u- v)].").is_err());
        assert!(parse_database("u[p(k : a -u-> v)]").is_err()); // missing dot
        assert!(parse_database("& nope.").is_err());
        assert!(parse_database("u[p(k : a -u-> v)] << .").is_err());
    }

    #[test]
    fn parses_algo_call_in_body() {
        let cs = parse_clause("reach(X, Y) <- @bfs(edge, X, Y).").unwrap();
        match &cs[0].body[0] {
            Atom::P(p) => {
                assert_eq!(p.pred.as_ref(), "@bfs");
                assert_eq!(p.args[0], Term::sym("edge"));
                assert_eq!(p.args.len(), 3);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(cs[0].uses_algo());
        assert_eq!(cs[0].to_string(), "reach(X, Y) <- @bfs(edge, X, Y).");
        assert_eq!(parse_clause(&cs[0].to_string()).unwrap(), cs);
    }

    #[test]
    fn parses_aggregate_head() {
        let cs = parse_clause("total(H, count(K)) <- vis(H, K).").unwrap();
        let agg = cs[0].agg.unwrap();
        assert_eq!(agg.func, AggFunc::Count);
        assert_eq!(agg.position, 1);
        assert_eq!(cs[0].to_string(), "total(H, count(K)) <- vis(H, K).");
        assert_eq!(parse_clause(&cs[0].to_string()).unwrap(), cs);
        for func in ["sum", "min", "max"] {
            let cs = parse_clause(&format!("t({func}(V)) <- p(V).")).unwrap();
            assert!(cs[0].agg.is_some(), "{func}");
        }
    }

    #[test]
    fn aggregate_names_stay_plain_symbols_elsewhere() {
        // `count` with no parens is an ordinary symbol or predicate.
        let cs = parse_clause("p(count) <- q(count).").unwrap();
        assert!(cs[0].agg.is_none());
        let cs = parse_clause("count(X) <- q(X).").unwrap();
        assert!(cs[0].agg.is_none());
    }

    #[test]
    fn rejects_malformed_algo_and_aggregates() {
        assert!(parse_clause("p(X) <- @bfs.").is_err());
        assert!(parse_clause("p(X) <- @bfs(X, Y).").is_err()); // input must be an identifier
        assert!(parse_database("p(X) <- @Bfs(edge, X, X).").is_err());
        assert!(parse_clause("t(count(K), sum(V)) <- p(K, V).").is_err());
        assert!(parse_clause("t(count(3)) <- p(X).").is_err());
        assert!(parse_clause("@bfs(edge, X, Y) <- p(X, Y).").is_err()); // no algo heads
    }

    #[test]
    fn negative_integers_lex() {
        let cs = parse_clause("q(-5).").unwrap();
        match &cs[0].head {
            Head::P(p) => assert_eq!(p.args[0], Term::Int(-5)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn roundtrip_display_parse() {
        let src = "s[p(k : a -u-> v)] <- c[p(k : a -c-> t)] << cau, q(j).";
        let cs = parse_clause(src).unwrap();
        let printed = cs[0].to_string();
        let cs2 = parse_clause(&printed).unwrap();
        assert_eq!(cs, cs2);
    }
}
