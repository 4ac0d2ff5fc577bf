//! Spans around the public calls, for the traced run.
//!
//! A span holds its name (the per-layer metric prefix, e.g.
//! `query.solve`), its start and end in ns from the tracer's clock, its
//! parent span, and the op id shared by every span of one read, commit,
//! goal or run. Spans live in a preallocated `Vec` and are written out
//! only when the run ends. With tracing off every call is a no-op, so the
//! untraced run measures the engine alone.

use std::fmt::Write as _;
use std::time::Instant;

/// Parent of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer metric prefix (`query.solve`) or op kind (`op.read`).
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Op id shared by all spans of one operation.
    pub op: u32,
}

impl Span {
    /// Duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    clock: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    ops: u32,
}

/// Handle returned by [`Tracer::enter`], closed by [`Tracer::exit`].
#[derive(Clone, Copy, Debug)]
#[must_use = "a span must be closed with Tracer::exit"]
pub struct SpanId(u32);

impl Tracer {
    /// A tracer; when `enabled` it preallocates room for `capacity` spans.
    pub fn new(enabled: bool, capacity: usize) -> Self {
        Tracer {
            enabled,
            clock: Instant::now(),
            spans: Vec::with_capacity(if enabled { capacity } else { 0 }),
            open: Vec::new(),
            ops: 0,
        }
    }

    /// Pause or resume recording (warm-up ops are not traced). Must not be
    /// called while a span is open.
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.open.is_empty(), "toggled inside a span");
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.clock.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` as a child of the innermost open span; a
    /// span opened with none open starts a new op.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(NO_PARENT);
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let op = if parent == NO_PARENT {
            self.ops += 1;
            self.ops
        } else {
            self.spans[parent as usize].op
        };
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            op,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Close the span `id` (the innermost open one).
    pub fn exit(&mut self, id: SpanId) {
        if id.0 == NO_PARENT {
            return;
        }
        let end = self.now_ns();
        debug_assert_eq!(self.open.last(), Some(&id.0), "spans close innermost first");
        self.open.pop();
        self.spans[id.0 as usize].end_ns = end;
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Record children of the innermost open span from durations a call
    /// reported about itself (e.g. the per-level `wall_ms` of a commit):
    /// laid end to end from that span's start, clipped to `now`.
    pub fn reported_children(&mut self, name: &'static str, durations_ns: &[u64]) {
        let Some(&parent) = self.open.last() else {
            return;
        };
        let (mut at, op) = {
            let p = &self.spans[parent as usize];
            (p.start_ns, p.op)
        };
        let now = self.now_ns();
        for &d in durations_ns {
            let end = (at + d).min(now);
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: end,
                parent,
                op,
            });
            at = end;
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_owned()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"op\": {}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.op,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push(']');
        out
    }
}

/// What recording one span costs, in ns: the median over a few batches
/// of entering and exiting spans on a throwaway tracer. The traced run's
/// overhead is this times the spans it recorded.
pub fn span_cost_ns() -> f64 {
    const BATCH: usize = 10_000;
    let mut per_span: Vec<f64> = (0..5)
        .map(|_| {
            let mut t = Tracer::new(true, 2 * BATCH);
            let start = Instant::now();
            for _ in 0..BATCH {
                let op = t.enter("op.calibrate");
                let id = t.enter("bench.calibrate");
                t.exit(id);
                t.exit(op);
            }
            std::hint::black_box(t.spans.len());
            start.elapsed().as_nanos() as f64 / (2 * BATCH) as f64
        })
        .collect();
    per_span.sort_by(f64::total_cmp);
    per_span[per_span.len() / 2]
}

/// Self time of every span: its duration minus the part of its interval
/// its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}
