//! Hierarchical span profiler.
//!
//! A [`SpanProfiler`] attributes host wall-clock time, call counts and byte
//! volumes to a tree of named spans: the driver opens one span per dispatched
//! event (named after the event type) and components open nested spans around
//! their expensive phases (piggyback encode/decode, checkpoint transfer, log
//! append, recovery planning). The result answers "where do the events/sec
//! go" at per-event-type and per-phase granularity — the cost breakdown the
//! paper's analysis is built on.
//!
//! Two properties shape the design:
//!
//! * **Observation only.** A profiler never schedules events, never consumes
//!   randomness, and never feeds back into the simulation; enabling it
//!   cannot change a single byte of any deterministic output. A *disabled*
//!   profiler (the default) is a `None` and every operation is a branch and
//!   a return.
//! * **Deterministic aggregation.** A frozen [`SpanSnapshot`] keeps the
//!   deterministic dimensions (span paths, counts, bytes) strictly apart
//!   from the host-dependent wall-clock column, so artifacts can place the
//!   former in diffable sections and quarantine the latter under `timing`.
//!
//! The profiler is a cheap-clone handle (`Rc<RefCell<…>>`): the event-loop
//! driver and the model share clones, which is what lets the driver open the
//! per-event span while the model opens nested phase spans inside the same
//! tree. The handle is deliberately `!Send` — one profiler belongs to one
//! simulation, and cross-thread aggregation goes through snapshot merging.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

use crate::json::Json;

const ROOT: usize = 0;

#[derive(Debug)]
struct Node {
    name: &'static str,
    children: Vec<usize>,
    count: u64,
    bytes: u64,
    wall_ns: u64,
}

#[derive(Debug)]
struct Tree {
    nodes: Vec<Node>,
    /// Indices of currently open spans; `stack[0]` is the always-open root.
    stack: Vec<usize>,
}

impl Tree {
    fn new() -> Self {
        Tree {
            nodes: vec![Node {
                name: "",
                children: Vec::new(),
                count: 0,
                bytes: 0,
                wall_ns: 0,
            }],
            stack: vec![ROOT],
        }
    }

    /// Index of `parent`'s child named `name`, creating it if absent.
    fn child(&mut self, parent: usize, name: &'static str) -> usize {
        if let Some(&c) = self.nodes[parent]
            .children
            .iter()
            .find(|&&c| self.nodes[c].name == name)
        {
            return c;
        }
        let idx = self.nodes.len();
        self.nodes.push(Node {
            name,
            children: Vec::new(),
            count: 0,
            bytes: 0,
            wall_ns: 0,
        });
        self.nodes[parent].children.push(idx);
        idx
    }
}

/// Receipt for one opened span; hand it back to [`SpanProfiler::exit`].
///
/// Tokens are intentionally not `Copy`/`Clone`: each opened span is closed
/// exactly once, and spans close in LIFO order.
#[derive(Debug)]
pub struct SpanToken {
    idx: usize,
    start: Option<Instant>,
}

impl SpanToken {
    const NOOP: SpanToken = SpanToken {
        idx: usize::MAX,
        start: None,
    };
}

/// Cheap-clone handle to a span tree; disabled by default.
///
/// See the [module docs](self) for the design. All operations on a disabled
/// profiler are near-zero-cost no-ops, so instrumentation stays compiled in
/// unconditionally.
#[derive(Debug, Clone, Default)]
pub struct SpanProfiler(Option<Rc<RefCell<Tree>>>);

impl SpanProfiler {
    /// An enabled profiler with an empty span tree.
    pub fn enabled() -> Self {
        SpanProfiler(Some(Rc::new(RefCell::new(Tree::new()))))
    }

    /// A disabled profiler: every operation is a no-op.
    pub fn disabled() -> Self {
        SpanProfiler(None)
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Opens a span named `name` nested under the currently innermost open
    /// span, reading the host clock for its start time.
    pub fn enter(&self, name: &'static str) -> SpanToken {
        if self.0.is_none() {
            return SpanToken::NOOP;
        }
        self.enter_at(name, Instant::now())
    }

    /// Opens a span whose start time the caller already read.
    ///
    /// The event-loop driver uses this to chain consecutive event spans
    /// without gaps: the `Instant` that closed event *n* opens event *n*+1,
    /// so the per-event spans tile the loop's wall time exactly.
    pub fn enter_at(&self, name: &'static str, at: Instant) -> SpanToken {
        let Some(tree) = &self.0 else {
            return SpanToken::NOOP;
        };
        let mut t = tree.borrow_mut();
        let parent = *t.stack.last().expect("root span is always open");
        let idx = t.child(parent, name);
        t.nodes[idx].count += 1;
        t.stack.push(idx);
        SpanToken {
            idx,
            start: Some(at),
        }
    }

    /// Closes the innermost open span, reading the host clock for its end.
    pub fn exit(&self, tok: SpanToken) {
        if tok.start.is_some() {
            self.exit_at(tok, Instant::now());
        }
    }

    /// Closes a span at an end time the caller already read.
    pub fn exit_at(&self, tok: SpanToken, at: Instant) {
        let (Some(tree), Some(start)) = (&self.0, tok.start) else {
            return;
        };
        let mut t = tree.borrow_mut();
        let top = t.stack.pop().expect("exit without matching enter");
        debug_assert_eq!(top, tok.idx, "spans must close in LIFO order");
        t.nodes[top].wall_ns += at.duration_since(start).as_nanos() as u64;
    }

    /// Attributes `n` bytes to the innermost open span.
    pub fn add_bytes(&self, n: u64) {
        let Some(tree) = &self.0 else {
            return;
        };
        let mut t = tree.borrow_mut();
        let top = *t.stack.last().expect("root span is always open");
        t.nodes[top].bytes += n;
    }

    /// Opens a span closed automatically when the returned guard drops.
    pub fn scope(&self, name: &'static str) -> SpanScope {
        SpanScope {
            profiler: self.clone(),
            token: Some(self.enter(name)),
        }
    }

    /// Freezes the current tree into a flat, path-sorted snapshot.
    ///
    /// Open spans contribute their counts and bytes but only the wall time
    /// of already-closed entries; snapshot after the run completes.
    pub fn snapshot(&self) -> SpanSnapshot {
        let Some(tree) = &self.0 else {
            return SpanSnapshot::default();
        };
        let t = tree.borrow();
        let mut rows = Vec::with_capacity(t.nodes.len().saturating_sub(1));
        // Depth-first walk building ";"-joined paths.
        let mut pending: Vec<(usize, String)> = t.nodes[ROOT]
            .children
            .iter()
            .rev()
            .map(|&c| (c, t.nodes[c].name.to_string()))
            .collect();
        while let Some((idx, path)) = pending.pop() {
            let node = &t.nodes[idx];
            for &c in node.children.iter().rev() {
                pending.push((c, format!("{path};{}", t.nodes[c].name)));
            }
            rows.push(SpanRow {
                path,
                count: node.count,
                bytes: node.bytes,
                wall_ns: node.wall_ns,
            });
        }
        rows.sort_by(|a, b| a.path.cmp(&b.path));
        SpanSnapshot { rows }
    }
}

/// RAII guard for a span: closes it on drop.
#[derive(Debug)]
pub struct SpanScope {
    profiler: SpanProfiler,
    token: Option<SpanToken>,
}

impl SpanScope {
    /// Attributes `n` bytes to this (innermost open) span.
    pub fn add_bytes(&self, n: u64) {
        self.profiler.add_bytes(n);
    }
}

impl Drop for SpanScope {
    fn drop(&mut self) {
        if let Some(tok) = self.token.take() {
            self.profiler.exit(tok);
        }
    }
}

/// One aggregated span: its tree position and accumulated totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRow {
    /// `;`-joined path from the tree root, e.g. `"deliver;piggyback.decode"`.
    pub path: String,
    /// Times the span was entered.
    pub count: u64,
    /// Bytes attributed to the span.
    pub bytes: u64,
    /// Host wall-clock nanoseconds spent inside the span (including
    /// children). Host-dependent: artifacts must keep this column under a
    /// `timing` member, apart from the deterministic columns.
    pub wall_ns: u64,
}

/// A frozen span tree: flat rows sorted by path.
///
/// The flat form makes merging across runs and folded-stack export trivial,
/// and the path sort makes aggregation order-independent: merging snapshots
/// in any order yields identical rows.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Aggregated spans sorted by `path`.
    pub rows: Vec<SpanRow>,
}

impl SpanSnapshot {
    /// Looks up a row by its `;`-joined path.
    pub fn row(&self, path: &str) -> Option<&SpanRow> {
        self.rows
            .binary_search_by(|r| r.path.as_str().cmp(path))
            .ok()
            .map(|i| &self.rows[i])
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Adds `other`'s rows into this snapshot, summing matching paths and
    /// inserting new ones in order. Commutative and associative over the
    /// deterministic columns, so cross-run aggregation is order-independent.
    pub fn merge(&mut self, other: &SpanSnapshot) {
        for r in &other.rows {
            match self.rows.binary_search_by(|x| x.path.cmp(&r.path)) {
                Ok(i) => {
                    self.rows[i].count += r.count;
                    self.rows[i].bytes += r.bytes;
                    self.rows[i].wall_ns += r.wall_ns;
                }
                Err(i) => self.rows.insert(i, r.clone()),
            }
        }
    }

    /// Total wall time of the top-level spans (paths without `;`).
    ///
    /// With the driver's gap-free span chaining this sums to (almost
    /// exactly) the event loop's total wall time, which is the acceptance
    /// check `mck profile` reports as `coverage`.
    pub fn top_level_wall_ns(&self) -> u64 {
        self.rows
            .iter()
            .filter(|r| !r.path.contains(';'))
            .map(|r| r.wall_ns)
            .sum()
    }

    /// Folded-stack export (`path self_wall_ns` per line), directly
    /// consumable by flamegraph tooling. Each span's value is its *self*
    /// time: total wall minus the wall of its direct children, clamped at
    /// zero (clock jitter can make a child nominally outlast its parent).
    pub fn to_folded(&self) -> String {
        let mut self_ns: Vec<u64> = self.rows.iter().map(|r| r.wall_ns).collect();
        for (i, r) in self.rows.iter().enumerate() {
            if let Some(cut) = r.path.rfind(';') {
                let parent = &r.path[..cut];
                if let Ok(j) = self
                    .rows
                    .binary_search_by(|x| x.path.as_str().cmp(parent))
                {
                    self_ns[j] = self_ns[j].saturating_sub(self.rows[i].wall_ns);
                }
            }
        }
        let mut out = String::new();
        for (r, &ns) in self.rows.iter().zip(&self_ns) {
            writeln!(out, "{} {}", r.path, ns).expect("string write");
        }
        out
    }

    /// The deterministic columns (path, count, bytes) as a JSON array.
    /// Identical across same-seed runs regardless of host speed.
    pub fn deterministic_json(&self) -> Json {
        Json::Arr(
            self.rows
                .iter()
                .map(|r| {
                    Json::Obj(vec![
                        ("path".into(), Json::str(&r.path)),
                        ("count".into(), Json::uint(r.count)),
                        ("bytes".into(), Json::uint(r.bytes)),
                    ])
                })
                .collect(),
        )
    }

    /// The host-dependent wall-clock column as a JSON array; artifacts must
    /// place this under a `timing` member.
    pub fn timing_json(&self) -> Json {
        Json::Arr(
            self.rows
                .iter()
                .map(|r| {
                    Json::Obj(vec![
                        ("path".into(), Json::str(&r.path)),
                        ("wall_ns".into(), Json::uint(r.wall_ns)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_is_noop() {
        let p = SpanProfiler::disabled();
        assert!(!p.is_enabled());
        let tok = p.enter("a");
        p.add_bytes(100);
        p.exit(tok);
        drop(p.scope("b"));
        assert!(p.snapshot().is_empty());
    }

    #[test]
    fn nesting_builds_paths_and_counts() {
        let p = SpanProfiler::enabled();
        for _ in 0..3 {
            let ev = p.enter("deliver");
            {
                let s = p.scope("piggyback.decode");
                s.add_bytes(4);
            }
            p.exit(ev);
        }
        let mob = p.enter("mobility");
        p.exit(mob);
        let snap = p.snapshot();
        let paths: Vec<&str> = snap.rows.iter().map(|r| r.path.as_str()).collect();
        assert_eq!(paths, vec!["deliver", "deliver;piggyback.decode", "mobility"]);
        assert_eq!(snap.row("deliver").unwrap().count, 3);
        assert_eq!(snap.row("deliver;piggyback.decode").unwrap().bytes, 12);
        assert_eq!(snap.row("mobility").unwrap().count, 1);
        assert!(snap.row("nope").is_none());
    }

    #[test]
    fn bytes_attach_to_innermost_open_span() {
        let p = SpanProfiler::enabled();
        let outer = p.enter("outer");
        p.add_bytes(1);
        let inner = p.enter("inner");
        p.add_bytes(10);
        p.exit(inner);
        p.add_bytes(2);
        p.exit(outer);
        let snap = p.snapshot();
        assert_eq!(snap.row("outer").unwrap().bytes, 3);
        assert_eq!(snap.row("outer;inner").unwrap().bytes, 10);
    }

    #[test]
    fn clones_share_one_tree() {
        let p = SpanProfiler::enabled();
        let q = p.clone();
        let tok = p.enter("event");
        let nested = q.scope("phase"); // opens under "event" via the clone
        drop(nested);
        p.exit(tok);
        let snap = q.snapshot();
        assert_eq!(snap.row("event;phase").unwrap().count, 1);
    }

    #[test]
    fn merge_is_order_independent_on_deterministic_columns() {
        let mk = |names: &[&'static str]| {
            let p = SpanProfiler::enabled();
            for &n in names {
                let t = p.enter(n);
                p.add_bytes(n.len() as u64);
                p.exit(t);
            }
            p.snapshot()
        };
        let a = mk(&["x", "y", "x"]);
        let b = mk(&["y", "z"]);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        let strip = |s: &SpanSnapshot| {
            s.rows
                .iter()
                .map(|r| (r.path.clone(), r.count, r.bytes))
                .collect::<Vec<_>>()
        };
        assert_eq!(strip(&ab), strip(&ba));
        assert_eq!(ab.row("x").unwrap().count, 2);
        assert_eq!(ab.row("y").unwrap().count, 2);
        assert_eq!(ab.row("z").unwrap().count, 1);
    }

    #[test]
    fn folded_output_uses_self_time() {
        let snap = SpanSnapshot {
            rows: vec![
                SpanRow {
                    path: "ev".into(),
                    count: 1,
                    bytes: 0,
                    wall_ns: 100,
                },
                SpanRow {
                    path: "ev;sub".into(),
                    count: 1,
                    bytes: 0,
                    wall_ns: 30,
                },
            ],
        };
        let folded = snap.to_folded();
        assert_eq!(folded, "ev 70\nev;sub 30\n");
    }

    #[test]
    fn top_level_wall_ignores_nested_rows() {
        let snap = SpanSnapshot {
            rows: vec![
                SpanRow {
                    path: "a".into(),
                    count: 1,
                    bytes: 0,
                    wall_ns: 5,
                },
                SpanRow {
                    path: "a;b".into(),
                    count: 1,
                    bytes: 0,
                    wall_ns: 4,
                },
                SpanRow {
                    path: "c".into(),
                    count: 1,
                    bytes: 0,
                    wall_ns: 7,
                },
            ],
        };
        assert_eq!(snap.top_level_wall_ns(), 12);
    }

    #[test]
    fn deterministic_json_has_no_wall_clock() {
        let p = SpanProfiler::enabled();
        let t = p.enter("ev");
        p.exit(t);
        let det = p.snapshot().deterministic_json().to_compact();
        assert!(det.contains("\"path\""));
        assert!(!det.contains("wall_ns"));
        let timing = p.snapshot().timing_json().to_compact();
        assert!(timing.contains("wall_ns"));
    }
}
