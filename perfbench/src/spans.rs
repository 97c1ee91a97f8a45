//! In-memory spans around the benchmark's calls into each layer.
//!
//! The benchmark measures the crates from outside: a span wraps one
//! public call (or one loop of identical bulk calls, with `count` set).
//! Each thread records into its own [`Tracer`]; the tracers are merged
//! and written out once the run ends, so recording costs one clock read
//! and one push per boundary.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

/// Marks a span that belongs to no request.
pub const NO_REQ: u64 = u64::MAX;

/// One closed span. Ids are unique across tracers (`thread << 32 | seq`);
/// `parent` is 0 for a root span.
#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub count: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span recorder. A disabled tracer records nothing, so
/// the same code serves plain and traced runs.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    thread: u64,
    seq: u64,
    stack: Vec<(u64, &'static str, u64, u64, u64)>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, t0: Instant, thread: u64) -> Tracer {
        Tracer {
            enabled,
            t0,
            thread,
            seq: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A tracer for another thread, sharing this one's clock origin.
    pub fn fork(&self, thread: u64) -> Tracer {
        Tracer::new(self.enabled, self.t0, thread)
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the clock origin to `t`.
    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    fn next_id(&mut self) -> u64 {
        self.seq += 1;
        self.thread << 32 | self.seq
    }

    fn parent(&self) -> u64 {
        self.stack.last().map_or(0, |s| s.0)
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, req: u64) {
        self.open_n(name, req, 1);
    }

    /// Opens a span covering `count` identical calls.
    pub fn open_n(&mut self, name: &'static str, req: u64, count: u64) {
        if !self.enabled {
            return;
        }
        let id = self.next_id();
        let start = self.now_ns();
        self.stack.push((id, name, req, start, count));
    }

    /// Closes the innermost open span and returns its duration in ns.
    pub fn close(&mut self) -> u64 {
        if !self.enabled {
            return 0;
        }
        let end = self.now_ns();
        let (id, name, req, start, count) = self.stack.pop().expect("close without open");
        let parent = self.parent();
        self.spans.push(Span {
            name,
            id,
            parent,
            req,
            start_ns: start,
            end_ns: end,
            count,
        });
        end - start
    }

    /// Records a span whose ends were measured by the caller.
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let id = self.next_id();
        let parent = self.parent();
        let (start_ns, end_ns) = (self.ns_at(start), self.ns_at(end));
        self.spans.push(Span {
            name,
            id,
            parent,
            req,
            start_ns,
            end_ns: end_ns.max(start_ns),
            count: 1,
        });
    }

    /// Moves another tracer's spans into this one.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }
}

/// Per-name totals: calls, total and self time. A span's self time is
/// its duration minus its children's (children of one span never
/// overlap: they run on the span's own thread).
pub fn summary(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        let children = child_ns.get(&s.id).copied().unwrap_or(0);
        e.0 += s.count;
        e.1 += s.dur_ns();
        e.2 += s.dur_ns().saturating_sub(children);
    }
    out
}

/// Writes every span as one JSON line to `path` and returns the
/// human-readable self-time table.
pub fn write(spans: &[Span], path: &std::path::Path) -> std::io::Result<String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let req = if s.req == NO_REQ {
            "null".to_string()
        } else {
            s.req.to_string()
        };
        writeln!(
            w,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"req\":{},\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
            s.name, s.id, s.parent, req, s.start_ns, s.end_ns, s.count
        )?;
    }
    w.flush()?;
    let mut table = format!(
        "{:<40} {:>10} {:>12} {:>12}\n",
        "span", "calls", "total_ms", "self_ms"
    );
    for (name, (calls, total, own)) in summary(spans) {
        let _ = writeln!(
            table,
            "{name:<40} {calls:>10} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    Ok(table)
}
