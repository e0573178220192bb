//! In-memory spans recorded by the benchmark around its calls into each
//! layer, the per-name self-time table derived from them, and a
//! Chrome-trace writer whose output Perfetto opens.
//!
//! A span's self time is its duration minus the part of its interval
//! that its child spans cover; overlapping children are merged first,
//! so time two children share is subtracted once.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use serde_json::{Map, Value};

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within one trace (never 0).
    pub id: u64,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u64,
    /// Layer-qualified name, e.g. `core.execute`.
    pub name: &'static str,
    /// Request id shared by every span of one request; 0 for none.
    pub req: u64,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. When off, [`Tracer::timed`] still measures but keeps
/// nothing, so the untraced run pays one clock read per call and no
/// allocation.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<u64>,
    next_id: u64,
}

impl Tracer {
    /// A tracer that records spans when `on`.
    #[must_use]
    pub fn new(on: bool) -> Self {
        Self {
            epoch: Instant::now(),
            on,
            spans: Vec::new(),
            open: Vec::new(),
            next_id: 1,
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off; spans already kept stay.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Nanoseconds since the tracer's epoch.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f`, returning its result and its wall time in µs. When the
    /// tracer is on, the call is also kept as a span named `name`, child
    /// of the innermost span open around it; spans `f` opens through the
    /// tracer it receives become this span's children.
    pub fn timed<R>(
        &mut self,
        name: &'static str,
        req: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> (R, f64) {
        if !self.on {
            let start = Instant::now();
            let r = f(self);
            return (r, start.elapsed().as_secs_f64() * 1e6);
        }
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.open.last().copied().unwrap_or(0);
        self.open.push(id);
        let start_ns = self.now_ns();
        let r = f(self);
        let end_ns = self.now_ns();
        self.open.pop();
        self.spans.push(Span {
            id,
            parent,
            name,
            req,
            start_ns,
            end_ns,
        });
        (r, (end_ns - start_ns) as f64 / 1e3)
    }

    /// Keeps a span whose interval was measured elsewhere (for example
    /// derived from a server's event log). Returns its id, or 0 when the
    /// tracer is off.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            req,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    /// Every span kept so far, in completion order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of `span`: its duration minus the union of its children's
/// intervals clipped to its own.
#[must_use]
pub fn self_time_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut cover: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    cover.sort_unstable();
    let mut covered = 0;
    let mut run: Option<(u64, u64)> = None;
    for (a, b) in cover {
        run = match run {
            Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
            Some((ra, rb)) => {
                covered += rb - ra;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ra, rb)) = run {
        covered += rb - ra;
    }
    span.dur_ns().saturating_sub(covered)
}

/// One row of the self-time table: every span of one name.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfRow {
    /// Span name.
    pub name: &'static str,
    /// Spans of this name.
    pub count: usize,
    /// Summed duration (ns).
    pub total_ns: u64,
    /// Summed self time (ns).
    pub self_ns: u64,
}

/// Per-name totals and self times, sorted by name.
#[must_use]
pub fn self_table(spans: &[Span]) -> Vec<SelfRow> {
    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push(s);
    }
    let mut rows: BTreeMap<&str, SelfRow> = BTreeMap::new();
    for s in spans {
        let own = self_time_ns(s, children.get(&s.id).map_or(&[][..], Vec::as_slice));
        let row = rows.entry(s.name).or_insert_with(|| SelfRow {
            name: s.name,
            count: 0,
            total_ns: 0,
            self_ns: 0,
        });
        row.count += 1;
        row.total_ns += s.dur_ns();
        row.self_ns += own;
    }
    rows.into_values().collect()
}

/// Renders the self-time table as aligned text.
#[must_use]
pub fn render_self_table(rows: &[SelfRow]) -> String {
    let mut out = format!(
        "{:<28} {:>9} {:>14} {:>14} {:>12}\n",
        "span", "count", "total_us", "self_us", "self_mean_us"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<28} {:>9} {:>14.1} {:>14.1} {:>12.3}\n",
            r.name,
            r.count,
            r.total_ns as f64 / 1e3,
            r.self_ns as f64 / 1e3,
            r.self_ns as f64 / 1e3 / r.count.max(1) as f64
        ));
    }
    out
}

/// Chrome-trace JSON (object form, `traceEvents` of complete `X`
/// events). Spans are packed onto as few tracks as keep every track
/// properly nested, which overlapping requests from a server need.
#[must_use]
pub fn chrome_json(spans: &[Span]) -> Value {
    let mut order: Vec<&Span> = spans.iter().collect();
    order.sort_by(|a, b| {
        a.start_ns
            .cmp(&b.start_ns)
            .then(b.end_ns.cmp(&a.end_ns))
            .then(a.id.cmp(&b.id))
    });
    // Each track is a stack of the intervals still open on it.
    let mut tracks: Vec<Vec<u64>> = Vec::new();
    let mut events = Vec::with_capacity(order.len());
    for s in order {
        let lane = tracks.iter_mut().position(|stack| {
            while stack.last().is_some_and(|&end| end <= s.start_ns) {
                stack.pop();
            }
            stack.last().is_none_or(|&end| s.end_ns <= end)
        });
        let lane = lane.unwrap_or_else(|| {
            tracks.push(Vec::new());
            tracks.len() - 1
        });
        tracks[lane].push(s.end_ns);
        let mut args = Map::new();
        args.insert("id", Value::Number(s.id as f64));
        args.insert("parent", Value::Number(s.parent as f64));
        args.insert("req", Value::Number(s.req as f64));
        let mut e = Map::new();
        e.insert("name", Value::String(s.name.to_string()));
        e.insert(
            "cat",
            Value::String(s.name.split('.').next().unwrap_or("bench").to_string()),
        );
        e.insert("ph", Value::String("X".to_string()));
        e.insert("ts", Value::Number(s.start_ns as f64 / 1e3));
        e.insert("dur", Value::Number(s.dur_ns() as f64 / 1e3));
        e.insert("pid", Value::Number(1.0));
        e.insert("tid", Value::Number(lane as f64 + 1.0));
        e.insert("args", Value::Object(args));
        events.push(Value::Object(e));
    }
    let mut root = Map::new();
    root.insert("traceEvents", Value::Array(events));
    root.insert("displayTimeUnit", Value::String("ns".to_string()));
    Value::Object(root)
}
