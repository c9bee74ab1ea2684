//! In-memory span recorder for the traced run.
//!
//! Every layer call the benchmark makes is wrapped in a [`span`] guard:
//! name, start, end, parent span and a request id (the burst or loop round
//! the call served). The benchmark is single-threaded, so spans nest
//! strictly and one thread-local stack is enough: when a span closes, its
//! duration is charged to its parent's child time, and its *self* time
//! (duration minus the time its children cover) is added to its name's
//! aggregate. Closed spans are kept in memory, up to [`SPAN_CAP`], and
//! written out by [`dump`] when the run ends.
//!
//! A span can also carry an item count (packets, frames) recorded at the
//! same boundary, so per-item times divide traced time by traced items.
//!
//! With tracing off, [`span`] returns an inert guard: one thread-local
//! flag read per call, no clock read. [`set_on`] pauses and resumes
//! recording between ops, so traced and untraced slices can alternate.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept for the dump; aggregates keep counting past it.
pub const SPAN_CAP: usize = 1 << 18;

/// One closed span, times in ns since the recorder started.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    /// Sequential id (1-based; 0 means "no parent").
    pub id: u32,
    /// Id of the enclosing span, 0 for a root span.
    pub parent: u32,
    /// Layer call name, e.g. `border.egress`.
    pub name: &'static str,
    /// Burst or loop round the call served.
    pub req: u64,
    /// Start, ns since the recorder was enabled.
    pub start_ns: u64,
    /// End, ns since the recorder was enabled.
    pub end_ns: u64,
}

/// Per-name totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    /// Spans closed under this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times (duration minus child spans).
    pub self_ns: u64,
    /// Items (packets, frames) the spans handled.
    pub items: u64,
}

struct Open {
    id: u32,
    name: &'static str,
    req: u64,
    start_ns: u64,
    child_ns: u64,
    items: u64,
}

struct Recorder {
    enabled: bool,
    epoch: Instant,
    next_id: u32,
    stack: Vec<Open>,
    spans: Vec<SpanRec>,
    dropped: u64,
    aggs: BTreeMap<&'static str, Agg>,
    root_ns: u64,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            enabled: false,
            epoch: Instant::now(),
            next_id: 1,
            stack: Vec::new(),
            spans: Vec::new(),
            dropped: 0,
            aggs: BTreeMap::new(),
            root_ns: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::new());
}

/// Starts recording from a clean slate.
pub fn start() {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        *r = Recorder::new();
        r.enabled = true;
    });
}

/// Pauses (`false`) or resumes (`true`) recording, keeping what was
/// recorded. Call only between ops, with no span open.
pub fn set_on(on: bool) {
    REC.with(|r| r.borrow_mut().enabled = on);
}

/// Open span guard; closes the span when dropped.
#[must_use = "a span measures until the guard is dropped"]
pub struct Span {
    active: bool,
}

/// Opens a span named `name` for request `req` (inert when tracing is off).
pub fn span(name: &'static str, req: u64) -> Span {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return Span { active: false };
        }
        let id = r.next_id;
        r.next_id = r.next_id.wrapping_add(1);
        let start_ns = r.now_ns();
        r.stack.push(Open {
            id,
            name,
            req,
            start_ns,
            child_ns: 0,
            items: 0,
        });
        Span { active: true }
    })
}

impl Span {
    /// `true` while tracing recorded this span.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Records that this span handled `n` items. Call while this span is
    /// the innermost open one.
    pub fn items(&self, n: u64) {
        if !self.active {
            return;
        }
        REC.with(|r| {
            if let Some(open) = r.borrow_mut().stack.last_mut() {
                open.items += n;
            }
        });
    }
}

/// Opens a span under the request id of the enclosing span (for calls
/// made from inside the program, which cannot name the request).
pub fn nested(name: &'static str) -> Span {
    let req = REC.with(|r| r.borrow().stack.last().map_or(0, |o| o.req));
    span(name, req)
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let end_ns = r.now_ns();
            let Some(open) = r.stack.pop() else {
                return;
            };
            let dur = end_ns.saturating_sub(open.start_ns);
            let parent = match r.stack.last_mut() {
                Some(p) => {
                    p.child_ns += dur;
                    p.id
                }
                None => 0,
            };
            if parent == 0 {
                r.root_ns += dur;
            }
            let agg = r.aggs.entry(open.name).or_default();
            agg.count += 1;
            agg.total_ns += dur;
            agg.self_ns += dur.saturating_sub(open.child_ns);
            agg.items += open.items;
            if r.spans.len() < SPAN_CAP {
                r.spans.push(SpanRec {
                    id: open.id,
                    parent,
                    name: open.name,
                    req: open.req,
                    start_ns: open.start_ns,
                    end_ns,
                });
            } else {
                r.dropped += 1;
            }
        });
    }
}

/// Per-name aggregates recorded since [`enable`].
#[must_use]
pub fn aggregates() -> BTreeMap<&'static str, Agg> {
    REC.with(|r| r.borrow().aggs.clone())
}

/// Aggregate of one span name (zero if it never closed).
#[must_use]
pub fn agg(name: &str) -> Agg {
    REC.with(|r| r.borrow().aggs.get(name).copied().unwrap_or_default())
}

/// Total duration of root spans: the time some layer call was running.
#[must_use]
pub fn root_ns() -> u64 {
    REC.with(|r| r.borrow().root_ns)
}

/// Writes the kept spans as tab-separated lines to `path`, under a header
/// naming the run. Returns the number of spans written.
pub fn dump(path: &std::path::Path, header: &str) -> std::io::Result<usize> {
    REC.with(|r| {
        let r = r.borrow();
        let mut out = String::with_capacity(64 * r.spans.len() + 256);
        let _ = writeln!(out, "# {header}");
        let _ = writeln!(
            out,
            "# spans kept {}, dropped past cap {}",
            r.spans.len(),
            r.dropped
        );
        out.push_str("id\tparent\tname\treq\tstart_ns\tend_ns\n");
        for s in &r.spans {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.name, s.req, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)?;
        Ok(r.spans.len())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < u128::from(us) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children_and_roots_cover_everything() {
        start();
        {
            let _outer = span("outer", 1);
            busy(200);
            {
                let inner = span("inner", 1);
                busy(300);
                inner.items(4);
            }
        }
        set_on(false);
        let outer = agg("outer");
        let inner = agg("inner");
        assert_eq!((outer.count, inner.count), (1, 1));
        assert_eq!(outer.total_ns, outer.self_ns + inner.total_ns);
        assert_eq!(inner.self_ns, inner.total_ns);
        assert_eq!((outer.items, inner.items), (0, 4));
        assert_eq!(root_ns(), outer.total_ns);
        assert!(inner.total_ns >= 300_000);
        let spans = REC.with(|r| r.borrow().spans.clone());
        assert_eq!(spans.len(), 2);
        let (i, o) = (spans[0], spans[1]);
        assert_eq!(i.parent, o.id);
        assert_eq!(o.parent, 0);
    }

    #[test]
    fn paused_records_nothing_and_resumes() {
        start();
        set_on(false);
        {
            let _s = span("ghost", 0);
        }
        assert_eq!(agg("ghost"), Agg::default());
        set_on(true);
        {
            let _s = span("ghost", 0);
        }
        set_on(false);
        assert_eq!(agg("ghost").count, 1);
    }
}
