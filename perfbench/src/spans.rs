//! The benchmark's own span recorder.
//!
//! Spans are opened around calls into the program's public functions, never
//! inside the program. Each records its name, start, end, parent and the
//! request it belongs to. Spans stay in memory until the run ends, when
//! [`to_json_lines`] writes them out. Recording is off until [`set_armed`]
//! turns it on, so an untraced run pays one relaxed atomic load per call site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the run.
    pub id: u32,
    /// The span open on the same thread when this one started.
    pub parent: Option<u32>,
    /// The request (op call) this span serves.
    pub request: u64,
    /// Layer name, e.g. `engine.embed`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Recorder {
    epoch: Instant,
    next_id: AtomicU32,
    closed: Mutex<Vec<Span>>,
}

static ARMED: AtomicBool = AtomicBool::new(false);
static RECORDER: OnceLock<Recorder> = OnceLock::new();

thread_local! {
    /// Open spans on this thread: (id, request).
    static STACK: RefCell<Vec<(u32, u64)>> = const { RefCell::new(Vec::new()) };
}

fn recorder() -> &'static Recorder {
    RECORDER.get_or_init(|| Recorder {
        epoch: Instant::now(),
        next_id: AtomicU32::new(0),
        closed: Mutex::new(Vec::new()),
    })
}

/// Start or stop recording spans (a traced run interleaves plain calls).
pub fn set_armed(on: bool) {
    recorder();
    ARMED.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// An open span; closes on drop. Inert when recording is off.
#[must_use = "a span closes when its guard drops"]
pub struct Guard(Option<Open>);

struct Open {
    id: u32,
    parent: Option<u32>,
    request: u64,
    name: &'static str,
    start: Instant,
}

/// Open a span that starts request `request`, whatever is open on this
/// thread (a root when nothing is).
pub fn root(name: &'static str, request: u64) -> Guard {
    open(name, Some(request))
}

/// Open a child of the span open on this thread, in its request.
pub fn enter(name: &'static str) -> Guard {
    open(name, None)
}

fn open(name: &'static str, request: Option<u64>) -> Guard {
    if !armed() {
        return Guard(None);
    }
    let rec = recorder();
    let id = rec.next_id.fetch_add(1, Ordering::Relaxed);
    let (parent, request) = STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let top = stack.last().copied();
        let request = request.or(top.map(|t| t.1)).unwrap_or(u64::MAX);
        stack.push((id, request));
        (top.map(|t| t.0), request)
    });
    Guard(Some(Open {
        id,
        parent,
        request,
        name,
        start: Instant::now(),
    }))
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(open) = self.0.take() else {
            return;
        };
        let end = Instant::now();
        let rec = recorder();
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|e| e.0 == open.id) {
                stack.truncate(pos);
            }
        });
        let ns = |t: Instant| t.saturating_duration_since(rec.epoch).as_nanos() as u64;
        rec.closed.lock().expect("span list").push(Span {
            id: open.id,
            parent: open.parent,
            request: open.request,
            name: open.name,
            start_ns: ns(open.start),
            end_ns: ns(end),
        });
    }
}

/// Every span closed so far, in closing order.
pub fn closed() -> Vec<Span> {
    match RECORDER.get() {
        Some(rec) => rec.closed.lock().expect("span list").clone(),
        None => Vec::new(),
    }
}

/// Self time of every span, by id: its duration minus the part of its
/// interval that its direct children cover. Children that overlap each
/// other (parallel workers under one parent) are counted once, and a child
/// running past its parent's end is clipped to the parent.
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |iv| covered_ns(iv, s.start_ns, s.end_ns));
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Self time summed per span name.
pub fn self_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let selfs = self_times(spans);
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0) += selfs[&s.id];
    }
    out
}

/// The program's own `wl-obs` span events as [`Span`]s of request 0.
/// Only events whose name `layer` maps are kept, renamed to the layer; a
/// kept span's parent is its nearest kept ancestor on the same thread, so
/// the time of unmapped spans folds into the layer around them.
pub fn from_program_events(
    events: &[wl_obs::SpanEvent],
    layer: impl Fn(&str) -> Option<&'static str>,
) -> Vec<Span> {
    // Per thread, the open spans: kept ones carry (id, layer, start).
    type Kept = Option<(u32, &'static str, u64)>;
    let mut stacks: BTreeMap<u32, Vec<Kept>> = BTreeMap::new();
    let mut out = Vec::new();
    let mut next_id = 0u32;
    for ev in events {
        let stack = stacks.entry(ev.thread).or_default();
        match ev.kind {
            wl_obs::SpanEventKind::Enter => {
                stack.push(layer(ev.name).map(|name| {
                    next_id += 1;
                    (next_id, name, ev.ts_ns)
                }));
            }
            wl_obs::SpanEventKind::Exit => {
                if let Some(Some((id, name, start_ns))) = stack.pop() {
                    let parent = stack.iter().rev().find_map(|e| e.map(|k| k.0));
                    out.push(Span {
                        id,
                        parent,
                        request: 0,
                        name,
                        start_ns,
                        end_ns: ev.ts_ns,
                    });
                }
            }
        }
    }
    out
}

/// The spans as JSON lines, one object per span, with self time.
pub fn to_json_lines(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}\n",
            s.id, s.request, s.name, s.start_ns, s.end_ns, selfs[&s.id]
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // A root with one sequential child that itself holds a grandchild:
        // the grandchild comes out of the child's self time, not the root's.
        let spans = vec![
            span(0, None, "op", 0, 100),
            span(1, Some(0), "synth", 10, 50),
            span(2, Some(1), "inner", 20, 30),
            span(3, Some(0), "embed", 60, 90),
        ];
        let s = self_times(&spans);
        assert_eq!(s[&0], 100 - 40 - 30);
        assert_eq!(s[&1], 40 - 10);
        assert_eq!(s[&2], 10);
        assert_eq!(s[&3], 30);
        let total: u64 = s.values().sum();
        assert_eq!(total, 100, "self times of a tree add up to the root");
    }

    #[test]
    fn overlapping_children_do_not_double_count() {
        // The `par.map.seq` pattern: two workers under one parent run at
        // the same time. Summing their durations would give 120 ns of
        // "children" inside a 100 ns parent; the union covers 80.
        let spans = vec![
            span(0, None, "par.map", 0, 100),
            span(1, Some(0), "par.map.seq", 10, 70),
            span(2, Some(0), "par.map.seq", 30, 90),
            span(3, Some(0), "late", 95, 140),
        ];
        let s = self_times(&spans);
        assert_eq!(s[&0], 100 - 80 - 5, "union of children, clipped at the end");
        assert_eq!(s[&1], 60);
        assert_eq!(s[&2], 60);
    }

    #[test]
    fn self_by_name_sums_across_requests() {
        let spans = vec![
            span(0, None, "op", 0, 10),
            span(1, Some(0), "x", 2, 6),
            span(2, None, "op", 20, 30),
            span(3, Some(2), "x", 21, 29),
        ];
        let by = self_by_name(&spans);
        assert_eq!(by["op"], 6 + 2);
        assert_eq!(by["x"], 12);
    }

    #[test]
    fn recorder_links_parents_and_requests() {
        set_armed(true);
        let before = closed().len();
        {
            let _op = root("test.op", 42);
            {
                let _a = enter("test.a");
                let _b = enter("test.b");
            }
            let _c = enter("test.c");
        }
        let mine: Vec<Span> = closed()
            .into_iter()
            .skip(before)
            .filter(|s| s.name.starts_with("test."))
            .collect();
        let id = |n: &str| mine.iter().find(|s| s.name == n).unwrap().clone();
        let (op, a, b, c) = (id("test.op"), id("test.a"), id("test.b"), id("test.c"));
        assert_eq!(op.parent, None);
        assert_eq!(a.parent, Some(op.id));
        assert_eq!(b.parent, Some(a.id));
        assert_eq!(c.parent, Some(op.id));
        assert!(mine.iter().all(|s| s.request == 42));
        assert!(op.start_ns <= a.start_ns && c.end_ns <= op.end_ns);
        let lines = to_json_lines(&mine);
        assert_eq!(lines.lines().count(), 4);
        assert!(lines.contains("\"name\":\"test.b\""));
    }
}
