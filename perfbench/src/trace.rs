//! In-memory spans around the benchmark's calls into each crate.
//!
//! Tracing is off unless [`set_enabled`] turns it on, and then costs two
//! clock reads and one lock per span; end-to-end numbers come only from
//! untraced runs. A span's parent is whatever span is open on the same thread when
//! it starts, so a cell's span nests under the `run_units` call that runs
//! it. A span's *self time* is its duration minus the part of that
//! interval its children cover ([`self_times`]).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the run, starting at 1.
    pub id: u64,
    /// The layer call, e.g. `"kinetics.compile"`.
    pub name: &'static str,
    /// Nanoseconds since the first span of the run.
    pub start_ns: u64,
    /// Nanoseconds since the first span of the run.
    pub end_ns: u64,
    /// The span open on the same thread when this one started.
    pub parent: Option<u64>,
    /// The cell or job this call worked for, if any.
    pub job: Option<u64>,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).expect("a run lasts less than 584 years")
}

/// Turns recording on or off for every thread.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Runs `f` with recording off, then restores the previous state: for
/// warm-up work inside a traced set-up that must not count as a layer
/// call.
pub fn paused<T>(f: impl FnOnce() -> T) -> T {
    let was = ENABLED.swap(false, Ordering::SeqCst);
    let out = f();
    ENABLED.store(was, Ordering::SeqCst);
    out
}

/// Runs `f` inside a span named `name`, on behalf of `job`.
pub fn span<T>(name: &'static str, job: Option<u64>, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let parent = open.last().copied();
        open.push(id);
        parent
    });
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    OPEN.with(|open| open.borrow_mut().pop());
    SPANS.lock().expect("span recorder poisoned").push(Span {
        id,
        name,
        start_ns,
        end_ns,
        parent,
        job,
    });
    out
}

/// Removes and returns every span recorded so far, in id order.
#[must_use]
pub fn take() -> Vec<Span> {
    let mut spans = std::mem::take(&mut *SPANS.lock().expect("span recorder poisoned"));
    spans.sort_by_key(|s| s.id);
    spans
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Spans of this name.
    pub calls: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times.
    pub self_ns: u64,
}

/// The length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Totals per span name, with each span's self time: its duration minus
/// the part of its interval that its children cover. Children that
/// overlap each other (concurrent work) are counted once.
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children
                .entry(parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans {
        let inner = children
            .get_mut(&s.id)
            .map_or(0, |kids| covered(s.start_ns, s.end_ns, kids));
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns() - inner;
    }
    out
}

/// Writes `spans` as one JSON object per line.
///
/// # Errors
///
/// Any I/O error creating or writing the file.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let opt = |v: Option<u64>| v.map_or_else(|| "null".to_owned(), |v| v.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"job\":{}}}",
            s.id,
            s.name,
            s.start_ns,
            s.end_ns,
            opt(s.parent),
            opt(s.job)
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, name: &'static str, start: u64, end: u64, parent: Option<u64>) -> Span {
        Span {
            id,
            name,
            start_ns: start,
            end_ns: end,
            parent,
            job: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // parent [0,100]; children [10,40] and [30,60] overlap (counted
        // once), [90,120] runs past the parent's end (clipped to 100)
        let spans = vec![
            span(1, "sweep.run_units", 0, 100, None),
            span(2, "sweep.cell", 10, 40, Some(1)),
            span(3, "sweep.cell", 30, 60, Some(1)),
            span(4, "sweep.cell", 90, 120, Some(1)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["sweep.run_units"].self_ns, 100 - 50 - 10);
        assert_eq!(t["sweep.run_units"].total_ns, 100);
        assert_eq!(t["sweep.cell"].calls, 3);
        assert_eq!(t["sweep.cell"].self_ns, 30 + 30 + 30);
    }

    #[test]
    fn nested_children_and_grandchildren_count_only_once() {
        // a grandchild is covered by its own parent, not its grandparent
        let spans = vec![
            span(1, "a", 0, 100, None),
            span(2, "b", 0, 50, Some(1)),
            span(3, "c", 10, 20, Some(2)),
            span(4, "b", 40, 70, Some(1)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["a"].self_ns, 30);
        assert_eq!(t["b"].self_ns, 40 + 30);
        assert_eq!(t["c"].self_ns, 10);
    }

    #[test]
    fn identical_children_do_not_drive_self_time_negative() {
        let spans = vec![
            span(1, "a", 5, 15, None),
            span(2, "b", 5, 15, Some(1)),
            span(3, "b", 5, 15, Some(1)),
        ];
        assert_eq!(self_times(&spans)["a"].self_ns, 0);
    }

    #[test]
    fn recorder_nests_by_thread_and_is_off_by_default() {
        assert!(!enabled());
        assert_eq!(super::span("ignored", None, || 7), 7);
        set_enabled(true);
        super::span("outer", Some(9), || {
            super::span("inner", Some(9), || ());
            std::thread::scope(|scope| {
                scope.spawn(|| super::span("other_thread", None, || ()));
            });
        });
        set_enabled(false);
        let spans = take();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).expect("recorded");
        assert!(spans.iter().all(|s| s.name != "ignored"));
        assert_eq!(by_name("inner").parent, Some(by_name("outer").id));
        assert_eq!(by_name("inner").job, Some(9));
        assert_eq!(by_name("other_thread").parent, None);
        assert!(by_name("outer").duration_ns() >= by_name("inner").duration_ns());
    }
}
