//! In-memory spans recorded around the benchmark's calls into each
//! layer, and the self-time arithmetic that attributes host time to
//! them.
//!
//! A span holds a name (`layer.operation`), start and end in
//! nanoseconds since the recorder's origin, the span that caused it,
//! and the grid point or submission it belongs to. Spans stay in memory
//! and are written out once, when the run ends. A span's *self time* is
//! its duration minus the part of it that its children cover, so the
//! self times of a tree add up to the root's duration without double
//! counting.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`, e.g. `sim.run`.
    pub name: &'static str,
    /// Start, in ns since the recorder's origin.
    pub start: u64,
    /// End, in ns since the recorder's origin.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Grid point index or submission number the span belongs to.
    pub id: u64,
}

impl Span {
    /// Duration in ns.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// A single-threaded span recorder. Nesting follows the call stack:
/// a span opened inside another's closure becomes its child.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder whose clock starts at `origin`.
    pub fn new(origin: Instant) -> Self {
        Spans {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` for point/submission `id`
    /// and returns its result.
    pub fn time<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            id,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.now();
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per span, for the spans file written at the end
    /// of a traced run.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"id\": {}}}",
                s.name, s.start, s.end, s.id
            );
        }
        out
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (s, e) in intervals {
        let s = s.clamp(reach, hi);
        let e = e.clamp(lo, hi);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.duration() - covered(kids, s.start, s.end))
        .collect()
}

/// Per-name totals: `(calls, total ns, self ns)`.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.duration();
        e.2 += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("point", 0, 100, None),
            span("sim.run", 10, 40, Some(0)),
            span("mem.l1", 50, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 20]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two concurrent children covering [10, 60) together: 50 ns,
        // not the 70 ns their durations add up to.
        let spans = [
            span("pass", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 50);
    }

    #[test]
    fn children_are_clipped_to_the_parent_and_grandchildren_ignored() {
        let spans = [
            span("root", 10, 50, None),
            span("child", 0, 30, Some(0)),  // starts before the parent
            span("grand", 12, 20, Some(1)), // charged to the child only
            span("late", 40, 90, Some(0)),  // ends after the parent
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 40 - 20 - 10);
        assert_eq!(own[1], 30 - 8);
        assert_eq!(own[2], 8);
    }

    #[test]
    fn self_times_of_a_tree_add_up_to_the_root() {
        let mut rec = Spans::new(Instant::now());
        rec.time("root", 0, |rec| {
            rec.time("a", 0, |rec| rec.time("b", 0, |_| std::hint::black_box(1)));
            rec.time("c", 0, |_| ());
        });
        let spans = rec.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        let total: u64 = self_times(spans).iter().sum();
        assert_eq!(total, spans[0].duration());
        let names = by_name(spans);
        assert_eq!(names["a"].0, 1);
        assert_eq!(
            names.values().map(|v| v.2).sum::<u64>(),
            spans[0].duration()
        );
    }
}
