//! In-memory span recording around calls into the workspace's public API,
//! self-time accounting and the span file written at exit.
//!
//! Spans are kept per thread in a [`Tracer`] (no locking on the hot path)
//! and merged with [`Tracer::absorb`] when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds from the tracer's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `flexray.advance_until`.
    pub name: &'static str,
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one request or scenario.
    pub request: u64,
}

/// A span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    /// Only spans whose name starts with this are recorded.
    prefix: &'static str,
    spans: Vec<Span>,
    /// Indices of the open spans; [`SKIPPED`] for one filtered out.
    open: Vec<usize>,
}

/// Open-stack marker of a span the prefix filtered out.
const SKIPPED: usize = usize::MAX;

impl Tracer {
    /// A tracer whose clock starts at `origin` (share one origin between
    /// the tracers of one run so their spans line up).
    pub fn new(origin: Instant) -> Self {
        Tracer::only(origin, "")
    }

    /// A tracer that records only spans whose name starts with `prefix`
    /// (a prefix no name has records nothing and reads no clock).
    pub fn only(origin: Instant, prefix: &'static str) -> Self {
        Tracer {
            origin,
            prefix,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: u64) {
        if !name.starts_with(self.prefix) {
            self.open.push(SKIPPED);
            return;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.iter().rev().find(|&&i| i != SKIPPED).copied(),
            request,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        let index = self.open.pop().expect("end() without a matching begin()");
        if index != SKIPPED {
            self.spans[index].end = self.now();
        }
    }

    /// Records a span around `f`.
    pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        self.begin(name, request);
        let value = f();
        self.end();
        value
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another tracer's closed spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "absorbing a tracer with open spans");
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|span| Span {
            parent: span.parent.map(|p| p + offset),
            ..span
        }));
    }
}

/// Median reported duration of an empty span: what recording a span adds
/// to the duration it reports.
pub fn empty_span_ns() -> f64 {
    let mut tracer = Tracer::new(Instant::now());
    for _ in 0..10_000 {
        tracer.span("empty", 0, || ());
    }
    let durations: Vec<f64> = tracer
        .spans
        .iter()
        .map(|s| (s.end - s.start) as f64)
        .collect();
    crate::stats::median(&durations)
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its child spans (overlapping children count once, and a
/// child sticking out of its parent counts only inside it).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = span.start;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(cursor), end.min(span.end));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            (span.end - span.start) - covered
        })
        .collect()
}

/// Per-name totals of a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerRow {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations, ns.
    pub total: u64,
    /// Summed self times, ns.
    pub self_time: u64,
}

/// Groups spans by name.
pub fn layer_table(spans: &[Span]) -> BTreeMap<&'static str, LayerRow> {
    let mut table: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    for (span, self_time) in spans.iter().zip(self_times(spans)) {
        let row = table.entry(span.name).or_default();
        row.count += 1;
        row.total += span.end - span.start;
        row.self_time += self_time;
    }
    table
}

/// Prints the per-name table with each row's share of all self time.
pub fn print_layer_table(title: &str, table: &BTreeMap<&'static str, LayerRow>) {
    let all: u64 = table.values().map(|row| row.self_time).sum();
    println!("\n{title}: layer self time (span minus covered child spans)");
    println!(
        "{:<28} {:>9} {:>12} {:>12} {:>7}",
        "span", "count", "total ms", "self ms", "self %"
    );
    for (name, row) in table {
        println!(
            "{:<28} {:>9} {:>12.3} {:>12.3} {:>6.1}%",
            name,
            row.count,
            row.total as f64 / 1e6,
            row.self_time as f64 / 1e6,
            100.0 * row.self_time as f64 / all.max(1) as f64
        );
    }
}

/// Writes the spans as CSV (`name,start_ns,end_ns,parent,request`).
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name,start_ns,end_ns,parent,request")?;
    for span in spans {
        let parent = span.parent.map_or(String::new(), |p| p.to_string());
        writeln!(
            out,
            "{},{},{},{},{}",
            span.name, span.start, span.end, parent, span.request
        )?;
    }
    out.flush()
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
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 25, 50, Some(0)), // overlaps a: 10..50 is covered once
            span("c", 90, 120, Some(0)), // sticks out: only 90..100 counts
            span("a.inner", 12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20 - 8, 25, 30, 8]);
    }

    #[test]
    fn leaf_and_empty_spans() {
        assert_eq!(self_times(&[span("x", 5, 5, None)]), vec![0]);
        assert!(self_times(&[]).is_empty());
    }

    #[test]
    fn table_groups_by_name() {
        let spans = [
            span("period", 0, 10, None),
            span("bus", 0, 6, Some(0)),
            span("period", 10, 20, None),
            span("bus", 11, 15, Some(2)),
        ];
        let table = layer_table(&spans);
        assert_eq!(
            table["period"],
            LayerRow {
                count: 2,
                total: 20,
                self_time: 10
            }
        );
        assert_eq!(
            table["bus"],
            LayerRow {
                count: 2,
                total: 10,
                self_time: 10
            }
        );
    }

    #[test]
    fn tracer_nests_and_absorbs() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        a.begin("outer", 1);
        a.span("inner", 1, || ());
        a.end();
        let mut b = Tracer::new(origin);
        b.begin("other", 2);
        b.span("child", 2, || ());
        b.end();
        a.absorb(b);
        let mut only = Tracer::only(origin, "in");
        only.begin("outer", 3);
        only.span("inner", 3, || ());
        only.end();
        assert_eq!(only.spans().len(), 1);
        assert_eq!(
            (only.spans()[0].name, only.spans()[0].parent),
            ("inner", None)
        );
        let spans = a.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().all(|s| s.end >= s.start));
    }
}
