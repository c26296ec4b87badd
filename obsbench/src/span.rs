//! In-memory spans for the traced replay, and the budget table made of
//! their self times.
//!
//! One thread opens and closes spans in stack order, so a span's parent
//! is whatever was open when it began. A span's self time is its
//! duration minus the durations of its direct children; summed over all
//! spans under one root, self times equal the root's duration, which is
//! what lets the budget table add up to the replay's wall time.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// `parent` of a span that has none.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// What the work belonged to: a window start in µs, or a batch
    /// sequence number on the per-transaction path.
    pub trace_id: u64,
}

/// An open span, handed back to [`Spans::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Spans {
    pub fn enabled() -> Spans {
        Spans {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A recorder that records nothing: the untraced runs call the same
    /// adapter functions through it.
    pub fn disabled() -> Spans {
        Spans {
            enabled: false,
            ..Spans::enabled()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, trace_id: u64) -> Open {
        if !self.enabled {
            return Open(NO_PARENT);
        }
        let index = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.stack.push(index);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            trace_id,
        });
        Open(index)
    }

    pub fn end(&mut self, open: Open) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must close in stack order");
        self.spans[open.0 as usize].end_ns = end_ns;
    }

    /// Run `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, trace_id: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, trace_id);
        let r = f();
        self.end(open);
        r
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as `name start_ns end_ns parent trace_id`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "name\tstart_ns\tend_ns\tparent\ttrace_id")?;
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                w,
                "{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.trace_id
            )?;
        }
        w.flush()
    }
}

/// One row of the budget table.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Row {
    pub spans: u64,
    pub self_ns: u64,
}

/// Self time per span name.
pub fn budget(spans: &[Span]) -> BTreeMap<&'static str, Row> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut rows: BTreeMap<&'static str, Row> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let row = rows.entry(s.name).or_default();
        row.spans += 1;
        row.self_ns += (s.end_ns - s.start_ns).saturating_sub(children);
    }
    rows
}

/// The table as text: one row per span name, largest first, with its
/// share of `wall_ns`.
pub fn render_budget(rows: &BTreeMap<&'static str, Row>, wall_ns: u64) -> String {
    let mut sorted: Vec<(&&str, &Row)> = rows.iter().collect();
    sorted.sort_by_key(|(_, row)| std::cmp::Reverse(row.self_ns));
    let mut out = format!(
        "{:<28} {:>9} {:>12} {:>7}\n",
        "span", "count", "self ms", "share"
    );
    let mut sum = 0u64;
    for (name, row) in sorted {
        sum += row.self_ns;
        out.push_str(&format!(
            "{:<28} {:>9} {:>12.3} {:>6.1}%\n",
            name,
            row.spans,
            row.self_ns as f64 / 1e6,
            row.self_ns as f64 * 100.0 / wall_ns.max(1) as f64
        ));
    }
    out.push_str(&format!(
        "{:<28} {:>9} {:>12.3} {:>6.1}%  (replay wall {:.3} ms)\n",
        "sum of self times",
        "",
        sum as f64 / 1e6,
        sum as f64 * 100.0 / wall_ns.max(1) as f64,
        wall_ns as f64 / 1e6
    ));
    out
}

/// Cost of recording one span, measured on empty spans.
pub fn span_cost_ns() -> f64 {
    const N: u32 = 200_000;
    let mut spans = Spans::enabled();
    spans.spans.reserve(N as usize);
    let started = Instant::now();
    for i in 0..N {
        let open = spans.begin("bench.empty", u64::from(i));
        spans.end(open);
    }
    let ns = started.elapsed().as_nanos() as f64 / f64::from(N);
    std::hint::black_box(&spans.spans);
    ns
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            trace_id: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // root 0..100 holds a 10..40 (which holds b 20..30) and a 50..70.
        let spans = [
            span("root", 0, 100, NO_PARENT),
            span("a", 10, 40, 0),
            span("b", 20, 30, 1),
            span("a", 50, 70, 0),
        ];
        let rows = budget(&spans);
        assert_eq!(
            rows["root"],
            Row {
                spans: 1,
                self_ns: 50
            }
        );
        assert_eq!(
            rows["a"],
            Row {
                spans: 2,
                self_ns: 40
            }
        );
        assert_eq!(
            rows["b"],
            Row {
                spans: 1,
                self_ns: 10
            }
        );
        let sum: u64 = rows.values().map(|r| r.self_ns).sum();
        assert_eq!(sum, 100, "self times add up to the root's duration");
    }

    #[test]
    fn recorder_nests_by_stack_and_disabled_records_nothing() {
        let mut spans = Spans::enabled();
        let root = spans.begin("root", 1);
        spans.time("leaf", 2, || ());
        spans.end(root);
        assert_eq!(spans.spans()[0].parent, NO_PARENT);
        assert_eq!(spans.spans()[1].parent, 0);
        assert!(spans.spans()[0].end_ns >= spans.spans()[1].end_ns);

        let mut off = Spans::disabled();
        let open = off.begin("x", 0);
        off.end(open);
        assert_eq!(off.len(), 0);
    }
}
