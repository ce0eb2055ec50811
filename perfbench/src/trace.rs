//! In-memory spans recorded by the benchmark around its own calls into
//! each crate's public functions. Nothing is traced inside the program.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed call: name, interval (since the trace's epoch), the span
/// that was open when it began, and the op it belongs to.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// A span recorder. When disabled it still times calls (callers read
/// the returned durations) but keeps nothing — the untraced side of the
/// tracing-overhead measurement.
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, Instant)>,
    enabled: bool,
}

/// Handle of an open span.
pub struct Open {
    index: Option<usize>,
    started: Instant,
}

impl Open {
    /// The span's index in [`Trace::spans`], if it is being recorded.
    pub fn index(&self) -> Option<usize> {
        self.index
    }
}

impl Trace {
    pub fn new(enabled: bool) -> Self {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            enabled,
        }
    }

    pub fn begin(&mut self, op: u64, name: &'static str) -> Open {
        let started = Instant::now();
        let index = self.enabled.then(|| {
            let index = self.spans.len();
            self.spans.push(Span {
                name,
                op,
                parent: self.open.last().map(|&(i, _)| i),
                start: started - self.epoch,
                end: started - self.epoch,
            });
            self.open.push((index, started));
            index
        });
        Open { index, started }
    }

    /// Closes `span` and returns its duration.
    pub fn end(&mut self, span: Open) -> Duration {
        let now = Instant::now();
        if let Some(index) = span.index {
            self.spans[index].end = now - self.epoch;
            let top = self.open.pop().map(|(i, _)| i);
            assert_eq!(top, Some(index), "spans must close in LIFO order");
        }
        now - span.started
    }

    /// Times one leaf call.
    pub fn timed<T>(
        &mut self,
        op: u64,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let span = self.begin(op, name);
        let out = f();
        (out, self.end(span))
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The span's duration minus the part of its interval covered by
    /// its direct children (overlapping children count once).
    pub fn self_time(&self, index: usize) -> Duration {
        let span = &self.spans[index];
        // Spans are stored in start order, so descendants follow their
        // parent and start before it ends.
        let mut children: Vec<(Duration, Duration)> = self.spans[index + 1..]
            .iter()
            .take_while(|s| s.start <= span.end)
            .filter(|s| s.parent == Some(index))
            .map(|s| (s.start.max(span.start), s.end.min(span.end)))
            .filter(|(a, b)| b > a)
            .collect();
        children.sort();
        let mut covered = Duration::ZERO;
        let mut reach = span.start;
        for (a, b) in children {
            let from = a.max(reach);
            if b > from {
                covered += b - from;
                reach = b;
            }
        }
        span.duration().saturating_sub(covered)
    }

    /// Writes every span as one tab-separated line:
    /// `op  index  parent  name  start_us  end_us  self_us`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "op\tindex\tparent\tname\tstart_us\tend_us\tself_us")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.op,
                s.name,
                s.start.as_micros(),
                s.end.as_micros(),
                self.self_time(i).as_micros()
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start: Duration::from_millis(start),
            end: Duration::from_millis(end),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Trace::new(true);
        t.spans = vec![
            span("op", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("grandchild", Some(1), 12, 20), // not a direct child of op
            span("b", Some(0), 30, 50),          // overlaps a: 10..50 covered once
            span("c", Some(0), 90, 120),         // clipped to the parent's end
        ];
        assert_eq!(t.self_time(0), Duration::from_millis(100 - 40 - 10));
        assert_eq!(t.self_time(1), Duration::from_millis(30 - 8));
        assert_eq!(t.self_time(2), Duration::from_millis(8));
    }

    #[test]
    fn spans_record_parent_and_op_and_disabled_traces_keep_nothing() {
        let mut t = Trace::new(true);
        let root = t.begin(7, "op");
        let (v, _) = t.timed(7, "leaf", || 41 + 1);
        t.end(root);
        assert_eq!(v, 42);
        let s = t.spans();
        assert_eq!((s[1].name, s[1].op, s[1].parent), ("leaf", 7, Some(0)));
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);

        let mut off = Trace::new(false);
        let root = off.begin(1, "op");
        let (_, took) = off.timed(1, "leaf", || std::hint::black_box(3));
        assert!(off.end(root) >= took);
        assert!(off.spans().is_empty());
    }
}
