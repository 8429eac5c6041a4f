//! In-memory span recording for the traced runs.
//!
//! A span records its name, start, end, parent span and op id. Spans stay in
//! memory while the workload runs and are written out once it ends. Self time
//! of a span is its duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// A single-threaded span recorder. A disabled tracer records nothing and
/// runs the wrapped closures directly.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Starts attributing new spans to op `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index (or `usize::MAX` when disabled).
    pub fn enter(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        let index = self.spans.len() - 1;
        self.open.push(index);
        index
    }

    /// Opens a span that started at `start` (an instant already past).
    pub fn enter_at(&mut self, name: &'static str, start: Instant) -> usize {
        let index = self.enter(name);
        if self.enabled {
            self.spans[index].start_ns =
                start.saturating_duration_since(self.epoch).as_nanos() as u64;
        }
        index
    }

    /// Closes a span at `end` (an instant already past).
    pub fn exit_at(&mut self, index: usize, end: Instant) {
        self.exit(index);
        if self.enabled {
            self.spans[index].end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        }
    }

    pub fn exit(&mut self, index: usize) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let top = self.open.pop().expect("exit matches an enter");
        assert_eq!(top, index, "spans close in stack order");
        self.spans[index].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.enter(name);
        let value = f(self);
        self.exit(index);
        value
    }

    /// Records an already-measured interval as a closed span under the
    /// currently open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
    }

    /// Appends the spans of another tracer (same epoch), remapping parents.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }

    /// Durations in ms of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Self time in ms per span name: duration minus the union of the
    /// intervals its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, span) in self.spans.iter().enumerate() {
            if let Some(parent) = span.parent {
                children[parent].push(i);
            }
        }
        let mut totals = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let covered = self.covered_ns(&children[i]);
            let own = (span.end_ns - span.start_ns).saturating_sub(covered);
            *totals.entry(span.name).or_insert(0.0) += own as f64 / 1e6;
        }
        totals
    }

    /// Share of the total duration of spans named `root` that their direct
    /// children cover.
    pub fn coverage(&self, root: &str) -> f64 {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, span) in self.spans.iter().enumerate() {
            if let Some(parent) = span.parent {
                children[parent].push(i);
            }
        }
        let (mut covered, mut total) = (0u64, 0u64);
        for (i, span) in self.spans.iter().enumerate() {
            if span.name == root {
                covered += self.covered_ns(&children[i]);
                total += span.end_ns - span.start_ns;
            }
        }
        if total == 0 {
            0.0
        } else {
            covered as f64 / total as f64
        }
    }

    fn covered_ns(&self, children: &[usize]) -> u64 {
        let mut intervals: Vec<(u64, u64)> = children
            .iter()
            .map(|&c| (self.spans[c].start_ns, self.spans[c].end_ns))
            .collect();
        intervals.sort_unstable();
        let (mut covered, mut reach) = (0u64, 0u64);
        for (start, end) in intervals {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        covered
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, span) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                span.name,
                span.start_ns,
                span.end_ns,
                span.parent.map_or("null".to_string(), |p| p.to_string()),
                span.op
            )?;
        }
        out.flush()
    }
}
