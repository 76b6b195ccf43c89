//! Tracing for the `--trace 1` run: spans recorded around the benchmark's
//! calls into each layer, and a forwarding oracle that times every query and
//! round hook. Per-query costs are aggregate counters, never spans.

use ecs_model::EquivalenceOracle;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One traced interval, in nanoseconds since the tracer's epoch.
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Spans kept in memory until the run ends. A disabled tracer records
/// nothing, so the timed runs carry no tracing cost.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: impl Into<String>) {
        if !self.enabled {
            return;
        }
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name: name.into(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Records a finished span measured elsewhere (e.g. on another thread)
    /// and returns its id, for use as `parent` of later records.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
        });
        Some(self.spans.len() - 1)
    }

    /// Per span: its duration minus the part of it its children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = span.start_ns;
                for &(start, end) in kids.iter() {
                    let (start, end) = (start.max(reach), end.min(span.end_ns));
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                (span.end_ns - span.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Total and self time per span name, in first-seen order.
    pub fn summary(&self) -> Vec<(String, u64, u64, u64)> {
        let self_ns = self.self_times();
        let mut rows: Vec<(String, u64, u64, u64)> = Vec::new();
        for (span, own) in self.spans.iter().zip(self_ns) {
            let row = match rows.iter_mut().position(|row| row.0 == span.name) {
                Some(i) => &mut rows[i],
                None => {
                    rows.push((span.name.clone(), 0, 0, 0));
                    rows.last_mut().expect("just pushed")
                }
            };
            row.1 += 1;
            row.2 += span.end_ns - span.start_ns;
            row.3 += own;
        }
        rows
    }

    /// Writes every span as one JSON line (`id`, `name`, `start_ns`,
    /// `end_ns`, `parent`, `self_ns`).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, (span, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"self_ns\": {own}}}",
                span.name, span.start_ns, span.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Aggregate counters of one [`TracedOracle`].
#[derive(Default)]
pub struct OracleStats {
    pub calls: AtomicU64,
    pub pairs: AtomicU64,
    pub query_ns: AtomicU64,
    pub open_ns: AtomicU64,
    pub close_ns: AtomicU64,
}

fn add(counter: &AtomicU64, value: u64) {
    counter.fetch_add(value, Ordering::Relaxed);
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

impl OracleStats {
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

/// Forwards every [`EquivalenceOracle`] call to `inner`, timing queries
/// (`same` / `same_batch`) and the round hooks separately.
pub struct TracedOracle<'a, O> {
    pub inner: &'a O,
    pub stats: &'a OracleStats,
}

impl<O: EquivalenceOracle> EquivalenceOracle for TracedOracle<'_, O> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn same(&self, a: usize, b: usize) -> bool {
        let start = Instant::now();
        let answer = self.inner.same(a, b);
        add(&self.stats.query_ns, elapsed_ns(start));
        add(&self.stats.calls, 1);
        add(&self.stats.pairs, 1);
        answer
    }

    fn same_batch(&self, pairs: &[(usize, usize)]) -> Vec<bool> {
        let start = Instant::now();
        let answers = self.inner.same_batch(pairs);
        add(&self.stats.query_ns, elapsed_ns(start));
        add(&self.stats.calls, 1);
        add(&self.stats.pairs, pairs.len() as u64);
        answers
    }

    fn round_opened(&self, pairs: &[(usize, usize)]) {
        let start = Instant::now();
        self.inner.round_opened(pairs);
        add(&self.stats.open_ns, elapsed_ns(start));
    }

    fn round_closed(&self) {
        let start = Instant::now();
        self.inner.round_closed();
        add(&self.stats.close_ns, elapsed_ns(start));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_children() {
        let mut t = Tracer::new(true);
        let e = t.epoch;
        let at = |ns| e + std::time::Duration::from_nanos(ns);
        let root = t.record("root", at(0), at(100), None);
        t.record("a", at(10), at(30), root);
        t.record("b", at(20), at(50), root);
        t.record("c", at(90), at(120), root);
        assert_eq!(t.self_times()[0], 100 - 40 - 10);
    }
}
