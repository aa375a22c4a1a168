//! The from-outside layer trace: one span per call into a layer's
//! public function, recorded by the benchmark around the call (the
//! program itself is not instrumented). Spans stay in memory and are
//! written out once, when the run ends.

use crate::util::J;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded call.
#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub batch: Option<u64>,
}

impl Span {
    fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Span recorder. A disabled tracer runs the closures and records
/// nothing, so the untraced and traced replays execute the same code.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn us(&self, t: Instant) -> f64 {
        t.duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Run `f` inside a span named `name`. Spans opened inside `f`
    /// become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        batch: Option<u64>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.us(Instant::now());
        self.spans.push(Span {
            name,
            start_us: start,
            end_us: start,
            parent: self.stack.last().copied(),
            batch,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_us = self.us(Instant::now());
        out
    }

    /// Record children of the most recently closed span named `parent`
    /// for time a layer reports about itself (the engine's
    /// `BatchTiming` stages), which the benchmark cannot bracket from
    /// outside. The children are laid back to back so that the last
    /// ends where the parent ends: durations are exact, positions are
    /// the best placement the reported numbers allow.
    pub fn reported_children(
        &mut self,
        parent: &'static str,
        children: &[(&'static str, Duration)],
    ) {
        if !self.enabled {
            return;
        }
        let Some(p) = self.spans.iter().rposition(|s| s.name == parent) else {
            return;
        };
        let (floor, mut end, batch) = (
            self.spans[p].start_us,
            self.spans[p].end_us,
            self.spans[p].batch,
        );
        for (name, dur) in children.iter().rev() {
            let start = (end - dur.as_secs_f64() * 1e6).max(floor);
            self.spans.push(Span {
                name,
                start_us: start,
                end_us: end,
                parent: Some(p),
                batch,
            });
            end = start;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: (calls, total ms, self ms). Self time is a span's
    /// duration minus the part its children cover.
    pub fn by_name(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_us = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.dur_us();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_us() / 1e3;
            e.2 += (s.dur_us() - child_us[i]).max(0.0) / 1e3;
        }
        out
    }

    /// Per span name: calls, total and self milliseconds, for the report.
    pub fn summary(&self) -> J {
        J::Obj(
            self.by_name()
                .into_iter()
                .map(|(name, (calls, total, own))| {
                    let cell = J::obj(vec![
                        ("calls", J::Int(calls)),
                        ("total_ms", J::Num(total)),
                        ("self_ms", J::Num(own)),
                    ]);
                    (name.to_owned(), cell)
                })
                .collect(),
        )
    }

    /// Total self time (ms) of the spans named `name`.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.by_name().get(name).map_or(0.0, |e| e.2)
    }

    /// Total duration (ms) of the spans named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.by_name().get(name).map_or(0.0, |e| e.1)
    }

    /// Calls recorded under `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.by_name().get(name).map_or(0, |e| e.0)
    }

    /// Share of `[from, to]` covered by the union of top-level spans.
    pub fn coverage(&self, from: Instant, to: Instant) -> f64 {
        let (lo, hi) = (self.us(from), self.us(to));
        let mut iv: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.start_us.max(lo), s.end_us.min(hi)))
            .filter(|(a, b)| b > a)
            .collect();
        iv.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (mut covered, mut cur) = (0.0, lo);
        for (a, b) in iv {
            let a = a.max(cur);
            if b > a {
                covered += b - a;
                cur = b;
            }
        }
        if hi > lo {
            covered / (hi - lo)
        } else {
            0.0
        }
    }

    /// Write every span as one JSON line: name, start and end in µs
    /// since the tracer started, parent index, and batch id.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_us\": {:.1}, \"end_us\": {:.1}, \"parent\": {}, \"batch\": {}}}",
                s.name,
                s.start_us,
                s.end_us,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.batch.map_or("null".to_owned(), |b| b.to_string()),
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_coverage_unions_roots() {
        let mut t = Tracer::new(true);
        let from = Instant::now();
        t.span("outer", None, |t| {
            std::thread::sleep(Duration::from_millis(4));
            t.span("inner", Some(1), |_| {
                std::thread::sleep(Duration::from_millis(4))
            });
        });
        let to = Instant::now();
        let names = t.by_name();
        let (calls, total, own) = names["outer"];
        assert_eq!(calls, 1);
        assert!(own < total && own >= 3.0, "{own} {total}");
        assert!(t.coverage(from, to) > 0.9);
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", None, |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
