//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (name, start, end, parent), kept in memory and written out once the run
//! ends. A layer's self time is its span's duration minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use delayavf::InjectorStats;

/// One recorded call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified span name (`injector.replay`, `golden.trace`, ...).
    pub name: &'static str,
    /// Offset of the call's start from the tracer's origin.
    pub start: Duration,
    /// Offset of the call's end from the tracer's origin.
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// `InjectorStats` delta taken around the call (zero for calls that do
    /// not go through an injector).
    pub stats: InjectorStats,
}

/// Span recorder. A disabled tracer records nothing and reads no clock.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recording tracer.
    pub fn new() -> Self {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    /// Opens a span nested in the innermost open one; returns its index.
    pub fn begin(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let id = self.spans.len();
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            stats: InjectorStats::default(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (which must be the innermost open one), recording
    /// the stats delta of the call it wraps.
    pub fn end(&mut self, id: usize, stats: InjectorStats) {
        if !self.enabled {
            return;
        }
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.end = self.origin.elapsed();
        span.stats = stats;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id, InjectorStats::default());
        out
    }

    /// Total duration of the spans named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64())
            .sum()
    }

    /// Per-span self time: duration minus the union of the children's
    /// intervals clipped to the span.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, kids)| {
                let mut cover: Vec<(Duration, Duration)> = kids
                    .iter()
                    .map(|&k| {
                        let c = &self.spans[k];
                        (c.start.max(s.start), c.end.min(s.end))
                    })
                    .filter(|(a, b)| a < b)
                    .collect();
                cover.sort();
                let mut covered = Duration::ZERO;
                let mut reach = s.start;
                for (a, b) in cover {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end - s.start).saturating_sub(covered)
            })
            .collect()
    }

    /// Self time summed per span name, in seconds.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.name).or_insert(0.0) += t.as_secs_f64();
        }
        out
    }

    /// Writes every span (name, start, end, parent, self time and non-zero
    /// stats counters) as one tab-separated line each.
    pub fn write_spans(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        for ((i, s), self_t) in self.spans.iter().enumerate().zip(self.self_times()) {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            write!(
                out,
                "span\t{i}\t{}\t{:.6}\t{:.6}\t{parent}\t{:.6}",
                s.name,
                s.start.as_secs_f64(),
                s.end.as_secs_f64(),
                self_t.as_secs_f64()
            )?;
            if s.stats != InjectorStats::default() {
                write!(out, "\t{:?}", s.stats)?;
            }
            writeln!(out)?;
        }
        Ok(())
    }
}

#[cfg(test)]
impl Tracer {
    /// Pushes a finished span with explicit times (milliseconds).
    fn push(&mut self, name: &'static str, start_ms: u64, end_ms: u64, parent: Option<usize>) {
        self.spans.push(Span {
            name,
            start: Duration::from_millis(start_ms),
            end: Duration::from_millis(end_ms),
            parent,
            stats: InjectorStats::default(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fully_covered_span_has_zero_self_time() {
        let mut t = Tracer::new();
        t.push("campaign", 0, 10, None);
        t.push("injector.warm", 0, 4, Some(0));
        t.push("injector.replay", 4, 10, Some(0));
        let own = t.self_times();
        assert_eq!(own[0], Duration::ZERO);
        assert_eq!(own[1], Duration::from_millis(4));
        assert_eq!(own[2], Duration::from_millis(6));
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        t.push("unit", 0, 100, None);
        t.push("a", 10, 30, Some(0));
        t.push("b", 20, 40, Some(0)); // overlaps `a`: counted once
        t.push("c", 90, 120, Some(0)); // clipped to the parent
        assert_eq!(t.self_times()[0], Duration::from_millis(100 - 30 - 10));
        let by_name = t.self_time_by_name();
        assert!((by_name["unit"] - 0.060).abs() < 1e-9);
    }

    #[test]
    fn nested_spans_record_parents_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new();
        let outer = t.begin("outer");
        let inner = t.span("inner", || 3);
        assert_eq!(inner, 3);
        t.end(outer, InjectorStats::default());
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));

        let mut off = Tracer::disabled();
        let id = off.begin("x");
        off.end(id, InjectorStats::default());
        assert!(off.spans.is_empty());
    }
}
