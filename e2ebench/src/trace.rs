//! Spans: one per call into a layer's public entry point, kept in
//! memory until the run ends. Every span of one operation carries the
//! same operation id, whichever pass recorded it, so a layer's self time
//! is its span minus the span of the layer below for the same id.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use crate::stats::{mean, quantile};

/// Operation kinds, folded into the operation id.
#[derive(Debug, Clone, Copy)]
pub enum OpKind {
    Determine = 0,
    Report = 1,
    Flush = 2,
    Other = 3,
}

/// The id of operation `kind` of step `step` on connection `conn`.
pub fn op_id(conn: usize, step: usize, kind: OpKind) -> u64 {
    ((conn as u64) << 40) | ((step as u64) << 2) | kind as u64
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub op: u64,
    /// `<layer>.<entry point>`, e.g. `service.determine`.
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// One thread's span buffer.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn record(&mut self, op: u64, name: &'static str, start: Instant, dur: Duration) {
        self.spans.push(Span {
            op,
            name,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
        });
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, op: u64, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.record(op, name, start, start.elapsed());
        r
    }
}

/// Seconds from the first span's start to the last span's end.
pub fn window_s(spans: &[Span]) -> f64 {
    let start = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
    let end = spans
        .iter()
        .map(|s| s.start_ns + s.dur_ns)
        .max()
        .unwrap_or(0);
    end.saturating_sub(start) as f64 / 1e9
}

/// All spans of a run, indexed for the per-layer arithmetic.
#[derive(Debug, Default)]
pub struct SpanIndex {
    by_name: HashMap<&'static str, Vec<(u64, f64)>>,
}

impl SpanIndex {
    pub fn new(spans: &[Span]) -> SpanIndex {
        let mut by_name: HashMap<&'static str, Vec<(u64, f64)>> = HashMap::new();
        for s in spans {
            by_name
                .entry(s.name)
                .or_default()
                .push((s.op, s.dur_ns as f64 / 1e3));
        }
        SpanIndex { by_name }
    }

    /// Durations of every `name` span, µs.
    pub fn us(&self, name: &str) -> Vec<f64> {
        self.by_name
            .get(name)
            .map(|v| v.iter().map(|&(_, d)| d).collect())
            .unwrap_or_default()
    }

    /// Durations of the `name` spans of operations of `kind`, µs.
    pub fn us_kind(&self, name: &str, kind: OpKind) -> Vec<f64> {
        self.by_name
            .get(name)
            .map(|v| {
                v.iter()
                    .filter(|&&(op, _)| op & 3 == kind as u64)
                    .map(|&(_, d)| d)
                    .collect()
            })
            .unwrap_or_default()
    }

    pub fn quantile_us(&self, name: &str, q: f64) -> Option<f64> {
        quantile(&self.us(name), q)
    }

    pub fn mean_us(&self, name: &str) -> Option<f64> {
        mean(&self.us(name))
    }

    /// Per operation: the `upper` span minus the `lower` span of the
    /// same id, for every id that has both.
    pub fn self_us(&self, upper: &str, lower: &str) -> Vec<f64> {
        let lower: HashMap<u64, f64> = self
            .by_name
            .get(lower)
            .map(|v| v.iter().copied().collect())
            .unwrap_or_default();
        self.by_name
            .get(upper)
            .map(|v| {
                v.iter()
                    .filter_map(|(op, d)| lower.get(op).map(|l| d - l))
                    .collect()
            })
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_layer_below_per_operation() {
        let spans = [
            Span {
                op: 1,
                name: "wire.determine",
                start_ns: 0,
                dur_ns: 30_000,
            },
            Span {
                op: 1,
                name: "service.determine",
                start_ns: 0,
                dur_ns: 20_000,
            },
            Span {
                op: 2,
                name: "wire.determine",
                start_ns: 0,
                dur_ns: 50_000,
            },
            Span {
                op: 3,
                name: "service.determine",
                start_ns: 0,
                dur_ns: 10_000,
            },
        ];
        let index = SpanIndex::new(&spans);
        assert_eq!(
            index.self_us("wire.determine", "service.determine"),
            vec![10.0]
        );
        assert_eq!(index.us("wire.determine"), vec![30.0, 50.0]);
        assert_eq!(op_id(1, 3, OpKind::Report), (1 << 40) | (3 << 2) | 1,);
    }
}
