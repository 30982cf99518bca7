//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions.
//!
//! A span has a name, a start and end (nanoseconds since the tracer's
//! epoch), the id of the span that caused it, and the op it belongs to.
//! Spans are appended to one preallocated buffer and written out as
//! JSON lines when the run ends. With tracing off nothing is recorded
//! and no clock is read, so the untraced run measures the program alone.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Parent id of a span that has no parent.
pub const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span recorder. `open`/`close` bracket a span whose children are
/// recorded while it is open; `record` stores a span that started at an
/// instant the caller took with [`Tracer::now`].
pub struct Tracer {
    on: bool,
    epoch: Instant,
    cap: usize,
    spans: Mutex<Vec<Span>>,
    dropped: AtomicU64,
}

impl Tracer {
    pub fn new(on: bool, cap: usize) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            cap,
            spans: Mutex::new(Vec::with_capacity(if on { cap } else { 0 })),
            dropped: AtomicU64::new(0),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// The current instant when tracing, `None` otherwise.
    pub fn now(&self) -> Option<Instant> {
        self.on.then(Instant::now)
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(&self, span: Span) -> u32 {
        let mut spans = self
            .spans
            .lock()
            .expect("span buffer lock is never poisoned");
        if spans.len() >= self.cap {
            // A statistic only: it publishes no other data.
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return ROOT;
        }
        spans.push(span);
        u32::try_from(spans.len() - 1).unwrap_or(ROOT)
    }

    /// Opens a span that ends at [`Tracer::close`]; returns its id
    /// ([`ROOT`] when tracing is off or the buffer is full).
    pub fn open(&self, name: &'static str, parent: u32, op: u64) -> u32 {
        if !self.on {
            return ROOT;
        }
        let start_ns = self.ns(Instant::now());
        self.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        })
    }

    pub fn close(&self, id: u32) {
        if !self.on || id == ROOT {
            return;
        }
        let end_ns = self.ns(Instant::now());
        let mut spans = self
            .spans
            .lock()
            .expect("span buffer lock is never poisoned");
        if let Some(span) = spans.get_mut(id as usize) {
            span.end_ns = end_ns;
        }
    }

    /// Records a span from `start` (taken with [`Tracer::now`]) to now;
    /// returns its id ([`ROOT`] when tracing is off or the buffer is full).
    pub fn record(&self, name: &'static str, parent: u32, op: u64, start: Option<Instant>) -> u32 {
        let (Some(start), Some(end)) = (start, self.now()) else {
            return ROOT;
        };
        self.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            op,
        })
    }

    /// Spans that did not fit in the buffer.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// A copy of every recorded span, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span buffer lock is never poisoned")
            .clone()
    }
}

/// Durations in nanoseconds of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// Self time in nanoseconds of every span named `name`: its duration
/// minus the durations of its children.
pub fn self_times(spans: &[Span], name: &str) -> Vec<f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(slot) = child_ns.get_mut(s.parent as usize) {
            *slot += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(&child_ns)
        .filter(|(s, _)| s.name == name)
        .map(|(s, &c)| s.dur_ns().saturating_sub(c) as f64)
        .collect()
}

/// Renders spans as JSON lines: `{"id","name","start_ns","end_ns","parent","op"}`.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for (id, s) in spans.iter().enumerate() {
        let parent = if s.parent == ROOT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        let _ = writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
            s.name, s.start_ns, s.end_ns, s.op
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "op",
                start_ns: 0,
                end_ns: 100,
                parent: ROOT,
                op: 0,
            },
            Span {
                name: "child",
                start_ns: 10,
                end_ns: 40,
                parent: 0,
                op: 0,
            },
            Span {
                name: "child",
                start_ns: 50,
                end_ns: 60,
                parent: 0,
                op: 0,
            },
        ];
        assert_eq!(self_times(&spans, "op"), vec![60.0]);
        assert_eq!(durations(&spans, "child"), vec![30.0, 10.0]);
    }

    #[test]
    fn off_tracer_records_nothing_and_full_buffer_drops() {
        let off = Tracer::new(false, 4);
        assert_eq!(off.open("x", ROOT, 0), ROOT);
        assert!(off.spans().is_empty());
        let on = Tracer::new(true, 1);
        let a = on.open("a", ROOT, 0);
        on.close(a);
        assert_eq!(on.open("b", ROOT, 0), ROOT);
        assert_eq!(on.dropped(), 1);
        assert_eq!(on.spans().len(), 1);
    }
}
