//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer: name, start, end, parent span and
//! request id. Spans are opened and closed from the benchmark's own code
//! around public library calls, kept in memory, and written out as JSON
//! lines when the run ends. A layer's self time is its span's duration
//! minus the durations of its child spans (calls are serial, so children
//! never overlap).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `serve.live_query`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to (inherited from the parent).
    pub req: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Records spans when enabled; a disabled recorder only runs the closure.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every call a plain pass-through.
    pub fn new(enabled: bool) -> Arc<Tracer> {
        Arc::new(Tracer { origin: Instant::now(), enabled, spans: Mutex::new(Vec::new()) })
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`. `req` is used for a root span;
    /// nested spans inherit their parent's request id.
    pub fn span<T>(&self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let parent = OPEN.with(|o| o.borrow().last().copied());
        let id = {
            let mut spans = self.spans.lock().expect("span recorder poisoned");
            let req = parent.map_or(req, |p| spans[p].req);
            spans.push(Span { name, start_ns: 0, end_ns: 0, parent, req });
            spans.len() - 1
        };
        OPEN.with(|o| o.borrow_mut().push(id));
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        OPEN.with(|o| o.borrow_mut().pop());
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        spans[id].start_ns = start;
        spans[id].end_ns = end;
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span recorder poisoned").clone()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut text = String::with_capacity(spans.len() * 96);
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

/// Duration and self time (µs) of every span, grouped by name.
#[derive(Debug, Default)]
pub struct LayerTimes {
    /// Span durations per name.
    pub total_us: BTreeMap<&'static str, Vec<f64>>,
    /// Span self times per name.
    pub self_us: BTreeMap<&'static str, Vec<f64>>,
}

/// Self time of every span: its duration minus its children's.
pub fn layer_times(spans: &[Span]) -> LayerTimes {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out = LayerTimes::default();
    for (s, &c) in spans.iter().zip(&child_ns) {
        out.total_us.entry(s.name).or_default().push(s.dur_ns() as f64 / 1e3);
        out.self_us.entry(s.name).or_default().push(s.dur_ns().saturating_sub(c) as f64 / 1e3);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        t.span("root", 7, || {
            t.span("child", 0, || std::thread::sleep(std::time::Duration::from_millis(3)));
            t.span("child", 0, || std::thread::sleep(std::time::Duration::from_millis(3)));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.req == 7));
        assert_eq!(spans[1].parent, Some(0));
        let lt = layer_times(&spans);
        let root_total = lt.total_us["root"][0];
        let root_self = lt.self_us["root"][0];
        let children: f64 = lt.total_us["child"].iter().sum();
        assert!(children >= 6000.0);
        assert!((root_total - children - root_self).abs() < 1e-6);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", 1, || 5), 5);
        assert!(t.spans().is_empty());
    }
}
