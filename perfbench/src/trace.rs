//! In-memory spans recorded around the public layer calls, written out
//! when the run ends.
//!
//! A span has a name (`<layer>.<stage>`), a start and an end, the span
//! that caused it, and an id shared by every span of one request or one
//! (bench, mechanism) pair. A span's self time is its duration minus the
//! time its child spans cover; children of one span run one after
//! another on the parent's thread, so that is the sum of their
//! durations.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<stage>`.
    pub name: &'static str,
    /// Request or pair id.
    pub id: u64,
    /// Index of the parent span.
    pub parent: Option<usize>,
    /// Start, in ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, in ns since the tracer's epoch (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, id: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("a tracing thread panicked");
        spans.push(Span { name, id, parent, start_ns, end_ns: 0 });
        spans.len() - 1
    }

    /// Close the span `open` returned.
    pub fn close(&self, span: usize) {
        let end_ns = self.now_ns();
        self.spans.lock().expect("a tracing thread panicked")[span].end_ns = end_ns;
    }

    /// Run `f` inside a span.
    pub fn span<R>(
        &self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let span = self.open(name, id, parent);
        let out = f();
        self.close(span);
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("a tracing thread panicked")
    }
}

/// Per-name aggregate of a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Stage {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times, ns.
    pub self_ns: u64,
}

impl Stage {
    /// Total duration in ms.
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }

    /// Mean duration per span in µs (0 when no span ran).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / 1e3 / self.count as f64
        }
    }
}

/// Aggregate spans by name, with self times.
pub fn stages(spans: &[Span]) -> BTreeMap<&'static str, Stage> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            child_ns[p] += span.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, Stage> = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_ns) {
        let stage = out.entry(span.name).or_default();
        stage.count += 1;
        stage.total_ns += span.dur_ns();
        stage.self_ns += span.dur_ns().saturating_sub(children);
    }
    out
}

/// Human-readable self-time table, largest self time first, ending
/// with the stage that has the largest self time.
pub fn self_time_table(stages: &BTreeMap<&'static str, Stage>, title: &str) -> Vec<String> {
    let mut rows: Vec<_> = stages.iter().collect();
    rows.sort_by_key(|(_, s)| std::cmp::Reverse(s.self_ns));
    let mut out = vec![format!("{title} (ms):")];
    for (name, s) in &rows {
        out.push(format!(
            "  {name:<20} self {:>12.3}  total {:>12.3}  n={}",
            s.self_ns as f64 / 1e6,
            s.total_ms(),
            s.count
        ));
    }
    if let Some((name, _)) = rows.first() {
        out.push(format!("largest self time: {name}"));
    }
    out
}

/// Write spans as JSON lines (`name`, `id`, `parent`, `start_ns`,
/// `end_ns`).
pub fn write_spans(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut text = String::with_capacity(spans.len() * 80);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            text,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.id, s.start_ns, s.end_ns
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span { name: "root", id: 0, parent: None, start_ns: 0, end_ns: 100 },
            Span { name: "a", id: 0, parent: Some(0), start_ns: 10, end_ns: 40 },
            Span { name: "b", id: 0, parent: Some(0), start_ns: 40, end_ns: 90 },
            Span { name: "a", id: 1, parent: None, start_ns: 0, end_ns: 5 },
        ];
        let st = stages(&spans);
        assert_eq!(st["root"], Stage { count: 1, total_ns: 100, self_ns: 20 });
        assert_eq!(st["a"], Stage { count: 2, total_ns: 35, self_ns: 35 });
        assert_eq!(st["b"].self_ns, 50);
    }

    #[test]
    fn tracer_nests_spans() {
        let t = Tracer::new();
        let root = t.open("root", 7, None);
        let x = t.span("child", 7, Some(root), || 41 + 1);
        t.close(root);
        assert_eq!(x, 42);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
