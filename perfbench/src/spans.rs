//! In-memory spans for the traced run, recorded from the benchmark's own
//! side of each layer boundary and written out once the run ends.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One timed interval. `id` ties together the spans of one op (or one
/// phase); `parent` is the index of the enclosing span, if any.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// A span log. When disabled, recording is a no-op, so the untraced
/// run pays only the branch.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            epoch: Instant::now(),
            enabled,
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished interval; returns its index (for children).
    pub fn record(
        &self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let mut spans = self.spans.lock().expect("span log poisoned");
        spans.push(Span {
            name,
            id,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        Some(spans.len() - 1)
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, id, parent, start, Instant::now());
        out
    }

    /// Opens a phase span now; close it with [`Spans::close`].
    pub fn open(&self, name: &'static str) -> Option<usize> {
        let now = Instant::now();
        self.record(name, 0, None, now, now)
    }

    pub fn close(&self, idx: Option<usize>) {
        if let Some(i) = idx {
            let end = self.ns(Instant::now());
            self.spans.lock().expect("span log poisoned")[i].end_ns = end;
        }
    }

    /// Durations in microseconds of every span with this name.
    pub fn micros_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span log poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::micros)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span log poisoned").iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, parent, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
