//! In-memory spans recorded by the benchmark around each call it makes
//! into a layer's public functions (name, start, end, parent). Spans are
//! kept in memory during the run and written out once at the end.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::Args;

/// The benchmark's own work between layer calls (bookkeeping, digests).
pub const BENCH: &str = "bench";

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    layer: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
}

/// A span recorder; a disabled recorder ignores every call.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span of `layer` nested in the innermost open span.
    pub fn begin(&mut self, name: &'static str, layer: &'static str) {
        if !self.on {
            return;
        }
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            layer,
            start: now,
            end: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let i = self.open.pop().expect("end without begin");
        self.spans[i].end = self.origin.elapsed();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, layer: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name, layer);
        let out = f();
        self.end();
        out
    }

    /// Total duration of every span called `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Self time per layer: each span's duration minus the part its
    /// children cover (children run on the same thread, in sequence).
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, Duration> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.layer).or_insert(Duration::ZERO) += (s.end - s.start).saturating_sub(c);
        }
        out
    }

    /// Writes the spans to `out/spans-<workload>-<seed>.jsonl` beside the
    /// benchmark's manifest.
    pub fn write_out(&self, args: Args) {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!(
                "spans-{}-{}.jsonl",
                args.workload.name(),
                args.seed
            ));
        if let Err(e) = self.write_jsonl(&path) {
            eprintln!("could not write {}: {e}", path.display());
        }
    }

    /// Writes every span as one JSON line: id, name, layer, start and end
    /// in microseconds since the recorder started, and the parent's id.
    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {id}, \"name\": \"{}\", \"layer\": \"{}\", \"start_us\": {:.3}, \
                 \"end_us\": {:.3}, \"parent\": {parent}}}",
                s.name,
                s.layer,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6
            )?;
        }
        w.flush()
    }
}
