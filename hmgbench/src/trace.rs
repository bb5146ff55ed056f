//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Off by default: an untraced run records nothing and the
//! `enter`/`exit` calls are a branch each.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call: its name, the span that caused it, and its start and
/// end in nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified call name, e.g. `gpu.run.hmg`.
    pub name: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Handle of an open span (a no-op handle when tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name`, nested in the innermost open span.
    pub fn enter(&mut self, name: &str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    /// Closes `id` (and any span left open inside it).
    pub fn exit(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        let end = self.now_ns();
        self.spans[idx].end_ns = end;
        while let Some(top) = self.open.pop() {
            if top == idx {
                break;
            }
        }
    }

    /// Total seconds of the spans named exactly `name`.
    pub fn secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |acc, s| acc + s.secs())
    }

    /// Writes the spans as tab-separated `index parent name start_ns end_ns`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
