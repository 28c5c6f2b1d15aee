//! In-memory spans for the traced run.
//!
//! Spans are recorded around the calls the benchmark itself makes into each
//! layer (submit/collect into `sd-serve`, the replayed `sd-core` and
//! `sd-math` entry points) and reconstructed from the stage durations each
//! response reports. They stay in memory and are written out once, as JSON
//! lines, when the run ends.

use crate::json;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub struct Span {
    pub parent: Option<u32>,
    pub name: &'static str,
    /// Request sequence number (or pool slot, for replay spans).
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(t0: Instant) -> Self {
        Tracer {
            t0,
            spans: Vec::new(),
        }
    }

    /// `t` as nanoseconds since the tracer's origin.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Record a span and return its id, for children to name as parent.
    pub fn span(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let span = Span {
            parent,
            name,
            req,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.push(span)
    }

    /// Record a span given offsets (ns since the tracer's origin).
    pub fn push(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Close a span opened with `start == end`, once its end is known.
    pub fn end(&mut self, id: u32, end: Instant) {
        let ns = self.ns(end);
        self.spans[id as usize].end_ns = ns;
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as one JSON line to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": {}, \"req\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                json::string(s.name),
                s.req,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Where a run's outputs go: `$CARGO_TARGET_DIR/sdbench` when cargo's
/// target directory is redirected, `target/sdbench` otherwise (relative to
/// the working directory, the repository root).
pub fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    target.join("sdbench")
}
