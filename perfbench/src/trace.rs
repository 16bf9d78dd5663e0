//! Benchmark-side spans: wall-clock intervals recorded around calls
//! into the library's public functions, kept in memory for the whole
//! traced run and written out once when it ends. The library itself is
//! never instrumented — its determinism lint keeps wall clocks out.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats::Span;

/// In-memory span recorder for one traced run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    op: u64,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            op: 0,
        }
    }

    /// Attribute the spans that follow to op `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` under `parent`; returns the
    /// span id with `f`'s result.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        f: impl FnOnce() -> R,
    ) -> (u32, R) {
        let start_ns = self.now_ns();
        let r = f();
        let end_ns = self.now_ns();
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            op: self.op,
            name,
            parent,
            start_ns,
            end_ns,
        });
        (id, r)
    }

    /// [`Self::span`] for a call whose span id is not needed.
    pub fn time<R>(&mut self, name: &'static str, parent: Option<u32>, f: impl FnOnce() -> R) -> R {
        self.span(name, parent, f).1
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans as JSON lines (`id`, `op`, `name`, `parent`,
    /// `start_ns`, `end_ns`) to `path`, creating its directory.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"op\":{},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.op, s.name, parent, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
