//! Spans recorded by the traced run around calls into each layer: name,
//! start, end, parent and the cell (or unit) they belong to. Kept in
//! memory and written out once, when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use full_lock::harness::json::Json;

/// Index of a span in its [`Trace`].
pub type SpanId = usize;

struct Span {
    name: &'static str,
    cell: String,
    parent: Option<SpanId>,
    start: Instant,
    end: Option<Instant>,
}

/// An in-memory span log.
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span starting now.
    pub fn open(&mut self, name: &'static str, cell: &str, parent: Option<SpanId>) -> SpanId {
        self.record(name, cell, parent, Instant::now(), None)
    }

    /// Closes a span at now.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end = Some(Instant::now());
    }

    /// Records a span whose interval was measured elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        cell: &str,
        parent: Option<SpanId>,
        start: Instant,
        end: Option<Instant>,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            cell: cell.to_string(),
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes one JSON object per span (times in seconds since the trace
    /// began); an unclosed span gets a null end.
    pub fn write_ndjson(&self, path: &Path) -> std::io::Result<()> {
        let secs = |t: Instant| Json::Float(t.saturating_duration_since(self.epoch).as_secs_f64());
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let line = Json::Object(vec![
                ("id".into(), Json::Int(id as u64)),
                (
                    "parent".into(),
                    span.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                ),
                ("name".into(), Json::Str(span.name.into())),
                ("cell".into(), Json::Str(span.cell.clone())),
                ("start_s".into(), secs(span.start)),
                ("end_s".into(), span.end.map_or(Json::Null, secs)),
            ]);
            writeln!(out, "{}", line.to_text())?;
        }
        out.flush()
    }
}
