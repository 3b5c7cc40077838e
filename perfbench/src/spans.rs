//! The traced pass's spans: one record per call into a layer, held in
//! memory and written as JSON Lines when the run ends.

use std::io::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    /// The query a span belongs to; spans of one query share it.
    query: Option<u64>,
}

/// Span recorder. Disabled on the untraced pass, where `open`/`close`
/// record nothing.
pub struct Spans {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

/// Handle of an open span.
#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Self {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: parent.0,
            query: None,
        });
        SpanId(Some(self.spans.len() - 1))
    }

    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.spans[i].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Records a finished span from its own clock readings.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, query: Option<u64>) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: None,
            query,
        });
    }

    /// Writes every span to `path` as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if !self.enabled {
            return Ok(());
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            write!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                s.name, s.start_ns, s.end_ns
            )?;
            if let Some(p) = s.parent {
                write!(w, ",\"parent\":{p}")?;
            }
            if let Some(q) = s.query {
                write!(w, ",\"query\":{q}")?;
            }
            writeln!(w, "}}")?;
        }
        w.flush()
    }

    pub const ROOT: SpanId = SpanId(None);
}
