//! Spans recorded by the benchmark around each call it makes into a layer.
//!
//! A span has a name (`module.function`), a start and an end, the span
//! that caused it, and the id of the request it belongs to. Spans stay in
//! memory while the run measures, are written out when it ends, and are
//! reduced to self times: a span's duration minus the part its children
//! cover. The program's own tracing (`ExecOptions::trace`, `ftsl-obs`)
//! stays off.

use crate::stats::Samples;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(u32);

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// `module.function` of the call the span covers.
    pub name: &'static str,
    /// Request the span belongs to.
    pub request: u32,
    /// The span that caused this one, if any.
    pub parent: Option<SpanId>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    requests: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            requests: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Allocate a new request id.
    pub fn request(&mut self) -> u32 {
        self.requests += 1;
        self.requests
    }

    /// Open a span.
    pub fn open(&mut self, name: &'static str, request: u32, parent: Option<SpanId>) -> SpanId {
        let id = SpanId(u32::try_from(self.spans.len()).expect("fewer than 2^32 spans"));
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: 0,
        });
        id
    }

    /// Close a span; returns its duration in nanoseconds.
    pub fn close(&mut self, id: SpanId) -> u64 {
        let end = self.now_ns();
        let span = &mut self.spans[id.0 as usize];
        span.end_ns = end;
        span.duration_ns()
    }

    /// Summed duration of the closed spans whose parent is `parent`.
    pub fn children_ns(&self, parent: SpanId) -> u64 {
        self.spans[parent.0 as usize + 1..]
            .iter()
            .filter(|s| s.parent == Some(parent) && s.end_ns != 0)
            .map(Span::duration_ns)
            .sum()
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every closed span, grouped by span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, Samples> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                covered[p.0 as usize] += span.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, Samples> = BTreeMap::new();
        for (span, &child) in self.spans.iter().zip(&covered) {
            if span.end_ns != 0 {
                out.entry(span.name)
                    .or_default()
                    .push_ns(span.duration_ns().saturating_sub(child));
            }
        }
        out
    }

    /// Write the first `limit` spans as JSON lines to `path`.
    pub fn write_jsonl(&self, path: &Path, limit: usize) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().take(limit).enumerate() {
            let parent = s.parent.map_or(-1, |p| i64::from(p.0));
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let req = t.request();
        let root = t.open("bench.request", req, None);
        let child = t.open("lang.parse", req, Some(root));
        std::thread::sleep(std::time::Duration::from_millis(2));
        let child_ns = t.close(child);
        let root_ns = t.close(root);
        let selfs = t.self_times();
        let mut root_self = selfs["bench.request"].clone();
        assert!(root_ns >= child_ns);
        let expect_us = (root_ns - child_ns) as f64 / 1e3;
        assert!((root_self.p50_us() - expect_us).abs() < 1e-9);
        assert_eq!(t.spans()[1].parent, Some(root));
        assert_eq!(t.children_ns(root), child_ns);
    }
}
