//! Spans recorded by the harness around its calls into each layer, kept
//! in memory and written out once when the run ends.

use crate::stats::{self_times, Span};
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Spans kept per run. A `wire_tiny` run makes ~70 000 requests in its
/// traced half-seconds; the file keeps the first of them and counts the
/// rest, which is enough to read a tree and bounds memory.
const CAPACITY: usize = 20_000;

pub struct Recorder {
    spans: Vec<Span>,
    epoch: Instant,
    next_id: u32,
    next_request: u64,
    dropped: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            spans: Vec::with_capacity(CAPACITY),
            epoch: Instant::now(),
            next_id: 1,
            next_request: 1,
            dropped: 0,
        }
    }

    /// Nanoseconds since the recorder was made.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// `t` on the recorder's time line (zero for an earlier instant).
    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// A fresh identifier for the spans of one request, push or pass.
    fn request(&mut self) -> u64 {
        self.next_request += 1;
        self.next_request - 1
    }

    /// Record one finished span; returns its id for children to name.
    fn push(
        &mut self,
        parent: Option<u32>,
        request: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        if self.spans.len() < CAPACITY {
            self.spans.push(Span {
                id,
                parent,
                request,
                name,
                start_ns,
                end_ns,
            });
        } else {
            self.dropped += 1;
        }
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every kept span, with its self time, as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let selfs = self_times(&self.spans);
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"kept\": {}, \"dropped\": {}, \"spans\": [",
            self.spans.len(),
            self.dropped
        )?;
        for (i, (s, self_ns)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "  {{\"id\": {}, \"parent\": {parent}, \"request\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}{}",
                s.id,
                s.request,
                s.name,
                s.start_ns,
                s.end_ns,
                if i + 1 < self.spans.len() { "," } else { "" }
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// A recorded span that children can still be attached to.
#[derive(Debug, Clone, Copy)]
pub struct Node {
    pub id: u32,
    request: u64,
    cursor_ns: u64,
    end_ns: u64,
}

impl Recorder {
    /// Record a span whose start and end were read from the clock, as the
    /// root of a new request or under `parent`.
    pub fn span(
        &mut self,
        parent: Option<&Node>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> Node {
        let request = parent.map_or_else(|| self.request(), |p| p.request);
        let id = self.push(parent.map(|p| p.id), request, name, start_ns, end_ns);
        Node {
            id,
            request,
            cursor_ns: start_ns,
            end_ns,
        }
    }

    /// Record a child known only by how long it took (measured on its
    /// own, or reported by the callee): it is laid after the parent's
    /// earlier such children and cut at the parent's end. The self times
    /// of a tree built this way always add up to its root, and what no
    /// child accounts for is the parent's self time, the explicit
    /// remainder.
    pub fn lay(&mut self, parent: &mut Node, name: &'static str, dur_ns: u64) -> Node {
        let start = parent.cursor_ns;
        let end = (start + dur_ns).min(parent.end_ns);
        parent.cursor_ns = end;
        self.span(Some(parent), name, start, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_self_times_add_up_to_the_root() {
        let mut rec = Recorder::new();
        let mut root = rec.span(None, "request", 5000, 6000);
        rec.lay(&mut root, "codec", 100);
        let mut submit = rec.lay(&mut root, "submit_wait", 700);
        let mut predict = rec.lay(&mut submit, "predict", 600);
        rec.lay(&mut predict, "embed", 250);
        // Measured apart, the stages can add up to more than the parent
        // they are laid into; the overhang is cut.
        rec.lay(&mut predict, "encoder", 500);
        let selfs = self_times(rec.spans());
        assert_eq!(selfs.iter().sum::<u64>(), 1000);
        let by_name = |n: &str| {
            let i = rec.spans().iter().position(|s| s.name == n).unwrap();
            selfs[i]
        };
        assert_eq!(by_name("request"), 200, "what no child covers");
        assert_eq!(by_name("submit_wait"), 100);
        assert_eq!(by_name("predict"), 0);
        assert_eq!(by_name("encoder"), 350);
        assert!(rec.spans().iter().all(|s| s.request == root.request));
        assert_ne!(rec.span(None, "next", 0, 1).request, root.request);
    }

    #[test]
    fn spans_beyond_capacity_are_counted_not_kept() {
        let mut rec = Recorder::new();
        for i in 0..(CAPACITY as u64 + 5) {
            rec.push(None, i, "r", i, i + 1);
        }
        assert_eq!(rec.spans().len(), CAPACITY);
        assert_eq!(rec.dropped, 5);
    }
}
