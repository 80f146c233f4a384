//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start and end (nanoseconds since the run's origin),
//! the span that caused it, and the id of the request it belongs to. Spans
//! stay in memory during the run and are written as JSON lines when it ends.
//! Durations the program reports about itself (a response's `queue_ns`,
//! `total_ns`, `batch.latency_ns`, a build's `density_fit_ns`) become child
//! intervals of the span they were measured inside; only their lengths are
//! known, so they are laid out from the parent's start. A layer's self time
//! is its span's length minus the part its children cover.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Traced runs alternate untraced and traced slices of this length, so both
/// see the same warm-up and drift; the first slice is untraced.
pub const SLICE: Duration = Duration::from_millis(500);

/// Whether a request starting `elapsed` into the timed phase of a traced run
/// falls in a traced slice.
pub fn in_traced_slice(traced_run: bool, elapsed: Duration) -> bool {
    traced_run && (elapsed.as_nanos() / SLICE.as_nanos()) % 2 == 1
}

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `net.request` or `service.queue`.
    pub name: &'static str,
    /// Start, in nanoseconds since the trace's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace's origin.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Request the span belongs to.
    pub request: u64,
}

impl Span {
    fn len_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A growing list of spans sharing one time origin.
#[derive(Debug, Clone)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose times count from `origin`.
    pub fn new(origin: Instant) -> Self {
        Trace {
            origin,
            spans: Vec::new(),
        }
    }

    /// An empty trace with the same origin, for another thread to record
    /// into; merge it back with [`Trace::absorb`].
    pub fn sibling(&self) -> Trace {
        Trace::new(self.origin)
    }

    fn offset(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span measured by the benchmark and returns its index.
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.offset(start),
            end_ns: self.offset(end),
            parent,
            request,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Records an interval of `len_ns` the program reported, starting
    /// `after_ns` into `parent`, and returns its index.
    pub fn reported(
        &mut self,
        name: &'static str,
        parent: usize,
        after_ns: u64,
        len_ns: u64,
    ) -> usize {
        let start_ns = self.spans[parent].start_ns + after_ns;
        let request = self.spans[parent].request;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + len_ns,
            parent: Some(parent),
            request,
        });
        self.spans.len() - 1
    }

    /// Appends another trace's spans (same origin), keeping parent links.
    pub fn absorb(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + base);
            span
        }));
    }

    /// Lengths of every span named `name`, in nanoseconds.
    pub fn lengths(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::len_ns)
            .collect()
    }

    /// Self times of every span named `name`: its length minus the union of
    /// its children's intervals (clipped to it), in nanoseconds.
    pub fn self_times(&self, name: &str) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .filter(|(span, _)| span.name == name)
            .map(|(span, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0, span.start_ns);
                for (start, end) in kids {
                    let (start, end) = (start.max(reach), end.min(span.end_ns));
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                span.len_ns() - covered.min(span.len_ns())
            })
            .collect()
    }

    /// Writes the provenance line and then one JSON line per span.
    pub fn write(&self, path: &Path, provenance_json: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{provenance_json}")?;
        for span in &self.spans {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                span.name, span.start_ns, span.end_ns, span.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let origin = Instant::now();
        let mut trace = Trace::new(origin);
        let root = trace.span(
            "net.request",
            origin,
            origin + Duration::from_nanos(1_000),
            None,
            1,
        );
        let service = trace.reported("service.total", root, 0, 700);
        trace.reported("service.queue", service, 0, 300);
        trace.reported("engine.batch", service, 300, 200);
        // An overlapping child only counts once.
        trace.reported("engine.batch", service, 400, 200);
        assert_eq!(trace.self_times("net.request"), vec![300]);
        assert_eq!(trace.self_times("service.total"), vec![700 - 600]);
        assert_eq!(trace.lengths("engine.batch"), vec![200, 200]);
    }

    #[test]
    fn absorb_rebases_parents() {
        let origin = Instant::now();
        let mut a = Trace::new(origin);
        a.span("x", origin, origin + Duration::from_nanos(10), None, 0);
        let mut b = a.sibling();
        let root = b.span("y", origin, origin + Duration::from_nanos(10), None, 1);
        b.reported("z", root, 0, 5);
        a.absorb(b);
        // `z` still covers half of `y`, not of `x`.
        assert_eq!(a.self_times("y"), vec![5]);
        assert_eq!(a.self_times("x"), vec![10]);
    }

    #[test]
    fn slices_alternate_and_start_untraced() {
        assert!(!in_traced_slice(true, Duration::from_millis(10)));
        assert!(in_traced_slice(true, SLICE + Duration::from_millis(10)));
        assert!(!in_traced_slice(false, SLICE + Duration::from_millis(10)));
    }
}
