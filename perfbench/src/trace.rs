//! In-memory spans for the traced run. Spans are recorded by the
//! benchmark around its own calls into each layer's public functions and
//! written out when the run ends.

use crate::stats::Samples;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Where a call sits in the trace: the tracer (none in untraced runs),
/// the enclosing span and the request id. Copy it into every call that
/// wraps a layer.
#[derive(Clone, Copy)]
pub struct Trace<'a> {
    pub tracer: Option<&'a Tracer>,
    pub parent: Option<u32>,
    pub request: u64,
}

impl<'a> Trace<'a> {
    pub const OFF: Trace<'static> = Trace {
        tracer: None,
        parent: None,
        request: 0,
    };

    pub fn new(tracer: Option<&'a Tracer>, request: u64) -> Self {
        Trace {
            tracer,
            parent: None,
            request,
        }
    }

    /// Run `f` in a span named `name` (just run it when untraced).
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        match self.tracer {
            Some(t) => t.span(name, self.parent, self.request, f),
            None => f(),
        }
    }

    /// Run `f` in a span whose children `f` records through the `Trace`
    /// it is given.
    pub fn nest<T>(&self, name: &'static str, f: impl FnOnce(Trace<'a>) -> T) -> T {
        match self.tracer {
            Some(t) => {
                let id = t.open(name, self.parent, self.request);
                let out = f(Trace {
                    parent: Some(id),
                    ..*self
                });
                t.close(id);
                out
            }
            None => f(*self),
        }
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span that will have children; close it with
    /// [`Tracer::close`]. Returns the span id for children to name as
    /// their parent.
    pub fn open(&self, name: &'static str, parent: Option<u32>, request: u64) -> u32 {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span list poisoned");
        let id = spans.len() as u32;
        spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn close(&self, id: u32) {
        let end_ns = self.now_ns();
        self.spans.lock().expect("span list poisoned")[id as usize].end_ns = end_ns;
    }

    /// Run `f` inside a span that has no children: it is recorded once,
    /// when it ends.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span list poisoned");
        let id = spans.len() as u32;
        spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Durations of every span named `name`, in `scale` units per second
    /// (1e6 for µs, 1e3 for ms).
    pub fn durations(&self, name: &str, scale: f64) -> Samples {
        let mut out = Samples::default();
        for s in self.spans.lock().expect("span list poisoned").iter() {
            if s.name == name {
                out.push((s.end_ns - s.start_ns) as f64 * scale / 1e9);
            }
        }
        out
    }

    /// Self time per span name in seconds: each span's duration minus the
    /// part of it its children cover, summed by name.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64)> {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
        for s in spans.iter() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id as usize]);
            let slot = out.entry(s.name).or_default();
            slot.0 += 1;
            slot.1 += own as f64 / 1e9;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span list poisoned").iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
