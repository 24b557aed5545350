//! The benchmark's own span recorder. Spans wrap the calls the
//! benchmark makes into each layer, from outside; the program under
//! test is not instrumented. Spans stay in memory until the run ends.

use crate::harness::json_str;
use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one; 0 for a root.
    pub parent: u32,
    /// Spans of one request share this.
    pub request: u32,
    pub name: &'static str,
    /// Nanoseconds since the Unix epoch, so that spans of a child
    /// process line up with the parent's.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// One thread's recorder. Timing happens whether or not recording is
/// on, so traced and untraced passes run the same code apart from the
/// push of a record.
pub struct Tracer {
    on: bool,
    /// Span ids are `lane << 24 | counter`, so recorders of several
    /// threads or processes never collide.
    lane: u32,
    count: u32,
    epoch: Instant,
    epoch_unix_ns: u64,
    requests: u32,
    request: u32,
    stack: Vec<u32>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, lane: u32) -> Tracer {
        let epoch_unix_ns = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64);
        Tracer {
            on,
            lane,
            count: 0,
            epoch: Instant::now(),
            epoch_unix_ns,
            requests: 0,
            request: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Starts a new request: later spans carry its identifier.
    pub fn next_request(&mut self) {
        self.requests += 1;
        self.request = (self.lane << 24) | self.requests;
    }

    fn now_ns(&self) -> u64 {
        self.epoch_unix_ns + self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`; returns its result and
    /// how long it took, in seconds.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        let (r, secs) = self.span_named(|t| (name, f(t)));
        (r, secs)
    }

    /// As [`span`](Tracer::span), for a call whose layer is only known
    /// once it returns (a compile is a search or a cache hit).
    pub fn span_named<R>(&mut self, f: impl FnOnce(&mut Tracer) -> (&'static str, R)) -> (R, f64) {
        if !self.on {
            let t0 = Instant::now();
            let (_, r) = f(self);
            return (r, t0.elapsed().as_secs_f64());
        }
        self.count += 1;
        let id = (self.lane << 24) | self.count;
        let parent = self.stack.last().copied().unwrap_or(0);
        self.stack.push(id);
        let start_ns = self.now_ns();
        let (name, r) = f(self);
        let end_ns = self.now_ns();
        self.stack.pop();
        self.spans.push(Span {
            id,
            parent,
            request: self.request,
            name,
            start_ns,
            end_ns,
        });
        (r, (end_ns - start_ns) as f64 * 1e-9)
    }

    /// Adopts spans recorded elsewhere (another thread, a child
    /// process) under the currently open span.
    pub fn adopt(&mut self, mut spans: Vec<Span>) {
        if !self.on {
            return;
        }
        let parent = self.stack.last().copied().unwrap_or(0);
        for s in &mut spans {
            if s.parent == 0 {
                s.parent = parent;
            }
            s.request = self.request;
        }
        self.spans.extend(spans);
    }
}

/// Self time of every span (its duration minus what its direct
/// children cover), in seconds, grouped by span name.
pub fn self_times(spans: &[Span]) -> HashMap<&'static str, Vec<f64>> {
    let mut child_time: HashMap<u32, f64> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_time.entry(s.parent).or_default() += s.seconds();
        }
    }
    let mut out: HashMap<&'static str, Vec<f64>> = HashMap::new();
    for s in spans {
        let own = s.seconds() - child_time.get(&s.id).copied().unwrap_or(0.0);
        out.entry(s.name).or_default().push(own.max(0.0));
    }
    out
}

/// Writes at most `cap` spans as JSON, and says how many there were.
pub fn write_spans(path: &Path, workload: &str, spans: &[Span], cap: usize) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(
        w,
        "{{\"workload\": {}, \"recorded\": {}, \"written\": {}, \"spans\": [",
        json_str(workload),
        spans.len(),
        spans.len().min(cap)
    )?;
    for (i, s) in spans.iter().take(cap).enumerate() {
        if i > 0 {
            w.write_all(b",")?;
        }
        write!(
            w,
            "\n{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.id,
            s.parent,
            s.request,
            json_str(s.name),
            s.start_ns,
            s.end_ns
        )?;
    }
    w.write_all(b"\n]}\n")?;
    w.flush()
}
