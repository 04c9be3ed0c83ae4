//! The benchmark's only host clock, and the spans it records in traced
//! runs.
//!
//! Every wall-time number the benchmark prints starts at [`now`]. In a
//! traced run each call the benchmark makes into a layer is wrapped in a
//! [`Span`]: its name, start, end, parent span and request id. Spans stay
//! in memory while the run measures and are written out as JSON lines
//! when it ends, so writing them never lands inside a timed region.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Reads the host clock.
pub fn now() -> Instant {
    Instant::now() // lint: allow(L1: the benchmark times the program from outside; this is its one clock read)
}

/// Seconds since `t0`.
pub fn secs_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// One recorded call into a layer. Times are microseconds since the
/// recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub request: u64,
    pub start_us: f64,
    pub end_us: f64,
}

/// A span that has begun and not yet ended.
#[derive(Debug)]
pub struct Open {
    pub id: u64,
    parent: Option<u64>,
    name: &'static str,
    request: u64,
    start: Instant,
}

/// A per-thread span log. A disabled recorder still times calls but
/// keeps nothing.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    /// Span ids are `thread << 48 | n`, so logs from several client
    /// threads merge without collisions.
    thread: u64,
    next: u64,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool, epoch: Instant, thread: u64) -> Recorder {
        Recorder {
            enabled,
            epoch,
            thread,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// A recorder for another thread of the same run.
    pub fn for_thread(&self, thread: u64) -> Recorder {
        Recorder::new(self.enabled, self.epoch, thread)
    }

    /// Begins a span now.
    pub fn begin(&mut self, name: &'static str, parent: Option<u64>, request: u64) -> Open {
        self.next += 1;
        Open {
            id: (self.thread << 48) | self.next,
            parent,
            name,
            request,
            start: now(),
        }
    }

    /// Ends a span now; returns its wall seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let end = now();
        if self.enabled {
            let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
            self.spans.push(Span {
                id: open.id,
                parent: open.parent,
                name: open.name,
                request: open.request,
                start_us: us(open.start),
                end_us: us(end),
            });
        }
        (end - open.start).as_secs_f64()
    }

    /// Records a span that began at `start` and ends now.
    pub fn since(&mut self, name: &'static str, request: u64, start: Instant) -> f64 {
        let mut open = self.begin(name, None, request);
        open.start = start;
        self.end(open)
    }

    /// Runs `f` inside a span; returns its result and wall seconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let open = self.begin(name, parent, request);
        let out = f();
        (out, self.end(open))
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Appends another thread's spans.
    pub fn absorb(&mut self, other: Recorder) {
        self.spans.extend(other.spans);
    }

    /// Writes the spans as JSON lines, ordered by start time.
    pub fn write_jsonl(&mut self, path: &Path) -> std::io::Result<()> {
        self.spans.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"request\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.id, s.name, s.request, s.start_us, s.end_us
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
