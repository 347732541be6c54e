//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded by the benchmark around its calls into the program's
//! public API; nothing inside the program is instrumented. Every span
//! carries the id of the result it belongs to and the index of the span
//! that encloses it. The spans stay in memory until the pass ends and are
//! then written out in one go, so file I/O never lands inside a measured
//! interval.

use std::fmt::Write as _;
use std::time::Instant;

/// Name of the span enclosing one whole result.
pub const RESULT: &str = "result";

/// One closed span. Times are nanoseconds since the recorder's epoch.
pub struct Span {
    pub name: &'static str,
    pub result: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder. A disabled recorder records nothing and costs one
/// branch per span.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    result: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            result: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; every span opened before the matching [`Tracer::end`]
    /// is its child.
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            result: self.result,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let idx = self.open.pop().expect("end() without a matching begin()");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Record `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Start a new result: its spans share the id `id`, and the enclosing
    /// [`RESULT`] span is opened.
    pub fn begin_result(&mut self, id: u64) {
        self.result = id;
        self.begin(RESULT);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the part its direct
    /// children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// The share of result wall time that the named layer spans account
    /// for: the self times of every span below a [`RESULT`] span, over the
    /// summed durations of the [`RESULT`] spans. What is missing is glue
    /// between the calls that no layer span covers.
    pub fn coverage(&self) -> f64 {
        let own = self.self_times();
        let (mut covered, mut total) = (0u64, 0u64);
        for (s, &o) in self.spans.iter().zip(&own) {
            if s.name == RESULT {
                total += s.dur_ns();
            } else {
                covered += o;
            }
        }
        covered as f64 / total.max(1) as f64
    }

    /// Every span's summed duration per result, for the spans named `name`.
    pub fn per_result_ns(&self, name: &str) -> Vec<u64> {
        let mut out: Vec<(u64, u64)> = Vec::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            match out.last_mut() {
                Some((r, ns)) if *r == s.result => *ns += s.dur_ns(),
                _ => out.push((s.result, s.dur_ns())),
            }
        }
        out.into_iter().map(|(_, ns)| ns).collect()
    }

    /// The spans as JSON lines, after a `header` line.
    pub fn to_jsonl(&self, header: &str) -> String {
        let own = self.self_times();
        let mut s = String::with_capacity(128 * (self.spans.len() + 1));
        s.push_str(header);
        s.push('\n');
        for (i, (sp, o)) in self.spans.iter().zip(own).enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                s,
                "{{\"id\": {i}, \"result\": {}, \"name\": \"{}\", \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {o}}}",
                sp.result, sp.name, sp.start_ns, sp.end_ns
            );
        }
        s
    }
}
