//! Spans recorded by the benchmark around its calls into each layer, kept
//! in memory and written out as Chrome trace-event JSON (which Perfetto and
//! `chrome://tracing` open).

use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// The layer call it wraps.
    pub name: String,
    /// The request it belongs to; all spans of one request share it.
    pub req: u64,
    /// Index of the enclosing span in the same recorder, if any.
    pub parent: Option<usize>,
    /// Start, in microseconds since the recorder's origin.
    pub start_us: f64,
    /// End, in microseconds since the recorder's origin.
    pub end_us: f64,
    /// The trace row the span is drawn on: requests in flight at the same
    /// time get rows of their own.
    pub lane: u64,
}

impl Span {
    /// The span's duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// Records nested spans.  A disabled recorder records nothing, so the same
/// code runs the traced and the untraced pass.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `on == false` makes every call a no-op.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &str, req: u64) {
        if !self.on {
            return;
        }
        let now = self.origin.elapsed().as_secs_f64() * 1e6;
        self.spans.push(Span {
            name: name.to_string(),
            req,
            parent: self.open.last().copied(),
            start_us: now,
            end_us: now,
            lane: 1,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let idx = self.open.pop().expect("end() matches an earlier begin()");
        self.spans[idx].end_us = self.origin.elapsed().as_secs_f64() * 1e6;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &str, req: u64, f: impl FnOnce() -> T) -> T {
        self.begin(name, req);
        let out = f();
        self.end();
        out
    }

    /// Records a finished span directly (for intervals measured elsewhere,
    /// such as a daemon request, whose send and receipt are known).
    pub fn record(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Microseconds since the recorder's origin.
    pub fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// The finished spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Sum of the durations (ms) of the spans called `name`.
pub fn total_ms(spans: &[Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).map(Span::ms).sum()
}

/// For each root span (a request): its id, its wall time, and the part of
/// it no child span covers (its own self time), in ms.  The layer self
/// times of a request add up to its wall time minus exactly this part.
pub fn unattributed_ms(spans: &[Span]) -> Vec<(u64, f64, f64)> {
    let mut child_ms = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ms[p] += s.ms();
        }
    }
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.parent.is_none())
        .map(|(i, s)| (s.req, s.ms(), (s.ms() - child_ms[i]).max(0.0)))
        .collect()
}

/// Renders spans as a Chrome trace-event JSON document.  `groups` pairs a
/// process label with its spans; each group becomes one trace process.
pub fn chrome_trace(groups: &[(String, Vec<Span>)]) -> String {
    let mut events = Vec::new();
    for (pid, (label, spans)) in groups.iter().enumerate() {
        events.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\"args\":{{\"name\":{}}}}}",
            pid + 1,
            flux_bench::json::quote(label)
        ));
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            events.push(format!(
                "{{\"name\":{},\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":{},\"tid\":{},\"args\":{{\"req\":{},\"span\":{i},\"parent\":{parent}}}}}",
                flux_bench::json::quote(&s.name),
                s.start_us,
                (s.end_us - s.start_us).max(0.0),
                pid + 1,
                s.lane,
                s.req,
            ));
        }
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        events.join(",\n")
    )
}
