//! In-memory spans around the benchmark's calls into each layer, written
//! out as JSON when the traced run ends.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

impl SpanId {
    /// The parent of a top-level span.
    pub const ROOT: SpanId = SpanId(None);
}

struct Span {
    name: String,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
    /// Calls summarised by the span: 1 for an ordinary span, the call
    /// count for a replay span that stands for many calls.
    calls: u64,
    /// Time inside the summarised calls; equals `end - start` for an
    /// ordinary span.
    total: Duration,
}

/// The span log of one process. A disabled log records nothing, so the
/// untraced passes carry no tracing cost.
pub struct Spans {
    origin: Option<Instant>,
    spans: Vec<Span>,
}

impl Spans {
    /// A log that records (`on`) or ignores every span.
    #[must_use]
    pub fn new(on: bool) -> Self {
        Spans {
            origin: on.then(Instant::now),
            spans: Vec::new(),
        }
    }

    fn since_origin(&self) -> Option<Duration> {
        self.origin.map(|o| o.elapsed())
    }

    /// Open a span named `name` under `parent`.
    pub fn open(&mut self, name: impl Into<String>, parent: SpanId) -> SpanId {
        let Some(now) = self.since_origin() else {
            return SpanId(None);
        };
        self.spans.push(Span {
            name: name.into(),
            parent: parent.0,
            start: now,
            end: now,
            calls: 1,
            total: Duration::ZERO,
        });
        SpanId(Some(self.spans.len() - 1))
    }

    /// Close `id`, stamping its end time.
    pub fn close(&mut self, id: SpanId) {
        if let (Some(i), Some(now)) = (id.0, self.since_origin()) {
            let s = &mut self.spans[i];
            s.end = now;
            s.total = now - s.start;
        }
    }

    /// Record one span that stands for `calls` calls taking `total` in all,
    /// ending now.
    pub fn summary(
        &mut self,
        name: impl Into<String>,
        parent: SpanId,
        calls: u64,
        total: Duration,
    ) {
        let Some(now) = self.since_origin() else {
            return;
        };
        self.spans.push(Span {
            name: name.into(),
            parent: parent.0,
            start: now.saturating_sub(total),
            end: now,
            calls,
            total,
        });
    }

    /// The log as a JSON array, one object per span.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let mut name = String::new();
            ccsim_experiments::json::escape(&s.name, &mut name);
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"parent\": {parent}, \"name\": {name}, \"start_ns\": {}, \
                 \"end_ns\": {}, \"calls\": {}, \"total_ns\": {}}}",
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.calls,
                s.total.as_nanos()
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}
