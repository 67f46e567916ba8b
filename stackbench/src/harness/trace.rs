//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's files, around each client call
//! and each direct call into a layer: name, start, end, the span that
//! caused it, and the request it belongs to. They stay in memory and are
//! written as Chrome trace-event JSON when the run ends. A disabled
//! recorder costs one branch per call, so the untraced run shares the code
//! path.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. `parent` indexes the same recorder's span list.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// Spans of one request (a session, a probe) share this identifier.
    pub request: u64,
}

/// A handle to an open span; pass it back to [`Recorder::end`].
#[derive(Clone, Copy)]
pub struct Open(Option<u32>);

/// Per-thread span recorder. All recorders of a run share `epoch`, so
/// their timestamps line up on one timeline.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    /// Track (Chrome `tid`) of this recorder's spans.
    pub track: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Recorder {
    pub fn new(enabled: bool, epoch: Instant, track: u32) -> Recorder {
        Recorder {
            enabled,
            epoch,
            track,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn disabled() -> Recorder {
        Recorder::new(false, Instant::now(), 0)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            request,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Close `open` (and anything left open inside it).
    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let end_ns = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top as usize].end_ns = end_ns;
            if top == id {
                break;
            }
        }
    }

    /// Time `f` as one span.
    pub fn span<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, request);
        let result = f();
        self.end(open);
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Count, total and self time of every span name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the part covered by child spans.
    pub self_ns: u64,
}

/// Self-time table over the spans of several recorders.
pub fn self_times(recorders: &[Recorder]) -> BTreeMap<&'static str, NameTotals> {
    let mut table: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for rec in recorders {
        let mut child_ns = vec![0u64; rec.spans.len()];
        for span in &rec.spans {
            if let Some(p) = span.parent {
                child_ns[p as usize] += span.end_ns - span.start_ns;
            }
        }
        for (span, covered) in rec.spans.iter().zip(child_ns) {
            let dur = span.end_ns - span.start_ns;
            let row = table.entry(span.name).or_default();
            row.count += 1;
            row.total_ns += dur;
            row.self_ns += dur.saturating_sub(covered);
        }
    }
    table
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// (`"ph":"X"`) event per span, one `tid` per recorder, the request and
/// parent span in `args`.
pub fn chrome_json(recorders: &[Recorder]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    for rec in recorders {
        for (id, span) in rec.spans.iter().enumerate() {
            if !first {
                out.push(',');
            }
            first = false;
            let parent = span.parent.map_or(-1, i64::from);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"stackbench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent},\"request\":{}}}}}",
                span.name,
                rec.track,
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
                span.request
            );
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::disabled();
        let v = r.span("a", 1, || 7);
        assert_eq!(v, 7);
        assert!(r.spans().is_empty());
    }

    #[test]
    fn nesting_sets_parents_and_self_time_excludes_children() {
        let mut r = Recorder::new(true, Instant::now(), 3);
        let outer = r.begin("session", 9);
        r.span("client.open", 9, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        r.span("client.fetch", 9, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        r.end(outer);
        let spans = r.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 9));
        let table = self_times(std::slice::from_ref(&r));
        let session = table["session"];
        let children = table["client.open"].total_ns + table["client.fetch"].total_ns;
        assert_eq!(session.self_ns, session.total_ns - children);
        assert!(
            session.self_ns < children,
            "the session only sleeps in its children"
        );
    }

    #[test]
    fn chrome_json_lists_every_span() {
        let mut r = Recorder::new(true, Instant::now(), 1);
        r.span("a", 1, || ());
        r.span("b", 2, || ());
        let json = chrome_json(std::slice::from_ref(&r));
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"name\":\"b\""));
        assert!(json.ends_with("]}"));
    }
}
