//! Request-scoped hierarchical trace trees.
//!
//! The histograms in [`crate::registry`] aggregate across *all* operations;
//! they can say "opens are slow" but not "*this* open spent 80% of its time
//! materialising bag 3 on worker 2". A [`TraceCtx`] is the per-request
//! answer: one is minted per traced operation (the server mints one per
//! sampled OPEN), installed on the working thread, and every layer below —
//! reducer passes, bag materialisation, index builds, pool tasks — attaches
//! [`child_span`]s with parent links and typed attributes. Installation
//! travels across the worker pool (`re_exec` re-installs the active trace
//! inside each task), so a parallel bag fan-out shows up as sibling spans
//! stamped with their worker lanes.
//!
//! Completed traces are [`finish`](TraceCtx::finish)ed into an immutable
//! [`Trace`] which can be kept in the registry's bounded ring
//! ([`crate::MetricsRegistry::push_trace`]) and exported as Chrome
//! trace-event JSON ([`Trace::to_chrome_json`]) for `chrome://tracing` or
//! Perfetto.
//!
//! Tracing is *off* unless a trace is installed: [`child_span`] is a single
//! thread-local borrow returning `None`, so untraced hot paths pay nothing
//! beyond a branch. Sampling is controlled by `RE_TRACE_SAMPLE` (see
//! [`env_sample_rate`]): `0` (default) never samples, `N` traces one in
//! every `N` operations.

use crate::log::push_json_str;
use std::cell::RefCell;
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Identifier of one trace, unique within (at least) the process.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceId(u64);

impl TraceId {
    /// The raw 64-bit value.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Mint a fresh id: a process-wide counter mixed (splitmix64) with the
    /// process start time, so ids from different processes rarely collide
    /// and ids within a process never do.
    fn mint() -> TraceId {
        static SEED: AtomicU64 = AtomicU64::new(0);
        static NEXT: AtomicU64 = AtomicU64::new(0);
        if SEED.load(Ordering::Relaxed) == 0 {
            let t = SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0x9e37_79b9_7f4a_7c15);
            let _ = SEED.compare_exchange(0, t | 1, Ordering::Relaxed, Ordering::Relaxed);
        }
        let mut z = SEED.load(Ordering::Relaxed).wrapping_add(
            NEXT.fetch_add(1, Ordering::Relaxed)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        TraceId(z ^ (z >> 31))
    }
}

impl fmt::Display for TraceId {
    /// Sixteen lowercase hex digits — the form logged by the slow-query
    /// log and accepted back by humans grepping a trace ring dump.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// A typed span attribute value.
#[derive(Clone, Debug, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
}

/// One completed span of a trace.
#[derive(Clone, Debug)]
pub struct TraceSpan {
    /// Span id, unique within the trace; ids start at 1 (0 names the
    /// implicit root — the traced operation itself).
    pub id: u64,
    /// Parent span id; 0 parents the span to the trace root.
    pub parent: u64,
    /// Operation name, dot-separated by convention (`preprocess.bags`,
    /// `exec.task`).
    pub name: String,
    /// Start offset from the trace epoch, in microseconds.
    pub start_micros: u64,
    /// Duration in microseconds.
    pub duration_micros: u64,
    /// Worker lane that ran the span (pool worker index; `None` for the
    /// request thread). Lanes become `tid`s in the Chrome export, so a
    /// parallel fan-out renders as side-by-side tracks.
    pub lane: Option<u32>,
    /// Typed key/value attributes.
    pub attrs: Vec<(String, AttrValue)>,
}

/// Mutable state shared by every handle to one in-flight trace.
struct TraceInner {
    trace_id: TraceId,
    name: String,
    epoch: Instant,
    start_unix_micros: u64,
    next_span: AtomicU64,
    spans: Mutex<Vec<TraceSpan>>,
}

/// A handle to an in-flight trace. Clone-cheap (`Arc` inside); clones are
/// how the trace crosses thread boundaries into pool tasks.
#[derive(Clone)]
pub struct TraceCtx {
    inner: Arc<TraceInner>,
}

impl TraceCtx {
    /// Start a trace named after the operation it covers (e.g. the SQL
    /// text, or `"open"`).
    pub fn new(name: &str) -> TraceCtx {
        let start_unix_micros = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
            .unwrap_or(0);
        TraceCtx {
            inner: Arc::new(TraceInner {
                trace_id: TraceId::mint(),
                name: name.to_string(),
                epoch: Instant::now(),
                start_unix_micros,
                next_span: AtomicU64::new(1),
                spans: Mutex::new(Vec::new()),
            }),
        }
    }

    /// This trace's id.
    pub fn trace_id(&self) -> TraceId {
        self.inner.trace_id
    }

    /// Freeze the trace into an immutable [`Trace`]. Spans are sorted by
    /// start offset (clones recording from pool workers push in completion
    /// order), and the trace duration is measured here — call when the
    /// traced operation ends.
    pub fn finish(&self) -> Trace {
        let mut spans = self
            .inner
            .spans
            .lock()
            .expect("trace spans poisoned")
            .clone();
        spans.sort_by_key(|s| (s.start_micros, s.id));
        Trace {
            trace_id: self.inner.trace_id,
            name: self.inner.name.clone(),
            start_unix_micros: self.inner.start_unix_micros,
            duration_micros: micros_since(self.inner.epoch),
            spans,
        }
    }
}

fn micros_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
}

thread_local! {
    /// The trace installed on this thread, plus the span id acting as the
    /// current parent for new child spans (0: the trace root).
    static ACTIVE: RefCell<Option<(TraceCtx, u64)>> = const { RefCell::new(None) };
}

/// Install `ctx` as this thread's active trace with `parent` as the
/// current parent span id (0 for the trace root). Returns a guard that
/// restores the previous state on drop; used both at the request entry
/// point and inside pool tasks to re-install the submitting thread's
/// trace.
pub fn install(ctx: &TraceCtx, parent: u64) -> InstallGuard {
    let prev = ACTIVE.with(|a| a.borrow_mut().replace((ctx.clone(), parent)));
    InstallGuard { prev }
}

/// The active trace on this thread and the current parent span id, if any.
/// Pool submitters capture this and re-[`install`] it inside each task.
pub fn current() -> Option<(TraceCtx, u64)> {
    ACTIVE.with(|a| a.borrow().clone())
}

/// Restores the previously installed trace when dropped.
pub struct InstallGuard {
    prev: Option<(TraceCtx, u64)>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        ACTIVE.with(|a| *a.borrow_mut() = prev);
    }
}

/// Open a child span under this thread's active trace; `None` (and no
/// work) when no trace is installed. The span becomes the current parent
/// until the guard drops, so nested calls build a tree.
pub fn child_span(name: &str) -> Option<SpanGuard> {
    ACTIVE.with(|a| {
        let mut borrow = a.borrow_mut();
        let (ctx, parent) = borrow.as_mut()?;
        let id = ctx.inner.next_span.fetch_add(1, Ordering::Relaxed);
        let guard = SpanGuard {
            ctx: ctx.clone(),
            id,
            parent: *parent,
            name: name.to_string(),
            start_micros: micros_since(ctx.inner.epoch),
            end_micros: None,
            lane: None,
            attrs: Vec::new(),
        };
        *parent = id;
        Some(guard)
    })
}

/// Open a child span of the current parent that does *not* become the
/// parent of later spans: for work that interleaves with its siblings on
/// one thread, such as the contenders of a bag race. Spans opened while
/// the guard of [`SpanGuard::resume`] lives nest under it.
pub fn detached_span(name: &str) -> Option<SpanGuard> {
    let span = child_span(name)?;
    ACTIVE.with(|a| {
        if let Some((_, parent)) = a.borrow_mut().as_mut() {
            *parent = span.parent;
        }
    });
    Some(span)
}

/// An open span; completes (and records itself into the trace) on drop.
pub struct SpanGuard {
    ctx: TraceCtx,
    id: u64,
    parent: u64,
    name: String,
    start_micros: u64,
    /// Set by [`SpanGuard::stop`]: the span ended there, not at drop.
    end_micros: Option<u64>,
    lane: Option<u32>,
    attrs: Vec<(String, AttrValue)>,
}

impl SpanGuard {
    /// Make this span the current parent on the calling thread until the
    /// returned guard drops (a [`detached_span`] resumed for one stretch
    /// of its work).
    pub fn resume(&self) -> InstallGuard {
        install(&self.ctx, self.id)
    }

    /// End the span now, although the guard lives on to take attributes
    /// known only later; it is recorded when the guard drops.
    pub fn stop(&mut self) {
        self.end_micros = Some(micros_since(self.ctx.inner.epoch));
    }

    /// Attach a typed attribute.
    pub fn set_attr(&mut self, key: &str, value: AttrValue) {
        self.attrs.push((key.to_string(), value));
    }

    /// Stamp the worker lane that ran this span (renders as a separate
    /// track in the Chrome export).
    pub fn set_lane(&mut self, lane: u32) {
        self.lane = Some(lane);
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let end = self
            .end_micros
            .unwrap_or_else(|| micros_since(self.ctx.inner.epoch));
        let span = TraceSpan {
            id: self.id,
            parent: self.parent,
            name: std::mem::take(&mut self.name),
            start_micros: self.start_micros,
            duration_micros: end.saturating_sub(self.start_micros),
            lane: self.lane,
            attrs: std::mem::take(&mut self.attrs),
        };
        self.ctx
            .inner
            .spans
            .lock()
            .expect("trace spans poisoned")
            .push(span);
        // Pop ourselves off the parent chain — but only if this thread
        // still has *this* trace installed with us as the current parent
        // (a guard moved across threads must not corrupt an unrelated
        // trace's chain).
        ACTIVE.with(|a| {
            if let Some((ctx, parent)) = a.borrow_mut().as_mut() {
                if Arc::ptr_eq(&ctx.inner, &self.ctx.inner) && *parent == self.id {
                    *parent = self.parent;
                }
            }
        });
    }
}

/// An immutable, completed trace.
#[derive(Clone, Debug)]
pub struct Trace {
    /// The trace id.
    pub trace_id: TraceId,
    /// The traced operation's name.
    pub name: String,
    /// Wall-clock start (microseconds since the Unix epoch).
    pub start_unix_micros: u64,
    /// Total duration of the traced operation, in microseconds.
    pub duration_micros: u64,
    /// Completed spans, sorted by start offset.
    pub spans: Vec<TraceSpan>,
}

impl Trace {
    /// Export as Chrome trace-event JSON (the `{"traceEvents": [...]}`
    /// object format): one complete (`"ph":"X"`) event per span plus one
    /// for the trace root, `pid` 1, `tid` = worker lane + 1 (0 is the
    /// request thread). The output loads directly into `chrome://tracing`
    /// or Perfetto.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(256 + 160 * self.spans.len());
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        // The root event: the traced operation itself, spanning everything.
        self.push_event(
            &mut out,
            &self.name,
            0,
            self.duration_micros,
            None,
            &[
                (
                    "trace_id".to_string(),
                    AttrValue::Str(self.trace_id.to_string()),
                ),
                ("span_id".to_string(), AttrValue::U64(0)),
            ],
        );
        for span in &self.spans {
            out.push(',');
            let mut args: Vec<(String, AttrValue)> = vec![
                ("span_id".to_string(), AttrValue::U64(span.id)),
                ("parent_id".to_string(), AttrValue::U64(span.parent)),
            ];
            args.extend(span.attrs.iter().cloned());
            self.push_event(
                &mut out,
                &span.name,
                span.start_micros,
                span.duration_micros,
                span.lane,
                &args,
            );
        }
        out.push_str("]}");
        out
    }

    fn push_event(
        &self,
        out: &mut String,
        name: &str,
        start_micros: u64,
        duration_micros: u64,
        lane: Option<u32>,
        args: &[(String, AttrValue)],
    ) {
        out.push_str("{\"name\":");
        push_json_str(out, name);
        let ts = self.start_unix_micros.saturating_add(start_micros);
        let tid = lane.map_or(0, |l| l + 1);
        let _ = write!(
            out,
            ",\"cat\":\"re\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{duration_micros},\
             \"pid\":1,\"tid\":{tid},\"args\":{{"
        );
        for (i, (key, value)) in args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(out, key);
            out.push(':');
            match value {
                AttrValue::U64(v) => {
                    let _ = write!(out, "{v}");
                }
                AttrValue::I64(v) => {
                    let _ = write!(out, "{v}");
                }
                AttrValue::F64(v) if v.is_finite() => {
                    let _ = write!(out, "{v}");
                }
                AttrValue::F64(_) => out.push_str("null"),
                AttrValue::Str(s) => push_json_str(out, s),
                AttrValue::Bool(b) => {
                    let _ = write!(out, "{b}");
                }
            }
        }
        out.push_str("}}");
    }

    /// Spans whose name matches `name`, in start order.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a TraceSpan> {
        self.spans.iter().filter(move |s| s.name == name)
    }
}

/// The process-wide trace sampling rate from `RE_TRACE_SAMPLE`, read once:
/// `0` (default, or unparsable) never samples, `N ≥ 1` samples one in
/// every `N` operations. Explicit requests (EXPLAIN ANALYZE, tests)
/// bypass sampling entirely by minting their own [`TraceCtx`].
pub fn env_sample_rate() -> u64 {
    static RATE: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *RATE.get_or_init(|| {
        std::env::var("RE_TRACE_SAMPLE")
            .ok()
            .and_then(|s| s.trim().parse::<u64>().ok())
            .unwrap_or(0)
    })
}

/// Decide whether operation number `n` (a caller-maintained counter)
/// should be traced at 1-in-`rate` sampling. `rate == 0` never samples.
pub fn should_sample(rate: u64, n: u64) -> bool {
    rate > 0 && n.is_multiple_of(rate)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_spans_form_a_tree_and_restore_parents() {
        let ctx = TraceCtx::new("open");
        let guard = install(&ctx, 0);
        {
            let mut a = child_span("preprocess.reduce").unwrap();
            a.set_attr("input_rows", AttrValue::U64(100));
            {
                let _b = child_span("reduce.pass").unwrap();
            }
            let _c = child_span("reduce.pass").unwrap();
        }
        let _d = child_span("enumerate").unwrap();
        drop(_d);
        drop(guard);
        assert!(child_span("after").is_none(), "uninstalled: no spans");

        let trace = ctx.finish();
        assert_eq!(trace.spans.len(), 4);
        let reduce = trace.spans_named("preprocess.reduce").next().unwrap();
        assert_eq!(reduce.parent, 0);
        assert_eq!(
            reduce.attrs,
            vec![("input_rows".to_string(), AttrValue::U64(100))]
        );
        for pass in trace.spans_named("reduce.pass") {
            assert_eq!(pass.parent, reduce.id, "passes nest under the reduce");
        }
        assert_eq!(trace.spans_named("enumerate").next().unwrap().parent, 0);
    }

    #[test]
    fn detached_spans_interleave_as_siblings() {
        let ctx = TraceCtx::new("race");
        {
            let _g = install(&ctx, 0);
            let race = child_span("preprocess.bags").unwrap();
            let mut a = detached_span("bag.materialize").unwrap();
            let b = detached_span("bag.materialize").unwrap();
            {
                let _in_a = a.resume();
                let _ = child_span("preprocess.bind").unwrap();
            }
            a.stop();
            let after = child_span("preprocess.reduce").unwrap();
            a.set_attr("abandoned", AttrValue::Bool(true));
            drop((a, b, after, race));
        }
        let trace = ctx.finish();
        let race = trace.spans_named("preprocess.bags").next().unwrap();
        let bags: Vec<_> = trace.spans_named("bag.materialize").collect();
        assert!(bags.iter().all(|b| b.parent == race.id), "siblings");
        let bind = trace.spans_named("preprocess.bind").next().unwrap();
        assert!(
            bags.iter().any(|b| b.id == bind.parent),
            "nests when resumed"
        );
        let reduce = trace.spans_named("preprocess.reduce").next().unwrap();
        assert_eq!(reduce.parent, race.id, "a detached span is no parent");
        let stopped = bags.iter().find(|b| !b.attrs.is_empty()).unwrap();
        assert!(stopped.start_micros + stopped.duration_micros <= reduce.start_micros + 1);
    }

    #[test]
    fn traces_cross_threads_via_install() {
        let ctx = TraceCtx::new("parallel");
        let parent_id = {
            let _g = install(&ctx, 0);
            let span = child_span("preprocess.bags").unwrap();
            let captured = current().unwrap();
            let handles: Vec<_> = (0..2)
                .map(|i| {
                    let (tctx, parent) = (captured.0.clone(), captured.1);
                    std::thread::spawn(move || {
                        let _g = install(&tctx, parent);
                        let mut s = child_span("bag.materialize").unwrap();
                        s.set_lane(i);
                        s.set_attr("rows", AttrValue::U64(7));
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            drop(span);
            captured.1
        };
        let trace = ctx.finish();
        let bags: Vec<_> = trace.spans_named("bag.materialize").collect();
        assert_eq!(bags.len(), 2);
        for bag in &bags {
            assert_eq!(bag.parent, parent_id, "worker spans parent to the fan-out");
            assert!(bag.lane.is_some());
        }
    }

    #[test]
    fn chrome_export_is_wellformed_and_lane_stamped() {
        let ctx = TraceCtx::new("q: SELECT \"x\"");
        {
            let _g = install(&ctx, 0);
            let mut s = child_span("exec.task").unwrap();
            s.set_lane(3);
            s.set_attr("task", AttrValue::U64(1));
        }
        let json = ctx.finish().to_chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"tid\":4"), "lane 3 renders as tid 4");
        assert!(
            json.contains("\"q: SELECT \\\"x\\\"\""),
            "names are escaped"
        );
        assert!(json.contains("\"trace_id\":"));
    }

    #[test]
    fn trace_ids_are_distinct_and_render_as_hex() {
        let a = TraceCtx::new("a").trace_id();
        let b = TraceCtx::new("b").trace_id();
        assert_ne!(a, b);
        let s = a.to_string();
        assert_eq!(s.len(), 16);
        assert!(s.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn sampling_decisions() {
        assert!(!should_sample(0, 0), "rate 0 never samples");
        assert!(should_sample(1, 7), "rate 1 always samples");
        assert!(should_sample(4, 8));
        assert!(!should_sample(4, 9));
    }
}
