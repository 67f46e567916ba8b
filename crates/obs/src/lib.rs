//! `re_obs` — the workspace's hand-rolled observability kernel.
//!
//! The paper this workspace reproduces (Deep, Hu & Koutris, PVLDB 2022)
//! makes *latency-shaped* claims: preprocessing time, time-to-first-answer,
//! and the delay between consecutive ranked answers. The abstract
//! counters in `EnumStats` can validate complexity, but not wall-clock
//! behaviour — this crate is the measurement layer for the latter, built
//! without dependencies so it can sit under every other crate:
//!
//! * [`hist`] — lock-free log-bucketed [`AtomicHistogram`]s (one
//!   `fetch_add` per record, < 12.5% relative bucket error) with
//!   mergeable [`HistSnapshot`]s and p50/p90/p99/max estimation;
//! * [`registry`] — the process-wide [`MetricsRegistry`] mapping names to
//!   histograms and counters;
//! * [`span`] — scoped wall-clock [`Span`] timers with thread-local
//!   [`capture_phases`] for exact per-operation phase breakdowns;
//! * [`log`] — a leveled JSON-lines logger filtered by `RE_LOG`;
//! * [`expo`] — Prometheus text exposition over the registry;
//! * [`timing`] — the per-cursor [`TimingBreakdown`] carried by ranked
//!   streams;
//! * [`trace`] — request-scoped hierarchical trace trees ([`TraceCtx`],
//!   worker-lane-stamped child spans, `RE_TRACE_SAMPLE` sampling, a
//!   bounded ring of recent traces in the registry and a Chrome
//!   trace-event exporter).
//!
//! Recording is designed for hot paths: resolve instruments once, then
//! every `record` is a single relaxed atomic add (asserted allocation-free
//! by `tests/alloc_tripwire.rs`).

#![warn(missing_docs)]

pub mod counters;
pub mod expo;
pub mod hist;
pub mod log;
pub mod registry;
pub mod span;
pub mod timing;
pub mod trace;

pub use counters::{scalar_metrics, AtomicCounters, CounterField};
pub use expo::{
    render_prometheus, render_prometheus_labeled, sanitize_metric_name, validate_exposition,
    LabeledMetric, MetricKind, ScalarMetric,
};
pub use hist::{AtomicHistogram, HistSnapshot, LocalHistogram, NUM_BUCKETS, SUB_BITS};
pub use log::{FieldValue, Level};
pub use registry::{global, MetricsRegistry, TRACE_RING_CAPACITY};
pub use span::{capture_phases, saturating_nanos, Span};
pub use timing::TimingBreakdown;
pub use trace::{AttrValue, Trace, TraceCtx, TraceId, TraceSpan};
