//! Scoped wall-clock phase timers.
//!
//! A [`Span`] measures the wall-clock duration of a lexical scope and, on
//! drop, records it (in nanoseconds) into the global registry histogram
//! `span.<name>` — one map lookup at entry, one `fetch_add` at exit.
//!
//! Spans also feed *exact* per-operation phase breakdowns: a caller that
//! wraps a synchronous pipeline in [`capture_phases`] receives every span
//! that closed on that thread during the closure, with its duration. The
//! query server uses this to attach a preprocessing breakdown
//! (`preprocess.bind`, `preprocess.reduce`, `preprocess.ghd_select`,
//! `preprocess.bags`, `preprocess.cells`, `preprocess.sorted_index`, …)
//! to each cursor and to the slow-query
//! log — the global histograms aggregate across operations, the capture
//! stack attributes phases to *this* operation.
//!
//! Capture is thread-local: spans entered on pool worker threads are
//! aggregated globally but not captured. The preprocessing pipeline
//! drives its parallelism through `ExecContext` from the calling thread,
//! so phase entry points (and the caller-side `exec.pooled_run` span)
//! are captured even when the work inside fans out.

use crate::hist::AtomicHistogram;
use crate::registry;
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

thread_local! {
    /// Stack of open capture frames on this thread; spans append to the
    /// innermost frame when they close.
    static CAPTURE: RefCell<Vec<Vec<(String, u64)>>> = const { RefCell::new(Vec::new()) };
}

/// A scoped wall-clock timer. Construct with [`Span::enter`]; the elapsed
/// time is recorded when the guard drops.
pub struct Span {
    name: &'static str,
    hist: Arc<AtomicHistogram>,
    start: Instant,
}

impl Span {
    /// Start timing a phase. The duration lands in the global registry
    /// histogram `span.<name>` and, if a [`capture_phases`] frame is open
    /// on this thread, in that frame too.
    pub fn enter(name: &'static str) -> Span {
        let hist = registry::global().histogram(&format!("span.{name}"));
        Span {
            name,
            hist,
            start: Instant::now(),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let nanos = saturating_nanos(self.start.elapsed());
        self.hist.record(nanos);
        CAPTURE.with(|stack| {
            if let Some(frame) = stack.borrow_mut().last_mut() {
                frame.push((self.name.to_string(), nanos));
            }
        });
    }
}

/// Clamp a `Duration` to `u64` nanoseconds (saturating after ~584 years).
pub fn saturating_nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Run `f` and collect every [`Span`] that closes on this thread while it
/// runs, as `(name, nanos)` pairs in completion order. Frames nest: an
/// inner `capture_phases` shadows the outer one for its duration.
pub fn capture_phases<R>(f: impl FnOnce() -> R) -> (R, Vec<(String, u64)>) {
    struct FrameGuard;
    impl Drop for FrameGuard {
        fn drop(&mut self) {
            CAPTURE.with(|stack| {
                stack.borrow_mut().pop();
            });
        }
    }

    CAPTURE.with(|stack| stack.borrow_mut().push(Vec::new()));
    let guard = FrameGuard;
    let result = f();
    // Take the frame before the guard pops it.
    let phases = CAPTURE.with(|stack| stack.borrow_mut().last_mut().map(std::mem::take));
    drop(guard);
    (result, phases.unwrap_or_default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_into_the_global_registry() {
        {
            let _s = Span::enter("test.span.records");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let snap = registry::global()
            .histogram("span.test.span.records")
            .snapshot();
        assert!(snap.count() >= 1);
        // At least a millisecond elapsed.
        assert!(snap.max_estimate() >= 1_000_000);
    }

    #[test]
    fn capture_collects_spans_in_completion_order() {
        let ((), phases) = capture_phases(|| {
            let _outer = Span::enter("test.capture.outer");
            {
                let _inner = Span::enter("test.capture.inner");
            }
        });
        let names: Vec<&str> = phases.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["test.capture.inner", "test.capture.outer"]);
    }

    #[test]
    fn capture_is_thread_local_and_scoped() {
        // A span on another thread is not captured here.
        let ((), phases) = capture_phases(|| {
            std::thread::spawn(|| {
                let _s = Span::enter("test.capture.other_thread");
            })
            .join()
            .unwrap();
        });
        assert!(phases.is_empty());

        // A span after the capture frame closed is not captured.
        let ((), phases) = capture_phases(|| {});
        let _late = Span::enter("test.capture.late");
        assert!(phases.is_empty());
    }

    #[test]
    fn nested_captures_shadow_the_outer_frame() {
        let ((), outer) = capture_phases(|| {
            let ((), inner) = capture_phases(|| {
                let _s = Span::enter("test.capture.nested");
            });
            assert_eq!(inner.len(), 1);
        });
        // The nested span went to the inner frame only.
        assert!(outer.is_empty());
    }
}
