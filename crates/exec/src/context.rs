//! Execution contexts: the handle relational kernels take to decide
//! *whether* and *how* to parallelise.
//!
//! An [`ExecContext`] is either serial or backed by a shared
//! [`WorkerPool`]. Kernels call [`ExecContext::map`] over their morsel /
//! partition / bag index space and merge the per-index results **by
//! index**, which is what makes every parallel kernel produce output
//! identical to its serial counterpart at any thread count.

use crate::cancel::{CancelKind, CancelToken};
use crate::pool::{current_worker, default_thread_count, PoolStats, WorkerPool, WorkerStat};
use re_obs::trace;
use std::sync::Arc;

/// Default number of tuples per morsel. Large enough that per-task
/// bookkeeping (one `Box`, one completion count decrement) is noise, small
/// enough that a skewed chunk cannot serialise the batch.
pub const DEFAULT_MORSEL_ROWS: usize = 16_384;

/// Default minimum input size (in rows) before a kernel leaves its serial
/// path. Below this the serial kernel wins on every machine we care about.
pub const DEFAULT_MIN_PAR_ROWS: usize = 4_096;

/// A serial-or-pooled execution context handed down through preprocessing.
#[derive(Clone)]
pub struct ExecContext {
    pool: Option<Arc<WorkerPool>>,
    morsel_rows: usize,
    min_par_rows: usize,
    /// Cooperative cancellation handle; `None` (the default) never trips.
    cancel: Option<CancelToken>,
}

impl Default for ExecContext {
    fn default() -> Self {
        ExecContext::serial()
    }
}

impl std::fmt::Debug for ExecContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecContext")
            .field("threads", &self.threads())
            .field("morsel_rows", &self.morsel_rows)
            .field("min_par_rows", &self.min_par_rows)
            .finish()
    }
}

impl ExecContext {
    /// A context that runs everything on the calling thread.
    pub fn serial() -> Self {
        ExecContext {
            pool: None,
            morsel_rows: DEFAULT_MORSEL_ROWS,
            min_par_rows: DEFAULT_MIN_PAR_ROWS,
            cancel: None,
        }
    }

    /// A context backed by an existing pool.
    pub fn pooled(pool: Arc<WorkerPool>) -> Self {
        ExecContext {
            pool: Some(pool),
            morsel_rows: DEFAULT_MORSEL_ROWS,
            min_par_rows: DEFAULT_MIN_PAR_ROWS,
            cancel: None,
        }
    }

    /// A context with a freshly spawned pool of `threads` workers
    /// (`threads <= 1` yields a serial context).
    pub fn with_threads(threads: usize) -> Self {
        if threads <= 1 {
            ExecContext::serial()
        } else {
            ExecContext::pooled(WorkerPool::new(threads))
        }
    }

    /// Override the morsel granularity (tests force tiny morsels so small
    /// inputs still exercise the parallel paths).
    pub fn with_morsel_rows(mut self, rows: usize) -> Self {
        self.morsel_rows = rows.max(1);
        self
    }

    /// Override the serial-fallback threshold.
    pub fn with_min_par_rows(mut self, rows: usize) -> Self {
        self.min_par_rows = rows;
        self
    }

    /// Attach a cancellation token: kernels running under this context
    /// poll it at morsel / pass / bag boundaries and unwind with a typed
    /// error when it trips.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The attached cancellation token, if any.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// Poll the attached token (no token ⇒ always `Ok`). Kernels call this
    /// at unit-of-work boundaries; the cost without a token is one branch.
    pub fn check_cancelled(&self) -> Result<(), CancelKind> {
        match &self.cancel {
            Some(token) => token.check(),
            None => Ok(()),
        }
    }

    /// Whether a pool backs this context.
    pub fn is_parallel(&self) -> bool {
        self.pool.is_some()
    }

    /// Worker threads available (1 for a serial context).
    pub fn threads(&self) -> usize {
        self.pool.as_ref().map_or(1, |p| p.threads())
    }

    /// The backing pool, if any.
    pub fn pool(&self) -> Option<&Arc<WorkerPool>> {
        self.pool.as_ref()
    }

    /// Rows per morsel.
    pub fn morsel_rows(&self) -> usize {
        self.morsel_rows
    }

    /// Whether a kernel over `rows` input rows should take its parallel
    /// path under this context.
    pub fn should_parallelise(&self, rows: usize) -> bool {
        self.pool.is_some() && rows >= self.min_par_rows
    }

    /// Tasks queued on the backing pool but not yet picked up (0 for a
    /// serial context) — the admission-control load signal.
    pub fn pool_queued(&self) -> usize {
        self.pool.as_ref().map_or(0, |p| p.queued_tasks())
    }

    /// Pool counters (zero for a serial context).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool
            .as_ref()
            .map_or_else(PoolStats::default, |p| p.stats())
    }

    /// Per-worker pool counters (empty for a serial context). One entry
    /// per worker plus a trailing caller slot — see
    /// [`WorkerPool::worker_stats`].
    pub fn worker_stats(&self) -> Vec<WorkerStat> {
        self.pool
            .as_ref()
            .map_or_else(Vec::new, |p| p.worker_stats())
    }

    /// Evaluate `f(0), ..., f(n - 1)` — on the pool when present, inline
    /// otherwise — and return the results in index order. The index-ordered
    /// merge is the determinism contract: callers never observe scheduling.
    ///
    /// When the submitting thread has an active trace, it is re-installed
    /// inside every task and each task runs under an `exec.task` span
    /// stamped with its index and the worker lane that executed it — a
    /// pooled fan-out therefore shows up in the trace as sibling spans on
    /// per-worker tracks. Untraced runs skip all of this.
    ///
    /// A single task (`n <= 1` — a relation above the parallel threshold
    /// but inside one morsel) runs inline: a hand-off would buy no
    /// parallelism, only a wake-up and a wait.
    pub fn map<'env, T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send + 'env,
        F: Fn(usize) -> T + Sync + 'env,
    {
        match &self.pool {
            Some(pool) if n > 1 => {
                // Caller-side wall-clock of the fan-out: inside a
                // `capture_phases` frame this attributes pooled time to
                // the enclosing preprocessing phase.
                let _span = re_obs::Span::enter("exec.pooled_run");
                match trace::current() {
                    Some((ctx, parent)) => pool.map_indexed(n, move |i| {
                        let _g = trace::install(&ctx, parent);
                        let _task = task_span(i);
                        f(i)
                    }),
                    None => pool.map_indexed(n, f),
                }
            }
            _ => (0..n).map(f).collect(),
        }
    }

    /// Run `f(0), ..., f(n - 1)` for effect (pooled or inline). Same trace
    /// propagation and single-task rule as [`ExecContext::map`].
    pub fn run<'env, F>(&self, n: usize, f: F)
    where
        F: Fn(usize) + Sync + 'env,
    {
        match &self.pool {
            Some(pool) if n > 1 => {
                let _span = re_obs::Span::enter("exec.pooled_run");
                match trace::current() {
                    Some((ctx, parent)) => pool.run_indexed(n, move |i| {
                        let _g = trace::install(&ctx, parent);
                        let _task = task_span(i);
                        f(i)
                    }),
                    None => pool.run_indexed(n, f),
                }
            }
            _ => (0..n).for_each(f),
        }
    }
}

/// An `exec.task` trace span for pooled task `i`, lane-stamped with the
/// worker that picked the task up.
fn task_span(i: usize) -> Option<re_obs::trace::SpanGuard> {
    let mut span = trace::child_span("exec.task")?;
    span.set_attr("task", re_obs::AttrValue::U64(i as u64));
    if let Some(worker) = current_worker() {
        span.set_lane(worker as u32);
    }
    Some(span)
}

/// The machine's available parallelism (re-exported for sizing configs).
pub fn machine_threads() -> usize {
    default_thread_count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_map_matches_pooled_map() {
        let serial = ExecContext::serial();
        let pooled = ExecContext::with_threads(3);
        assert!(!serial.is_parallel());
        assert!(pooled.is_parallel());
        assert_eq!(pooled.threads(), 3);
        let a = serial.map(10, |i| i * 7);
        let b = pooled.map(10, |i| i * 7);
        assert_eq!(a, b);
    }

    #[test]
    fn a_single_task_runs_inline_without_touching_the_pool() {
        let pooled = ExecContext::with_threads(2);
        let caller = std::thread::current().id();
        let ((one, none), phases) = re_obs::capture_phases(|| {
            let one = pooled.map(1, |i| (i + 41, std::thread::current().id()));
            let none = pooled.map(0, |i| i);
            pooled.run(1, |i| assert_eq!(i, 0));
            (one, none)
        });
        assert_eq!(one, vec![(41, caller)]);
        assert!(none.is_empty());
        assert_eq!(pooled.pool_stats().tasks_executed, 0);
        assert!(phases.iter().all(|(name, _)| name != "exec.pooled_run"));
        // The pool itself gives the same answer, and two tasks do go to it.
        let pool = pooled.pool().expect("a pooled context has a pool");
        assert_eq!(pool.map_indexed(1, |i| i + 41), vec![one[0].0]);
        assert_eq!(pooled.map(2, |i| i + 41), vec![41, 42]);
        assert_eq!(pooled.pool_stats().tasks_executed, 3);
    }

    #[test]
    fn thresholds_gate_parallelism() {
        let ctx = ExecContext::with_threads(2).with_min_par_rows(100);
        assert!(!ctx.should_parallelise(99));
        assert!(ctx.should_parallelise(100));
        assert!(!ExecContext::serial().should_parallelise(1 << 30));
    }

    #[test]
    fn pooled_map_propagates_the_active_trace() {
        let ctx = ExecContext::with_threads(2);
        let tctx = re_obs::TraceCtx::new("fanout");
        {
            let _g = trace::install(&tctx, 0);
            let out = ctx.map(8, |i| i * 2);
            assert_eq!(out, (0..8).map(|i| i * 2).collect::<Vec<_>>());
        }
        let trace = tctx.finish();
        let tasks: Vec<_> = trace.spans_named("exec.task").collect();
        assert_eq!(tasks.len(), 8, "one span per task");
        let mut indices: Vec<u64> = tasks
            .iter()
            .filter_map(|s| match s.attrs.first() {
                Some((k, re_obs::AttrValue::U64(v))) if k == "task" => Some(*v),
                _ => None,
            })
            .collect();
        indices.sort_unstable();
        assert_eq!(indices, (0..8).collect::<Vec<u64>>());
    }
}
