//! A work-stealing worker pool over `std` threads.
//!
//! The pool is the machinery behind morsel-driven preprocessing: callers
//! split a relational kernel into independent index tasks (one per morsel,
//! partition or bag), submit them with [`WorkerPool::run_indexed`], and the
//! calling thread *helps* execute tasks until the batch completes. Tasks are
//! distributed round-robin across per-worker deques; an idle worker first
//! drains its own deque (LIFO, cache-warm) and then steals from its siblings
//! (FIFO, oldest task first). Nested submissions are legal — a task may
//! itself call `run_indexed`, as the per-bag materialisation tasks do for
//! their intra-bag kernels — because every waiting thread keeps executing
//! pending tasks instead of blocking.
//!
//! Scheduling is intentionally *not* part of any correctness contract: the
//! kernels built on top merge their per-task results by task index, so the
//! output is identical no matter which thread ran which task.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// An erased task. Tasks created by [`WorkerPool::run_indexed`] wrap the
/// caller's closure in a panic guard and a completion count, so executing
/// one never unwinds into the worker loop.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// Monotone counters describing the work a pool has executed. `Copy`, so
/// snapshots can be diffed for per-phase accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Tasks executed to completion (by workers and helping callers).
    pub tasks_executed: u64,
    /// Tasks a worker took from another worker's deque.
    pub tasks_stolen: u64,
    /// Wall-clock time spent inside task bodies, in microseconds, summed
    /// over all threads (> elapsed time when the pool runs in parallel).
    /// Exclusive per task — a task helping with nested tasks does not
    /// count their time again — though it still includes the brief
    /// (≤ 1 ms) helping-wait slices of a task blocked on a nested batch.
    pub busy_micros: u64,
}

impl PoolStats {
    /// Component-wise difference `self - earlier` (saturating).
    #[must_use]
    pub fn diff(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            tasks_executed: self.tasks_executed.saturating_sub(earlier.tasks_executed),
            tasks_stolen: self.tasks_stolen.saturating_sub(earlier.tasks_stolen),
            busy_micros: self.busy_micros.saturating_sub(earlier.busy_micros),
        }
    }
}

/// Per-worker slice of [`PoolStats`]: one entry per pool worker, plus a
/// final entry for caller threads helping a batch to completion. Skew
/// across entries is the signal — a pool where one worker carries most of
/// the busy time has a partitioning problem the aggregate hides.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStat {
    /// Tasks this worker executed to completion.
    pub tasks_executed: u64,
    /// Tasks this worker took from another worker's deque.
    pub tasks_stolen: u64,
    /// Wall-clock time this worker spent inside task bodies, in
    /// microseconds (exclusive per task, as in [`PoolStats`]).
    pub busy_micros: u64,
}

/// Per-worker atomic counters (one set per worker plus the caller slot).
#[derive(Default)]
struct WorkerCounters {
    tasks_executed: AtomicU64,
    tasks_stolen: AtomicU64,
    busy_nanos: AtomicU64,
}

thread_local! {
    /// The pool worker index of this thread (`None` on non-pool threads,
    /// including callers helping a batch).
    static WORKER: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// The pool worker index of the current thread, if it is a pool worker.
/// Trace consumers use this to stamp spans with the lane that ran them.
pub fn current_worker() -> Option<usize> {
    WORKER.with(|w| w.get())
}

/// State shared between the pool handle, its workers and helping callers.
struct Shared {
    /// One deque per worker; external submissions round-robin over them.
    queues: Vec<Mutex<VecDeque<Task>>>,
    /// Queued-but-not-yet-popped task count. Incremented *before* the task
    /// enters its deque, decremented on pop: a parked worker re-checks it
    /// under `idle` before waiting, which (with `push` notifying under the
    /// same mutex) makes the park/notify handoff race-free — no wakeup can
    /// be lost, so the workers need no poll interval.
    pending: AtomicUsize,
    /// Parking lot for idle workers; `idle_cv` fires on push and shutdown.
    idle: Mutex<()>,
    idle_cv: Condvar,
    shutdown: AtomicBool,
    next_queue: AtomicUsize,
    tasks_executed: AtomicU64,
    tasks_stolen: AtomicU64,
    busy_nanos: AtomicU64,
    /// One counter set per worker, plus a trailing slot aggregating every
    /// helping caller thread.
    per_worker: Vec<WorkerCounters>,
}

impl Shared {
    fn push(&self, task: Task) {
        // Increment strictly before the task becomes poppable, so `pending`
        // can never underflow and a worker that observes `pending == 0`
        // under the idle lock is guaranteed to be woken by the notify below.
        self.pending.fetch_add(1, Ordering::SeqCst);
        let q = self.next_queue.fetch_add(1, Ordering::Relaxed) % self.queues.len();
        self.queues[q]
            .lock()
            .expect("queue poisoned")
            .push_back(task);
        let _parked = self.idle.lock().expect("idle lock poisoned");
        self.idle_cv.notify_one();
    }

    /// Pop a task — the home deque newest-first (cache-warm LIFO), then
    /// steal from siblings oldest-first (FIFO, so a thief picks up the
    /// coarsest waiting work); `None` while every deque is empty. The
    /// second tuple field reports whether the pop was a steal.
    fn find_task(&self, home: Option<usize>) -> Option<(Task, bool)> {
        let n = self.queues.len();
        if let Some(h) = home {
            if let Some(t) = self.queues[h].lock().expect("queue poisoned").pop_back() {
                self.pending.fetch_sub(1, Ordering::SeqCst);
                return Some((t, false));
            }
        }
        let start = home.unwrap_or(0);
        for off in 0..n {
            let q = (start + off) % n;
            if Some(q) == home {
                continue;
            }
            if let Some(t) = self.queues[q].lock().expect("queue poisoned").pop_front() {
                self.pending.fetch_sub(1, Ordering::SeqCst);
                return Some((t, home.is_some()));
            }
        }
        None
    }

    fn execute(&self, task: Task, stolen: bool) {
        // Attribute to the executing worker's counter slot; helping
        // callers (not pool threads) share the trailing slot.
        let slot = &self.per_worker[current_worker().unwrap_or(self.queues.len())];
        // Busy time is *exclusive* per task: a task that helps with nested
        // tasks while it waits (the bag → morsel pattern) must not count
        // their wall time again — each nested `execute` reports its own
        // wall time into the thread-local accumulator, and we subtract it.
        NESTED_NANOS.with(|cell| {
            let saved = cell.replace(0);
            let start = Instant::now();
            task();
            let wall = start.elapsed().as_nanos() as u64;
            let inner = cell.get();
            let exclusive = wall.saturating_sub(inner);
            self.busy_nanos.fetch_add(exclusive, Ordering::Relaxed);
            slot.busy_nanos.fetch_add(exclusive, Ordering::Relaxed);
            cell.set(saved + wall);
        });
        self.tasks_executed.fetch_add(1, Ordering::Relaxed);
        slot.tasks_executed.fetch_add(1, Ordering::Relaxed);
        if stolen {
            self.tasks_stolen.fetch_add(1, Ordering::Relaxed);
            slot.tasks_stolen.fetch_add(1, Ordering::Relaxed);
        }
    }
}

thread_local! {
    /// Wall time of nested `execute` calls since the enclosing `execute`
    /// started on this thread (see [`Shared::execute`]).
    static NESTED_NANOS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Completion state of one `run_indexed` batch.
struct Job {
    remaining: Mutex<usize>,
    done: Condvar,
    panicked: AtomicBool,
}

/// A fixed-size work-stealing pool of `std` worker threads.
///
/// ```
/// use re_exec::WorkerPool;
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let pool = WorkerPool::new(4);
/// let sum = AtomicU64::new(0);
/// pool.run_indexed(100, |i| {
///     sum.fetch_add(i as u64, Ordering::Relaxed);
/// });
/// assert_eq!(sum.into_inner(), 99 * 100 / 2);
/// ```
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn a pool with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Arc<WorkerPool> {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: AtomicUsize::new(0),
            idle: Mutex::new(()),
            idle_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            next_queue: AtomicUsize::new(0),
            tasks_executed: AtomicU64::new(0),
            tasks_stolen: AtomicU64::new(0),
            busy_nanos: AtomicU64::new(0),
            per_worker: (0..=threads).map(|_| WorkerCounters::default()).collect(),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("re-exec-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn pool worker")
            })
            .collect();
        Arc::new(WorkerPool { shared, workers })
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Tasks queued but not yet picked up by any thread. A cheap load
    /// signal: admission control sheds new work when this backs up.
    pub fn queued_tasks(&self) -> usize {
        self.shared.pending.load(Ordering::SeqCst)
    }

    /// Current counter totals.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            tasks_executed: self.shared.tasks_executed.load(Ordering::Relaxed),
            tasks_stolen: self.shared.tasks_stolen.load(Ordering::Relaxed),
            busy_micros: self.shared.busy_nanos.load(Ordering::Relaxed) / 1_000,
        }
    }

    /// Per-worker counter totals: one entry per worker thread, plus a
    /// final entry aggregating caller threads that helped batches to
    /// completion. Entries sum to [`WorkerPool::stats`] (up to the
    /// nanos→micros rounding done per slot).
    pub fn worker_stats(&self) -> Vec<WorkerStat> {
        self.shared
            .per_worker
            .iter()
            .map(|c| WorkerStat {
                tasks_executed: c.tasks_executed.load(Ordering::Relaxed),
                tasks_stolen: c.tasks_stolen.load(Ordering::Relaxed),
                busy_micros: c.busy_nanos.load(Ordering::Relaxed) / 1_000,
            })
            .collect()
    }

    /// Execute `f(0), f(1), ..., f(n - 1)` on the pool and block until all
    /// calls completed. The caller participates: it executes queued tasks
    /// (of *any* batch — which is what makes nested calls deadlock-free)
    /// while it waits. Panics if any task panicked, after the whole batch
    /// has settled.
    ///
    /// `f` may borrow from the caller's stack: the borrow is erased to
    /// `'static` to cross into the long-lived workers, which is sound
    /// because this function does not return until every task has finished
    /// running (the completion count is decremented strictly after the
    /// closure call returns or unwinds).
    pub fn run_indexed<'env, F>(&self, n: usize, f: F)
    where
        F: Fn(usize) + Sync + 'env,
    {
        if n == 0 {
            return;
        }
        let job = Arc::new(Job {
            remaining: Mutex::new(n),
            done: Condvar::new(),
            panicked: AtomicBool::new(false),
        });
        let f_ref: &(dyn Fn(usize) + Sync) = &f;
        // SAFETY: the only thing erased is the lifetime; the closure is
        // dropped (tasks are FnOnce boxes consumed on execution) and its
        // last use happens before `remaining` reaches 0, and we block on
        // exactly that condition below before `f` goes out of scope.
        let f_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f_ref) };
        for i in 0..n {
            let job = Arc::clone(&job);
            self.shared.push(Box::new(move || {
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    // Failpoint at the task seam. A task body has no error
                    // channel, so an armed `error` action escalates to the
                    // same panic path the `panic` action takes; both settle
                    // the batch and surface as the deferred batch panic.
                    if re_fault::fire("pool.task.start").is_err() {
                        panic!("injected fault at failpoint `pool.task.start`");
                    }
                    f_static(i);
                }));
                if outcome.is_err() {
                    job.panicked.store(true, Ordering::SeqCst);
                }
                let mut remaining = job.remaining.lock().expect("job state poisoned");
                *remaining -= 1;
                if *remaining == 0 {
                    job.done.notify_all();
                }
            }));
        }
        // Help until the batch completes; when no task is runnable the
        // remaining ones are in flight on other threads — wait briefly (a
        // timeout, so a task pushed between the check and the wait cannot
        // strand us).
        loop {
            if *job.remaining.lock().expect("job state poisoned") == 0 {
                break;
            }
            if let Some((task, stolen)) = self.shared.find_task(None) {
                self.shared.execute(task, stolen);
            } else {
                let guard = job.remaining.lock().expect("job state poisoned");
                if *guard > 0 {
                    let _ = job
                        .done
                        .wait_timeout(guard, Duration::from_millis(1))
                        .expect("job state poisoned");
                }
            }
        }
        if job.panicked.load(Ordering::SeqCst) {
            panic!("a re_exec pool task panicked");
        }
    }

    /// Like [`WorkerPool::run_indexed`] but collecting one result per index,
    /// in index order.
    pub fn map_indexed<'env, T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send + 'env,
        F: Fn(usize) -> T + Sync + 'env,
    {
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        self.run_indexed(n, |i| {
            *slots[i].lock().expect("result slot poisoned") = Some(f(i));
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("task completed without a result")
            })
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Notify under the idle lock: a worker between its shutdown check
        // and its wait would otherwise miss this and sleep forever.
        let parked = self.shared.idle.lock().expect("idle lock poisoned");
        self.shared.idle_cv.notify_all();
        drop(parked);
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &Shared, home: usize) {
    WORKER.with(|w| w.set(Some(home)));
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if let Some((task, stolen)) = shared.find_task(Some(home)) {
            shared.execute(task, stolen);
        } else {
            // Park until work or shutdown arrives. The wait is unbounded
            // and race-free: `pending` is re-checked under the idle lock,
            // and both `push` and shutdown notify while holding it — so a
            // push after our empty `find_task` either flips `pending`
            // before our check or blocks on the lock until we wait, and
            // its notify lands. Idle workers therefore cost zero CPU.
            let guard = shared.idle.lock().expect("idle lock poisoned");
            if shared.shutdown.load(Ordering::SeqCst) || shared.pending.load(Ordering::SeqCst) > 0 {
                continue;
            }
            let _unused = shared.idle_cv.wait(guard).expect("idle lock poisoned");
        }
    }
}

/// The machine's available parallelism (min 1).
pub fn default_thread_count() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn map_preserves_index_order() {
        let pool = WorkerPool::new(3);
        let out = pool.map_indexed(64, |i| i * i);
        assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn nested_submissions_complete() {
        let pool = WorkerPool::new(2);
        let total = AtomicU64::new(0);
        pool.run_indexed(8, |_| {
            // A task that itself fans out, as the per-bag tasks do.
            pool.run_indexed(8, |j| {
                total.fetch_add(j as u64 + 1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.into_inner(), 8 * 36);
    }

    #[test]
    fn counters_tick() {
        let pool = WorkerPool::new(2);
        pool.run_indexed(32, |_| {
            std::hint::black_box(0u64);
        });
        let stats = pool.stats();
        assert_eq!(stats.tasks_executed, 32);
        assert!(stats.tasks_stolen <= stats.tasks_executed);
        let again = pool.stats();
        assert_eq!(again.diff(&stats), PoolStats::default());
    }

    #[test]
    fn per_worker_stats_sum_to_the_aggregate() {
        let pool = WorkerPool::new(3);
        pool.run_indexed(64, |_| {
            std::hint::black_box(0u64);
        });
        let total = pool.stats();
        let per = pool.worker_stats();
        assert_eq!(per.len(), 4, "3 workers + the caller slot");
        assert_eq!(
            per.iter().map(|w| w.tasks_executed).sum::<u64>(),
            total.tasks_executed
        );
        assert_eq!(
            per.iter().map(|w| w.tasks_stolen).sum::<u64>(),
            total.tasks_stolen
        );
    }

    #[test]
    fn workers_know_their_index() {
        let pool = WorkerPool::new(2);
        assert_eq!(current_worker(), None, "callers are not workers");
        let seen: Vec<Option<usize>> = pool.map_indexed(16, |_| {
            // Let siblings steal so multiple workers participate.
            std::thread::sleep(Duration::from_micros(200));
            current_worker()
        });
        for w in seen.into_iter().flatten() {
            assert!(w < 2);
        }
    }

    #[test]
    fn borrowed_state_is_visible_and_complete() {
        let pool = WorkerPool::new(4);
        let data: Vec<u64> = (0..1000).collect();
        let sum = AtomicU64::new(0);
        pool.run_indexed(10, |i| {
            let chunk: u64 = data[i * 100..(i + 1) * 100].iter().sum();
            sum.fetch_add(chunk, Ordering::Relaxed);
        });
        assert_eq!(sum.into_inner(), 999 * 1000 / 2);
    }

    #[test]
    #[should_panic(expected = "a re_exec pool task panicked")]
    fn task_panic_propagates_to_the_caller() {
        let pool = WorkerPool::new(2);
        pool.run_indexed(4, |i| {
            if i == 2 {
                panic!("boom");
            }
        });
    }

    #[test]
    fn single_thread_pool_still_completes() {
        let pool = WorkerPool::new(1);
        let out = pool.map_indexed(16, |i| i + 1);
        assert_eq!(out.len(), 16);
        assert_eq!(out[15], 16);
    }
}
