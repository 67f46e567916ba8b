//! Enumeration statistics.
//!
//! The paper's Figure 14a plots, for the DBLP 2-hop query, the fraction of
//! answers that required a given number of priority-queue operations — a
//! proxy for the *empirical* delay between consecutive answers. The
//! enumerators keep exactly those counters so the figure can be regenerated
//! (and so the tests can assert the theoretical delay bound is respected).
//!
//! For multi-threaded aggregation (e.g. a query server collecting counters
//! from many concurrent enumerators) the full [`EnumStats`] — which carries
//! the per-answer delay histogram — is too heavy to ship around under a
//! lock. [`StatsSnapshot`] is the cheap, `Copy` summary of the counters,
//! and [`SharedStats`] is a lock-free accumulator of snapshots built on
//! plain atomics.

use std::sync::atomic::{AtomicU64, Ordering};

/// Counters collected while an enumerator runs.
#[derive(Clone, Debug, Default)]
pub struct EnumStats {
    /// Total priority-queue insertions.
    pub pq_pushes: u64,
    /// Total priority-queue pops.
    pub pq_pops: u64,
    /// Total cells allocated (including preprocessing). For the
    /// lexicographic enumerator a "cell" is a memoized candidate list.
    pub cells_created: u64,
    /// Memoized cells served from the memo instead of being rebuilt (the
    /// lexicographic enumerator's prefix-binding reuse).
    pub cells_reused: u64,
    /// `Relation` clones performed **while enumerating** (inside `next`).
    /// The index-backed enumeration hot paths must keep this at zero; the
    /// counter exists so tests can assert the ban instead of trusting it.
    pub relation_clones: u64,
    /// Full-reducer invocations performed **while enumerating** (inside
    /// `next`). Same contract as [`EnumStats::relation_clones`]: the one
    /// preprocessing-time reduction is not counted, enumeration-time
    /// reductions must not happen.
    pub reducer_calls: u64,
    /// `Tuple` allocations performed **while enumerating** (inside `next`)
    /// beyond the emitted answer itself. The arena-backed frontier kernel
    /// must keep this at zero in steady state — cells, keys and heap
    /// entries are all fixed-size handles — so the counter is a tripwire
    /// in the style of [`EnumStats::relation_clones`]; the pre-arena
    /// reference engine ticks it on every hot-path tuple it builds.
    pub tuple_allocs: u64,
    /// Bytes **retained** by the frontier (cell arenas, key interners and
    /// priority-queue capacity). Monotone: arenas and interners only grow,
    /// and queue capacity is never returned to the allocator, so this is
    /// the footprint a session parked between fetches actually holds.
    pub frontier_bytes: u64,
    /// Peak bytes of **live** frontier state (retained minus vacant queue
    /// slots). Monotone by construction (a running maximum).
    pub frontier_peak_bytes: u64,
    /// Current live frontier bytes (retained minus vacant queue slots).
    frontier_live_bytes: u64,
    /// Number of answers emitted so far.
    pub answers: u64,
    /// Bags of the GHD plan this enumerator was built from (zero for
    /// acyclic queries, which need no decomposition).
    pub ghd_bags: u64,
    /// The chosen plan's summed AGM bag-size estimate, rounded, when the
    /// plan came out of cost-based selection.
    pub ghd_estimated_rows: u64,
    /// Times GHD selection fell back to single-bag full materialisation
    /// because no decomposition applied (the reason travels separately).
    pub ghd_fallbacks: u64,
    /// Semi-join passes executed by the preprocessing full reducer.
    pub reduce_passes: u64,
    /// Rows entering full-reducer passes, summed over passes.
    pub reduce_input_rows: u64,
    /// Rows surviving full-reducer passes, summed over passes. The
    /// difference to [`EnumStats::reduce_input_rows`] is the dangling
    /// tuples the reducer filtered.
    pub reduce_output_rows: u64,
    /// Priority-queue operations (pushes + pops) spent between consecutive
    /// answers; one entry per emitted answer.
    pub ops_per_answer: Vec<u64>,
    /// Operations accumulated since the last emitted answer.
    ops_since_last: u64,
}

impl EnumStats {
    /// Create zeroed statistics.
    pub fn new() -> Self {
        EnumStats::default()
    }

    /// Record one priority-queue push.
    pub fn record_push(&mut self) {
        self.pq_pushes += 1;
        self.ops_since_last += 1;
    }

    /// Record one priority-queue pop.
    pub fn record_pop(&mut self) {
        self.pq_pops += 1;
        self.ops_since_last += 1;
    }

    /// Record a cell allocation.
    pub fn record_cell(&mut self) {
        self.cells_created += 1;
    }

    /// Record a memoized cell served without rebuilding.
    pub fn record_cell_reuse(&mut self) {
        self.cells_reused += 1;
    }

    /// Record `Relation` clones performed inside `next` (hot-path ban
    /// tripwire; see [`EnumStats::relation_clones`]).
    pub fn record_relation_clones(&mut self, n: u64) {
        self.relation_clones += n;
    }

    /// Record a full-reducer invocation inside `next` (hot-path ban
    /// tripwire; see [`EnumStats::reducer_calls`]).
    pub fn record_reducer_call(&mut self) {
        self.reducer_calls += 1;
    }

    /// Record hot-path `Tuple` allocations beyond the emitted answer
    /// (tripwire; see [`EnumStats::tuple_allocs`]).
    pub fn record_tuple_allocs(&mut self, n: u64) {
        self.tuple_allocs += n;
    }

    /// Record the preprocessing full reducer's per-operator totals:
    /// semi-join `passes` run, rows entering them and rows surviving.
    pub fn record_reduce(&mut self, passes: u64, input_rows: u64, output_rows: u64) {
        self.reduce_passes += passes;
        self.reduce_input_rows += input_rows;
        self.reduce_output_rows += output_rows;
    }

    /// Record frontier growth: `retained` freshly reserved bytes and
    /// `live` newly occupied bytes (a cell push contributes to both; a
    /// heap push into a vacant slot contributes live bytes only).
    pub fn frontier_alloc(&mut self, retained: u64, live: u64) {
        self.frontier_bytes += retained;
        self.frontier_live_bytes += live;
        if self.frontier_live_bytes > self.frontier_peak_bytes {
            self.frontier_peak_bytes = self.frontier_live_bytes;
        }
    }

    /// Record `live` frontier bytes vacated (a heap pop). Retained bytes
    /// never shrink — the capacity stays reserved.
    pub fn frontier_release(&mut self, live: u64) {
        self.frontier_live_bytes = self.frontier_live_bytes.saturating_sub(live);
    }

    /// Current live frontier bytes.
    pub fn frontier_live_bytes(&self) -> u64 {
        self.frontier_live_bytes
    }

    /// Record that an answer was emitted, folding the per-answer operation
    /// count into the histogram.
    pub fn record_answer(&mut self) {
        self.answers += 1;
        self.ops_per_answer.push(self.ops_since_last);
        self.ops_since_last = 0;
    }

    /// Maximum priority-queue operations spent on a single answer — the
    /// observed worst-case delay in PQ operations.
    pub fn max_ops_per_answer(&self) -> u64 {
        self.ops_per_answer.iter().copied().max().unwrap_or(0)
    }

    /// The fraction of answers that needed at most `ops` PQ operations
    /// (the CDF plotted in Figure 14a).
    pub fn cdf_at(&self, ops: u64) -> f64 {
        if self.ops_per_answer.is_empty() {
            return 1.0;
        }
        let within = self.ops_per_answer.iter().filter(|&&o| o <= ops).count();
        within as f64 / self.ops_per_answer.len() as f64
    }

    /// Merge another statistics object into this one (used by composite
    /// enumerators such as the star and union enumerators).
    pub fn merge(&mut self, other: &EnumStats) {
        self.pq_pushes += other.pq_pushes;
        self.pq_pops += other.pq_pops;
        self.cells_created += other.cells_created;
        self.cells_reused += other.cells_reused;
        self.relation_clones += other.relation_clones;
        self.reducer_calls += other.reducer_calls;
        self.tuple_allocs += other.tuple_allocs;
        // A composite's frontier is the disjoint union of its parts, so
        // bytes add; the sum of the parts' peaks upper-bounds the
        // composite peak.
        self.frontier_bytes += other.frontier_bytes;
        self.frontier_peak_bytes += other.frontier_peak_bytes;
        self.frontier_live_bytes += other.frontier_live_bytes;
        self.ghd_bags += other.ghd_bags;
        self.ghd_estimated_rows += other.ghd_estimated_rows;
        self.ghd_fallbacks += other.ghd_fallbacks;
        self.reduce_passes += other.reduce_passes;
        self.reduce_input_rows += other.reduce_input_rows;
        self.reduce_output_rows += other.reduce_output_rows;
        // answers / histogram are tracked by the composite itself
    }

    /// Cheap `Copy` summary of the counters, without the per-answer delay
    /// histogram. This is what crosses thread boundaries. The pool counters
    /// are zero here: enumerators do not own the worker pool; the process
    /// that does (e.g. the server) fills them in.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            pq_pushes: self.pq_pushes,
            pq_pops: self.pq_pops,
            cells_created: self.cells_created,
            cells_reused: self.cells_reused,
            answers: self.answers,
            tuple_allocs: self.tuple_allocs,
            frontier_bytes: self.frontier_bytes,
            frontier_peak_bytes: self.frontier_peak_bytes,
            ghd_bags: self.ghd_bags,
            ghd_estimated_rows: self.ghd_estimated_rows,
            ghd_fallbacks: self.ghd_fallbacks,
            reduce_passes: self.reduce_passes,
            reduce_input_rows: self.reduce_input_rows,
            reduce_output_rows: self.reduce_output_rows,
            ..StatsSnapshot::zero()
        }
    }
}

/// A plain-counter summary of [`EnumStats`]: twenty-one `u64` fields,
/// `Copy`, trivially mergeable. Differences of snapshots are meaningful
/// (all counters are monotone), so per-page costs can be computed as
/// `after.diff(&before)`.
///
/// The four robustness outcomes (`requests_shed`, `deadline_exceeded`,
/// `cancelled`, `faults_injected`) are zero in enumerator-produced
/// snapshots — the serving layer that observes those outcomes adds them
/// as deltas, exactly like the pool counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Total priority-queue insertions.
    pub pq_pushes: u64,
    /// Total priority-queue pops.
    pub pq_pops: u64,
    /// Total cells allocated (including preprocessing).
    pub cells_created: u64,
    /// Memoized cells served from the memo instead of being rebuilt (the
    /// lexicographic enumerator's prefix-binding reuse).
    pub cells_reused: u64,
    /// Number of answers emitted so far.
    pub answers: u64,
    /// Hot-path `Tuple` allocations beyond emitted answers (the
    /// zero-allocation tripwire; see [`EnumStats::tuple_allocs`]).
    pub tuple_allocs: u64,
    /// Bytes retained by the frontier (monotone; see
    /// [`EnumStats::frontier_bytes`]).
    pub frontier_bytes: u64,
    /// Peak live frontier bytes (monotone; see
    /// [`EnumStats::frontier_peak_bytes`]).
    pub frontier_peak_bytes: u64,
    /// Bags of the GHD plan behind this enumerator (zero when acyclic).
    pub ghd_bags: u64,
    /// Rounded AGM bag-size estimate of the chosen GHD plan, when
    /// cost-based selection produced it.
    pub ghd_estimated_rows: u64,
    /// GHD selections that fell back to single-bag full materialisation.
    pub ghd_fallbacks: u64,
    /// Semi-join passes executed by the preprocessing full reducer.
    pub reduce_passes: u64,
    /// Rows entering full-reducer passes, summed over passes.
    pub reduce_input_rows: u64,
    /// Rows surviving full-reducer passes, summed over passes.
    pub reduce_output_rows: u64,
    /// Parallel-preprocessing tasks executed on the worker pool (morsels
    /// and bags — see `re_exec::PoolStats`).
    pub pool_tasks: u64,
    /// Pool tasks that were work-stolen from another worker's deque.
    pub pool_steals: u64,
    /// Wall-clock time spent inside pool task bodies, in microseconds,
    /// summed over all threads.
    pub pool_busy_micros: u64,
    /// Requests refused by admission control (in-flight gate, pipeline
    /// cap or load shedding) with a typed `overloaded` error.
    pub requests_shed: u64,
    /// Requests aborted because their deadline passed (mid-preprocessing
    /// or mid-fetch).
    pub deadline_exceeded: u64,
    /// Requests aborted by an explicit `CANCEL` (or a fetch on a cursor
    /// that was cancelled).
    pub cancelled: u64,
    /// Faults injected by armed `re_fault` failpoints (process-global
    /// total folded in by the serving layer).
    pub faults_injected: u64,
}

impl StatsSnapshot {
    /// The zero snapshot.
    pub fn zero() -> Self {
        StatsSnapshot::default()
    }

    /// Component-wise sum. Every field is monotone per producer —
    /// including the frontier byte fields, which count retained bytes and
    /// a running peak — so sums of snapshots (and of snapshot deltas)
    /// stay meaningful.
    ///
    /// Peak caveat (same as [`EnumStats::merge`]): the producers' peaks
    /// need not coincide in time, so the summed `frontier_peak_bytes` is
    /// an **upper bound** on the true peak of the combined frontier, not
    /// an observed maximum.
    pub fn merge(&mut self, other: &StatsSnapshot) {
        self.pq_pushes += other.pq_pushes;
        self.pq_pops += other.pq_pops;
        self.cells_created += other.cells_created;
        self.cells_reused += other.cells_reused;
        self.answers += other.answers;
        self.tuple_allocs += other.tuple_allocs;
        self.frontier_bytes += other.frontier_bytes;
        self.frontier_peak_bytes += other.frontier_peak_bytes;
        self.ghd_bags += other.ghd_bags;
        self.ghd_estimated_rows += other.ghd_estimated_rows;
        self.ghd_fallbacks += other.ghd_fallbacks;
        self.reduce_passes += other.reduce_passes;
        self.reduce_input_rows += other.reduce_input_rows;
        self.reduce_output_rows += other.reduce_output_rows;
        self.pool_tasks += other.pool_tasks;
        self.pool_steals += other.pool_steals;
        self.pool_busy_micros += other.pool_busy_micros;
        self.requests_shed += other.requests_shed;
        self.deadline_exceeded += other.deadline_exceeded;
        self.cancelled += other.cancelled;
        self.faults_injected += other.faults_injected;
    }

    /// Component-wise difference `self - earlier` (saturating, so a stale
    /// `earlier` cannot underflow).
    #[must_use]
    pub fn diff(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            pq_pushes: self.pq_pushes.saturating_sub(earlier.pq_pushes),
            pq_pops: self.pq_pops.saturating_sub(earlier.pq_pops),
            cells_created: self.cells_created.saturating_sub(earlier.cells_created),
            cells_reused: self.cells_reused.saturating_sub(earlier.cells_reused),
            answers: self.answers.saturating_sub(earlier.answers),
            tuple_allocs: self.tuple_allocs.saturating_sub(earlier.tuple_allocs),
            frontier_bytes: self.frontier_bytes.saturating_sub(earlier.frontier_bytes),
            frontier_peak_bytes: self
                .frontier_peak_bytes
                .saturating_sub(earlier.frontier_peak_bytes),
            ghd_bags: self.ghd_bags.saturating_sub(earlier.ghd_bags),
            ghd_estimated_rows: self
                .ghd_estimated_rows
                .saturating_sub(earlier.ghd_estimated_rows),
            ghd_fallbacks: self.ghd_fallbacks.saturating_sub(earlier.ghd_fallbacks),
            reduce_passes: self.reduce_passes.saturating_sub(earlier.reduce_passes),
            reduce_input_rows: self
                .reduce_input_rows
                .saturating_sub(earlier.reduce_input_rows),
            reduce_output_rows: self
                .reduce_output_rows
                .saturating_sub(earlier.reduce_output_rows),
            pool_tasks: self.pool_tasks.saturating_sub(earlier.pool_tasks),
            pool_steals: self.pool_steals.saturating_sub(earlier.pool_steals),
            pool_busy_micros: self
                .pool_busy_micros
                .saturating_sub(earlier.pool_busy_micros),
            requests_shed: self.requests_shed.saturating_sub(earlier.requests_shed),
            deadline_exceeded: self
                .deadline_exceeded
                .saturating_sub(earlier.deadline_exceeded),
            cancelled: self.cancelled.saturating_sub(earlier.cancelled),
            faults_injected: self.faults_injected.saturating_sub(earlier.faults_injected),
        }
    }

    /// Total priority-queue operations.
    pub fn pq_ops(&self) -> u64 {
        self.pq_pushes + self.pq_pops
    }
}

/// Lock-free accumulator of [`StatsSnapshot`]s, for aggregating enumeration
/// work across worker threads without a global lock: each worker adds the
/// *delta* of its cursor's counters after every page; readers take a
/// consistent-enough snapshot with [`SharedStats::snapshot`].
#[derive(Debug, Default)]
pub struct SharedStats {
    pq_pushes: AtomicU64,
    pq_pops: AtomicU64,
    cells_created: AtomicU64,
    cells_reused: AtomicU64,
    answers: AtomicU64,
    tuple_allocs: AtomicU64,
    frontier_bytes: AtomicU64,
    frontier_peak_bytes: AtomicU64,
    ghd_bags: AtomicU64,
    ghd_estimated_rows: AtomicU64,
    ghd_fallbacks: AtomicU64,
    reduce_passes: AtomicU64,
    reduce_input_rows: AtomicU64,
    reduce_output_rows: AtomicU64,
    pool_tasks: AtomicU64,
    pool_steals: AtomicU64,
    pool_busy_micros: AtomicU64,
    requests_shed: AtomicU64,
    deadline_exceeded: AtomicU64,
    cancelled: AtomicU64,
    faults_injected: AtomicU64,
}

impl SharedStats {
    /// Create a zeroed accumulator.
    pub fn new() -> Self {
        SharedStats::default()
    }

    /// Add a snapshot (typically a delta) to the totals. Uses relaxed
    /// ordering: the counters are monitoring data, not synchronisation.
    pub fn add(&self, delta: &StatsSnapshot) {
        self.pq_pushes.fetch_add(delta.pq_pushes, Ordering::Relaxed);
        self.pq_pops.fetch_add(delta.pq_pops, Ordering::Relaxed);
        self.cells_created
            .fetch_add(delta.cells_created, Ordering::Relaxed);
        self.cells_reused
            .fetch_add(delta.cells_reused, Ordering::Relaxed);
        self.answers.fetch_add(delta.answers, Ordering::Relaxed);
        self.tuple_allocs
            .fetch_add(delta.tuple_allocs, Ordering::Relaxed);
        self.frontier_bytes
            .fetch_add(delta.frontier_bytes, Ordering::Relaxed);
        self.frontier_peak_bytes
            .fetch_add(delta.frontier_peak_bytes, Ordering::Relaxed);
        self.ghd_bags.fetch_add(delta.ghd_bags, Ordering::Relaxed);
        self.ghd_estimated_rows
            .fetch_add(delta.ghd_estimated_rows, Ordering::Relaxed);
        self.ghd_fallbacks
            .fetch_add(delta.ghd_fallbacks, Ordering::Relaxed);
        self.reduce_passes
            .fetch_add(delta.reduce_passes, Ordering::Relaxed);
        self.reduce_input_rows
            .fetch_add(delta.reduce_input_rows, Ordering::Relaxed);
        self.reduce_output_rows
            .fetch_add(delta.reduce_output_rows, Ordering::Relaxed);
        self.pool_tasks
            .fetch_add(delta.pool_tasks, Ordering::Relaxed);
        self.pool_steals
            .fetch_add(delta.pool_steals, Ordering::Relaxed);
        self.pool_busy_micros
            .fetch_add(delta.pool_busy_micros, Ordering::Relaxed);
        self.requests_shed
            .fetch_add(delta.requests_shed, Ordering::Relaxed);
        self.deadline_exceeded
            .fetch_add(delta.deadline_exceeded, Ordering::Relaxed);
        self.cancelled.fetch_add(delta.cancelled, Ordering::Relaxed);
        self.faults_injected
            .fetch_add(delta.faults_injected, Ordering::Relaxed);
    }

    /// Current totals.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            pq_pushes: self.pq_pushes.load(Ordering::Relaxed),
            pq_pops: self.pq_pops.load(Ordering::Relaxed),
            cells_created: self.cells_created.load(Ordering::Relaxed),
            cells_reused: self.cells_reused.load(Ordering::Relaxed),
            answers: self.answers.load(Ordering::Relaxed),
            tuple_allocs: self.tuple_allocs.load(Ordering::Relaxed),
            frontier_bytes: self.frontier_bytes.load(Ordering::Relaxed),
            frontier_peak_bytes: self.frontier_peak_bytes.load(Ordering::Relaxed),
            ghd_bags: self.ghd_bags.load(Ordering::Relaxed),
            ghd_estimated_rows: self.ghd_estimated_rows.load(Ordering::Relaxed),
            ghd_fallbacks: self.ghd_fallbacks.load(Ordering::Relaxed),
            reduce_passes: self.reduce_passes.load(Ordering::Relaxed),
            reduce_input_rows: self.reduce_input_rows.load(Ordering::Relaxed),
            reduce_output_rows: self.reduce_output_rows.load(Ordering::Relaxed),
            pool_tasks: self.pool_tasks.load(Ordering::Relaxed),
            pool_steals: self.pool_steals.load(Ordering::Relaxed),
            pool_busy_micros: self.pool_busy_micros.load(Ordering::Relaxed),
            requests_shed: self.requests_shed.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_tracks_ops_between_answers() {
        let mut s = EnumStats::new();
        s.record_push();
        s.record_pop();
        s.record_answer();
        s.record_push();
        s.record_answer();
        s.record_answer();
        assert_eq!(s.answers, 3);
        assert_eq!(s.ops_per_answer, vec![2, 1, 0]);
        assert_eq!(s.max_ops_per_answer(), 2);
    }

    #[test]
    fn cdf_is_monotone_and_reaches_one() {
        let mut s = EnumStats::new();
        for ops in [1u64, 1, 3, 7] {
            for _ in 0..ops {
                s.record_push();
            }
            s.record_answer();
        }
        assert!(s.cdf_at(0) <= s.cdf_at(1));
        assert_eq!(s.cdf_at(1), 0.5);
        assert_eq!(s.cdf_at(7), 1.0);
        assert_eq!(s.cdf_at(100), 1.0);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = EnumStats::new();
        a.record_push();
        let mut b = EnumStats::new();
        b.record_pop();
        b.record_cell();
        b.record_cell_reuse();
        b.record_relation_clones(3);
        b.record_reducer_call();
        a.merge(&b);
        assert_eq!(a.pq_pushes, 1);
        assert_eq!(a.pq_pops, 1);
        assert_eq!(a.cells_created, 1);
        assert_eq!(a.cells_reused, 1);
        assert_eq!(a.relation_clones, 3);
        assert_eq!(a.reducer_calls, 1);
    }

    #[test]
    fn cell_reuse_flows_into_snapshots_and_shared_stats() {
        let mut s = EnumStats::new();
        s.record_cell();
        s.record_cell_reuse();
        s.record_cell_reuse();
        let snap = s.snapshot();
        assert_eq!(snap.cells_created, 1);
        assert_eq!(snap.cells_reused, 2);
        let shared = SharedStats::new();
        shared.add(&snap);
        shared.add(&snap);
        assert_eq!(shared.snapshot().cells_reused, 4);
        let diff = shared.snapshot().diff(&snap);
        assert_eq!(diff.cells_reused, 2);
    }

    #[test]
    fn empty_cdf_is_one() {
        let s = EnumStats::new();
        assert_eq!(s.cdf_at(0), 1.0);
    }

    #[test]
    fn snapshot_captures_counters_and_diffs() {
        let mut s = EnumStats::new();
        s.record_push();
        s.record_push();
        s.record_pop();
        s.record_cell();
        s.record_answer();
        let before = s.snapshot();
        assert_eq!(before.pq_pushes, 2);
        assert_eq!(before.pq_pops, 1);
        assert_eq!(before.cells_created, 1);
        assert_eq!(before.answers, 1);
        assert_eq!(before.pq_ops(), 3);
        s.record_push();
        s.record_answer();
        let delta = s.snapshot().diff(&before);
        assert_eq!(delta.pq_pushes, 1);
        assert_eq!(delta.answers, 1);
        assert_eq!(delta.cells_created, 0);
    }

    #[test]
    fn shared_stats_accumulates_across_threads() {
        let shared = std::sync::Arc::new(SharedStats::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let shared = std::sync::Arc::clone(&shared);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        shared.add(&StatsSnapshot {
                            pq_pushes: 1,
                            pq_pops: 2,
                            cells_created: 3,
                            cells_reused: 8,
                            answers: 4,
                            tuple_allocs: 9,
                            frontier_bytes: 10,
                            frontier_peak_bytes: 11,
                            ghd_bags: 2,
                            ghd_estimated_rows: 12,
                            ghd_fallbacks: 1,
                            reduce_passes: 13,
                            reduce_input_rows: 14,
                            reduce_output_rows: 15,
                            pool_tasks: 5,
                            pool_steals: 6,
                            pool_busy_micros: 7,
                            requests_shed: 16,
                            deadline_exceeded: 17,
                            cancelled: 18,
                            faults_injected: 19,
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total = shared.snapshot();
        assert_eq!(total.pq_pushes, 400);
        assert_eq!(total.pq_pops, 800);
        assert_eq!(total.cells_created, 1200);
        assert_eq!(total.cells_reused, 3200);
        assert_eq!(total.answers, 1600);
        assert_eq!(total.ghd_bags, 800);
        assert_eq!(total.ghd_estimated_rows, 4800);
        assert_eq!(total.ghd_fallbacks, 400);
        assert_eq!(total.reduce_passes, 5200);
        assert_eq!(total.reduce_input_rows, 5600);
        assert_eq!(total.reduce_output_rows, 6000);
        assert_eq!(total.pool_tasks, 2000);
        assert_eq!(total.pool_steals, 2400);
        assert_eq!(total.pool_busy_micros, 2800);
        assert_eq!(total.requests_shed, 6400);
        assert_eq!(total.deadline_exceeded, 6800);
        assert_eq!(total.cancelled, 7200);
        assert_eq!(total.faults_injected, 7600);
    }

    #[test]
    fn snapshot_merge_adds_componentwise() {
        let mut a = StatsSnapshot::zero();
        a.merge(&StatsSnapshot {
            pq_pushes: 5,
            pq_pops: 6,
            cells_created: 7,
            answers: 8,
            ..StatsSnapshot::zero()
        });
        assert_eq!(a.pq_pushes, 5);
        assert_eq!(a.answers, 8);
        // diff saturates instead of underflowing
        assert_eq!(StatsSnapshot::zero().diff(&a), StatsSnapshot::zero());
    }
}
