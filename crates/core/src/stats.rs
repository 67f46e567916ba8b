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

use re_obs::{counter_table, AtomicCounters};

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
    /// `Tuple` allocations performed **while enumerating** (inside `next`)
    /// beyond the emitted answer itself. Always 0 since PR 20, kept for
    /// wire and benchmark compatibility; the allocation ban is enforced by
    /// the counting allocator in `tests/frontier_alloc_tripwire.rs`.
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

/// The additive counters an enumerator produces under the name its
/// [`StatsSnapshot`] reports them by, listed once for [`EnumStats::merge`]
/// and [`EnumStats::snapshot`]: expands to `$apply!(field field ...)`.
macro_rules! snapshot_counters {
    ($apply:ident) => {
        $apply!(pq_pushes pq_pops cells_created cells_reused tuple_allocs
            frontier_bytes frontier_peak_bytes ghd_bags ghd_estimated_rows ghd_fallbacks
            reduce_passes reduce_input_rows reduce_output_rows)
    };
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
        macro_rules! add {
            ($($field:ident)*) => { $(self.$field += other.$field;)* };
        }
        // A composite's frontier is the disjoint union of its parts, so
        // bytes add; the sum of the parts' peaks upper-bounds the
        // composite peak.
        snapshot_counters!(add);
        self.frontier_live_bytes += other.frontier_live_bytes;
        // answers / histogram are tracked by the composite itself
    }

    /// Cheap `Copy` summary of the counters, without the per-answer delay
    /// histogram. This is what crosses thread boundaries. The pool counters
    /// are zero here: enumerators do not own the worker pool; the process
    /// that does (e.g. the server) fills them in.
    pub fn snapshot(&self) -> StatsSnapshot {
        macro_rules! copy {
            ($($field:ident)*) => {
                StatsSnapshot { answers: self.answers, $($field: self.$field,)* ..StatsSnapshot::zero() }
            };
        }
        snapshot_counters!(copy)
    }
}

counter_table! {
    /// A plain-counter summary of [`EnumStats`]: [`StatsSnapshot::N`] `u64`
    /// fields, `Copy`, trivially mergeable. Differences of snapshots are
    /// meaningful (all counters are monotone), so per-page costs can be
    /// computed as `after.diff(&before)`.
    ///
    /// The pool counters and the four robustness outcomes are zero in
    /// enumerator-produced snapshots — the serving layer that owns the
    /// pool and observes those outcomes adds them as deltas.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct StatsSnapshot, key prefix "" {
        pq_pushes: Counter "enum.pq_pushes" = "Priority-queue insertions.",
        pq_pops: Counter "enum.pq_pops" = "Priority-queue pops.",
        /// Includes preprocessing.
        cells_created: Counter "enum.cells_created" = "Cells allocated.",
        /// The lexicographic enumerator's prefix-binding reuse.
        cells_reused: Counter "enum.cells_reused" = "Memoized cells served from the memo.",
        answers: Counter "enum.answers" = "Answers emitted.",
        /// Allocations beyond the emitted answers; see
        /// [`EnumStats::tuple_allocs`].
        tuple_allocs: Counter "enum.tuple_allocs" = "Hot-path tuple allocations (tripwire).",
        /// See [`EnumStats::frontier_bytes`].
        frontier_bytes: Counter "enum.frontier_bytes" = "Frontier bytes retained (monotone).",
        /// Each producer's peak of live frontier bytes is monotone (see
        /// [`EnumStats::frontier_peak_bytes`]); the producers' peaks need
        /// not coincide in time, so their sum bounds the combined peak.
        frontier_peak_bytes: Counter "enum.frontier_peak_bytes" = "Summed peak frontier bytes (upper bound).",
        /// Zero for acyclic statements, which need no decomposition.
        ghd_bags: Counter "enum.ghd_bags" = "Bags across chosen GHD plans.",
        /// Rounded, for plans that cost-based selection produced.
        ghd_estimated_rows: Counter "enum.ghd_estimated_rows" = "Summed AGM bag-size estimates.",
        /// The bag is then a full materialisation.
        ghd_fallbacks: Counter "enum.ghd_fallbacks" = "GHD selections that fell back to a single bag.",
        /// Passes of the preprocessing full reducer.
        reduce_passes: Counter "enum.reduce_passes" = "Semi-join reducer passes.",
        /// Summed over passes.
        reduce_input_rows: Counter "enum.reduce_input_rows" = "Rows scanned by the semi-join reducer.",
        /// Summed over passes.
        reduce_output_rows: Counter "enum.reduce_output_rows" = "Rows surviving the semi-join reducer.",
        /// Morsels and bags run on the worker pool — see
        /// `re_exec::PoolStats`.
        pool_tasks: Counter "exec.pool_tasks" = "Parallel-preprocessing tasks executed.",
        /// Taken from another worker's deque.
        pool_steals: Counter "exec.pool_steals" = "Pool tasks stolen across workers.",
        /// Wall-clock time, summed over all threads.
        pool_busy_micros: Counter "exec.pool_busy_micros" = "Microseconds inside pool task bodies.",
        /// Each was answered with a typed `overloaded` error.
        requests_shed: Counter "server.requests_shed" = "Requests refused by admission control (in-flight gate, pipeline cap, load shedding).",
        /// Mid-preprocessing or mid-fetch.
        deadline_exceeded: Counter "server.deadline_exceeded" = "Requests aborted because their deadline passed.",
        /// Also counts a fetch cancelled because its connection died.
        cancelled: Counter "server.cancelled" = "Sessions cancelled by explicit CANCEL requests.",
        /// The process-global `re_fault` total, folded in by the serving
        /// layer.
        faults_injected: Counter "fault.injected_total" = "Faults injected by armed failpoints (RE_FAULT).",
    }
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
    pub fn merge(&mut self, other: &StatsSnapshot) {
        let mut sum = self.values();
        for (total, add) in sum.iter_mut().zip(other.values()) {
            *total += add;
        }
        *self = StatsSnapshot::from_values(sum);
    }

    /// The snapshot of a composite enumerator: `self`, the composite's own
    /// counters, plus every counter of its `parts` except `answers` — a
    /// part's answer is not the composite's until the merge emits it.
    #[must_use]
    pub fn with_parts(mut self, parts: impl IntoIterator<Item = StatsSnapshot>) -> Self {
        let answers = self.answers;
        for part in parts {
            self.merge(&part);
        }
        self.answers = answers;
        self
    }

    /// Component-wise difference `self - earlier` (saturating, so a stale
    /// `earlier` cannot underflow).
    #[must_use]
    pub fn diff(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        let mut delta = self.values();
        for (later, before) in delta.iter_mut().zip(earlier.values()) {
            *later = later.saturating_sub(before);
        }
        StatsSnapshot::from_values(delta)
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
pub struct SharedStats(AtomicCounters<{ StatsSnapshot::N }>);

impl SharedStats {
    /// Create a zeroed accumulator.
    pub fn new() -> Self {
        SharedStats::default()
    }

    /// Add a snapshot (typically a delta) to the totals.
    pub fn add(&self, delta: &StatsSnapshot) {
        self.0.add(delta.values());
    }

    /// Current totals.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot::from_values(self.0.load())
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
        a.merge(&b);
        assert_eq!(a.pq_pushes, 1);
        assert_eq!(a.pq_pops, 1);
        assert_eq!(a.cells_created, 1);
        assert_eq!(a.cells_reused, 1);
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

    /// Every declared counter gets its own value: `start`, `start + 1`, ...
    fn distinct(start: u64) -> StatsSnapshot {
        StatsSnapshot::from_values(std::array::from_fn(|i| start + i as u64))
    }

    #[test]
    fn shared_stats_accumulates_across_threads() {
        let shared = std::sync::Arc::new(SharedStats::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let shared = std::sync::Arc::clone(&shared);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        shared.add(&distinct(1));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for (i, total) in shared.snapshot().values().into_iter().enumerate() {
            let key = StatsSnapshot::FIELDS[i].key;
            assert_eq!(total, 400 * (i as u64 + 1), "{key}");
        }
    }

    #[test]
    fn every_declared_counter_survives_merge_diff_and_the_atomic_mirror() {
        let (a, b) = (distinct(100), distinct(1));
        assert_eq!(StatsSnapshot::from_values(a.values()), a);
        let mut sum = a;
        sum.merge(&b);
        let shared = SharedStats::new();
        shared.add(&a);
        shared.add(&StatsSnapshot::zero());
        shared.add(&b);
        assert_eq!(shared.snapshot(), sum);
        for i in 0..StatsSnapshot::N {
            let key = StatsSnapshot::FIELDS[i].key;
            assert_eq!(sum.values()[i], 101 + 2 * i as u64, "{key}");
            assert_eq!(sum.diff(&a).values()[i], b.values()[i], "{key}");
        }
        // The descriptors are distinct, so no two counters can collide
        // on the wire or on the metrics page.
        let mut keys: Vec<_> = StatsSnapshot::FIELDS.iter().map(|f| f.key).collect();
        let mut metrics: Vec<_> = StatsSnapshot::FIELDS.iter().map(|f| f.metric).collect();
        keys.sort_unstable();
        keys.dedup();
        metrics.sort_unstable();
        metrics.dedup();
        assert_eq!(
            (keys.len(), metrics.len()),
            (StatsSnapshot::N, StatsSnapshot::N)
        );
    }

    #[test]
    fn enumerator_snapshots_carry_every_counter_the_enumerator_produces() {
        let mut a = EnumStats::new();
        a.record_push();
        a.record_pop();
        a.record_cell();
        a.record_cell_reuse();
        a.tuple_allocs = 2;
        a.frontier_alloc(64, 48);
        a.record_reduce(3, 50, 40);
        a.ghd_bags = 2;
        a.ghd_estimated_rows = 90;
        a.ghd_fallbacks = 1;
        a.record_answer();
        let snap = a.snapshot();
        let produced: Vec<_> = StatsSnapshot::FIELDS
            .iter()
            .zip(snap.values())
            .filter(|(_, v)| *v != 0)
            .map(|(f, _)| f.key)
            .collect();
        assert_eq!(produced.len(), 14, "{produced:?}");
        // A composite adds its parts' counters but tracks answers itself.
        let mut composite = EnumStats::new();
        composite.merge(&a);
        composite.merge(&a);
        let mut twice = snap;
        twice.merge(&snap);
        twice.answers = 0;
        assert_eq!(composite.snapshot(), twice);
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
