//! Object-safe view of a live ranked enumeration.
//!
//! The enumerators in this crate are generic over the ranking function, so
//! a component that keeps *many* live enumerations of different shapes —
//! e.g. a query server's session table, where each session holds a
//! resumable cursor — needs a common, type-erased interface. A
//! [`RankedStream`] is exactly that: a `Send` iterator over output tuples
//! in rank order that also reports its output attributes, the enumeration
//! strategy it runs and a cheap snapshot of its statistics.
//!
//! All enumerators own their inputs (the full-reducer pass copies the
//! relations they need out of the database), so a boxed stream can migrate
//! freely between worker threads for as long as the session lives.

use crate::acyclic::AcyclicEnumerator;
use crate::cyclic::{CyclicEnumerator, GhdReport};
use crate::lexi::LexiEnumerator;
use crate::plan::Algorithm;
use crate::shared::SharedFrontier;
use crate::stats::StatsSnapshot;
use crate::union::UnionEnumerator;
use re_exec::{CancelKind, CancelToken};
use re_obs::{saturating_nanos, AtomicHistogram, LocalHistogram, TimingBreakdown};
use re_ranking::Ranking;
use re_storage::{Attr, Tuple};
use std::sync::Arc;
use std::time::Instant;

/// A type-erased, thread-migratable ranked enumeration in progress.
pub trait RankedStream: Iterator<Item = Tuple> + Send {
    /// The projection attributes, in output order.
    fn output_attrs(&self) -> &[Attr];

    /// The enumeration strategy driving this stream.
    fn algorithm(&self) -> Algorithm;

    /// Cheap summary of the work done so far. Monotone, so per-page deltas
    /// can be computed by differencing two snapshots.
    fn stats_snapshot(&self) -> StatsSnapshot;

    /// The GHD plan shape behind this stream, when the query needed a
    /// decomposition: the chosen shape, annotated with the fallback reason
    /// if selection had to degrade to full materialisation. `None` for
    /// decomposition-free strategies.
    fn plan_shape(&self) -> Option<String> {
        None
    }

    /// Wall-clock profile of this enumeration (open duration, phase
    /// breakdown, time-to-first-answer, inter-answer delay histogram).
    /// `None` unless the stream is wrapped in an [`InstrumentedStream`];
    /// raw enumerators carry counters only.
    fn timing_breakdown(&self) -> Option<TimingBreakdown> {
        None
    }

    /// The full GHD selection report (candidates compared, per-bag
    /// estimate-vs-actual details) when the query ran through a
    /// decomposition. `None` for decomposition-free strategies.
    fn ghd_report(&self) -> Option<GhdReport> {
        None
    }

    /// Why the stream stopped early, if it did: a cancellation-aware
    /// wrapper ([`InstrumentedStream`] with a token attached) returns
    /// `Some(kind)` once its token trips, letting consumers distinguish a
    /// cancelled stream from an exhausted one — both return `None` from
    /// `next()`. Raw enumerators never cancel.
    fn cancel_status(&self) -> Option<CancelKind> {
        None
    }

    /// Append up to `k` further answers to `page`, each admitted by `gate`
    /// before it is produced and reported to it after: the page ends early
    /// when the gate refuses an answer or the stream runs out. One call
    /// per FETCH page, so a stream behind a lock ([`ChainCursor`](crate::ChainCursor)) takes
    /// it once per page, not once per answer; the default loops over
    /// [`Iterator::next`].
    fn next_page(&mut self, k: usize, page: &mut Vec<Tuple>, gate: &mut AnswerGate) {
        fill_page(k, page, gate, || self.next());
    }

    /// The Algorithm 1 state this stream reads its answers from when it
    /// is shared with other cursors ([`ChainCursor`](crate::ChainCursor)); `None` for a
    /// stream that owns its enumerator.
    fn shared_frontier(&self) -> Option<&Arc<SharedFrontier>> {
        None
    }
}

/// The page loop of every [`RankedStream::next_page`]: up to `k` answers
/// from `step`, each admitted by `gate` before it is produced and reported
/// to it after. Admitting first means a token that trips is latched even
/// when the stream has nothing left, so every stream ends a page the same
/// way.
pub(crate) fn fill_page(
    k: usize,
    page: &mut Vec<Tuple>,
    gate: &mut AnswerGate,
    mut step: impl FnMut() -> Option<Tuple>,
) {
    for _ in 0..k {
        if !gate.admit() {
            return;
        }
        match step() {
            Some(answer) => {
                page.push(answer);
                gate.emitted();
            }
            None => return,
        }
    }
}

/// One answer in this many has its delay timed: answers `0`, `64`, `128`,
/// … (a systematic sample). Not a knob — a constant, like a bucket width.
pub const DELAY_SAMPLE_EVERY: u64 = 64;

/// The per-answer checks a page runs through: the explicit-cancel and
/// deadline check before each answer, and the 1-in-[`DELAY_SAMPLE_EVERY`]
/// delay sample after it (recorded both in a per-stream histogram and the
/// global `cursor.delay_ns` aggregate), plus the time from `opened_at` to
/// the first answer (`cursor.ttfa_ns`). [`InstrumentedStream`] owns one
/// and passes it to [`RankedStream::next_page`], so a stream that takes a
/// lock per page keeps the checks of every answer inside it.
///
/// Answer 0 is always timed, so the time to first answer is exact, and
/// the answer count is exact; only the delay histograms are a 1-in-64
/// sample. The exact per-answer delay proxy is the PQ-operation count in
/// [`RankedStream::stats_snapshot`].
///
/// An untimed answer costs one relaxed load of the explicit-cancel flag,
/// plus one `Instant::now()` only when the token has a deadline, so a
/// deadline or cancel stops the stream at exactly the answer it would if
/// every answer were timed. A timed one adds an `Instant::now()` pair, a
/// local bucket increment and a relaxed `fetch_add` — allocation-free,
/// preserving the enumeration tripwires.
/// `BENCHMARK.json`'s `obs.instrument_overhead_ns` measures the amortised
/// cost per answer.
pub struct AnswerGate {
    opened_at: Instant,
    answers: u64,
    first_answer_nanos: Option<u64>,
    delay: LocalHistogram,
    delay_global: Arc<AtomicHistogram>,
    ttfa_global: Arc<AtomicHistogram>,
    /// Cancellation token polled before each answer; `None` never trips.
    cancel: Option<CancelToken>,
    /// Latched once the token trips: the gate stays shut (and keeps
    /// reporting the same kind) even if time or flags move on.
    cancel_status: Option<CancelKind>,
    /// When the admitted answer began, if it is one of the timed ones.
    started: Option<Instant>,
}

impl AnswerGate {
    /// A gate for a stream whose opening began at `opened_at`.
    pub fn new(opened_at: Instant) -> Self {
        let registry = re_obs::global();
        AnswerGate {
            opened_at,
            answers: 0,
            first_answer_nanos: None,
            delay: LocalHistogram::new(),
            delay_global: registry.histogram("cursor.delay_ns"),
            ttfa_global: registry.histogram("cursor.ttfa_ns"),
            cancel: None,
            cancel_status: None,
            started: None,
        }
    }

    /// Before an answer: whether it may be produced. `false` once the
    /// token has tripped, and from then on.
    #[inline]
    pub fn admit(&mut self) -> bool {
        if self.cancel_status.is_some() {
            return false;
        }
        // A timed answer's clock reading also serves the deadline check;
        // an untimed one reads the clock only if the token has a deadline.
        self.started = self
            .answers
            .is_multiple_of(DELAY_SAMPLE_EVERY)
            .then(Instant::now);
        if let Some(token) = &self.cancel {
            let checked = match self.started {
                Some(now) => token.check_at(now),
                None => token.check(),
            };
            if let Err(kind) = checked {
                self.cancel_status = Some(kind);
                return false;
            }
        }
        true
    }

    /// After an admitted answer was produced: count it, and time it if it
    /// is one of the sampled ones. An admitted call that found the stream
    /// exhausted calls nothing, and records nothing.
    #[inline]
    pub fn emitted(&mut self) {
        if let Some(start) = self.started.take() {
            let nanos = saturating_nanos(start.elapsed());
            self.delay.record(nanos);
            self.delay_global.record(nanos);
            if self.answers == 0 {
                let ttfa = saturating_nanos(self.opened_at.elapsed());
                self.first_answer_nanos = Some(ttfa);
                self.ttfa_global.record(ttfa);
            }
        }
        self.answers += 1;
    }
}

/// A [`RankedStream`] wrapper that measures wall-clock behaviour and stops
/// on cancellation, through its [`AnswerGate`].
pub struct InstrumentedStream {
    inner: Box<dyn RankedStream>,
    open_nanos: u64,
    phases: Vec<(String, u64)>,
    gate: AnswerGate,
}

impl InstrumentedStream {
    /// Wrap a freshly opened stream. `opened_at` is the instant opening
    /// began and `phases` the spans captured while it ran; `open_nanos`
    /// is measured here, so call this immediately after construction.
    pub fn new(
        inner: Box<dyn RankedStream>,
        opened_at: Instant,
        phases: Vec<(String, u64)>,
    ) -> Self {
        InstrumentedStream {
            inner,
            open_nanos: saturating_nanos(opened_at.elapsed()),
            phases,
            gate: AnswerGate::new(opened_at),
        }
    }

    /// Attach a cancellation token: once it trips, `next()` returns `None`
    /// and [`RankedStream::cancel_status`] reports why.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.gate.cancel = Some(token);
        self
    }

    /// Append up to `k` further answers to `page` in one call to the
    /// inner stream ([`RankedStream::next_page`]), each through this
    /// stream's gate. A page shorter than `k` means the stream is
    /// exhausted or cancelled; [`RankedStream::cancel_status`] says which.
    pub fn fill_page(&mut self, k: usize, page: &mut Vec<Tuple>) {
        self.inner.next_page(k, page, &mut self.gate);
    }
}

impl Iterator for InstrumentedStream {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        if !self.gate.admit() {
            return None;
        }
        let item = self.inner.next();
        if item.is_some() {
            self.gate.emitted();
        }
        item
    }
}

impl RankedStream for InstrumentedStream {
    fn output_attrs(&self) -> &[Attr] {
        self.inner.output_attrs()
    }

    fn algorithm(&self) -> Algorithm {
        self.inner.algorithm()
    }

    fn stats_snapshot(&self) -> StatsSnapshot {
        self.inner.stats_snapshot()
    }

    fn plan_shape(&self) -> Option<String> {
        self.inner.plan_shape()
    }

    fn ghd_report(&self) -> Option<GhdReport> {
        self.inner.ghd_report()
    }

    fn timing_breakdown(&self) -> Option<TimingBreakdown> {
        Some(TimingBreakdown {
            open_nanos: self.open_nanos,
            phases: self.phases.clone(),
            answers: self.gate.answers,
            first_answer_nanos: self.gate.first_answer_nanos,
            delay: self.gate.delay.snapshot(),
        })
    }

    fn cancel_status(&self) -> Option<CancelKind> {
        self.gate.cancel_status
    }

    fn shared_frontier(&self) -> Option<&Arc<SharedFrontier>> {
        self.inner.shared_frontier()
    }
}

impl<R: Ranking + Clone> RankedStream for AcyclicEnumerator<R> {
    fn output_attrs(&self) -> &[Attr] {
        AcyclicEnumerator::output_attrs(self)
    }

    fn algorithm(&self) -> Algorithm {
        Algorithm::Acyclic
    }

    fn stats_snapshot(&self) -> StatsSnapshot {
        self.stats().snapshot()
    }
}

impl<R: Ranking + Clone> RankedStream for CyclicEnumerator<R> {
    fn output_attrs(&self) -> &[Attr] {
        CyclicEnumerator::output_attrs(self)
    }

    fn algorithm(&self) -> Algorithm {
        Algorithm::CyclicGhd
    }

    fn stats_snapshot(&self) -> StatsSnapshot {
        self.stats().snapshot()
    }

    fn plan_shape(&self) -> Option<String> {
        Some(self.plan_report().annotated_shape())
    }

    fn ghd_report(&self) -> Option<GhdReport> {
        Some(self.plan_report().clone())
    }
}

impl<R: Ranking + Clone + 'static> RankedStream for UnionEnumerator<R> {
    fn output_attrs(&self) -> &[Attr] {
        UnionEnumerator::output_attrs(self)
    }

    fn algorithm(&self) -> Algorithm {
        Algorithm::UnionMerge
    }

    /// Merge counters plus every branch enumerator's work (preprocessing
    /// cells, branch priority queues).
    fn stats_snapshot(&self) -> StatsSnapshot {
        UnionEnumerator::stats_snapshot(self)
    }

    fn plan_shape(&self) -> Option<String> {
        UnionEnumerator::plan_shape(self)
    }
}

impl RankedStream for LexiEnumerator {
    fn output_attrs(&self) -> &[Attr] {
        LexiEnumerator::output_attrs(self)
    }

    fn algorithm(&self) -> Algorithm {
        Algorithm::Lexi
    }

    fn stats_snapshot(&self) -> StatsSnapshot {
        self.stats().snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use re_query::QueryBuilder;
    use re_ranking::SumRanking;
    use re_storage::attr::attrs;
    use re_storage::{Database, Relation};
    use std::time::Duration;

    fn assert_send<T: Send>(_: &T) {}

    #[test]
    fn enumerators_are_send_and_type_erasable() {
        let mut db = Database::new();
        db.add_relation(
            Relation::with_tuples(
                "E",
                attrs(["s", "t"]),
                vec![vec![1, 2], vec![2, 3], vec![2, 4]],
            )
            .unwrap(),
        )
        .unwrap();
        let q = QueryBuilder::new()
            .atom("E1", "E", ["x", "y"])
            .atom("E2", "E", ["y", "z"])
            .project(["x", "z"])
            .build()
            .unwrap();
        let e = AcyclicEnumerator::new(&q, &db, SumRanking::value_sum()).unwrap();
        assert_send(&e);
        let mut boxed: Box<dyn RankedStream> = Box::new(e);
        assert_eq!(boxed.algorithm(), Algorithm::Acyclic);
        assert_eq!(boxed.output_attrs(), &[Attr::new("x"), Attr::new("z")]);
        let before = boxed.stats_snapshot();
        let first = boxed.next().unwrap();
        assert_eq!(first, vec![1, 3]);
        let delta = boxed.stats_snapshot().diff(&before);
        assert_eq!(delta.answers, 1);
        // The boxed stream can cross a thread boundary mid-enumeration.
        let rest = std::thread::spawn(move || boxed.collect::<Vec<_>>())
            .join()
            .unwrap();
        assert!(!rest.is_empty());
    }

    #[test]
    fn instrumented_stream_reports_timing_without_changing_answers() {
        let mut db = Database::new();
        db.add_relation(
            Relation::with_tuples(
                "E",
                attrs(["s", "t"]),
                vec![vec![1, 2], vec![2, 3], vec![2, 4]],
            )
            .unwrap(),
        )
        .unwrap();
        let q = QueryBuilder::new()
            .atom("E1", "E", ["x", "y"])
            .atom("E2", "E", ["y", "z"])
            .project(["x", "z"])
            .build()
            .unwrap();
        let opened_at = std::time::Instant::now();
        let (raw, phases) = re_obs::capture_phases(|| {
            AcyclicEnumerator::new(&q, &db, SumRanking::value_sum()).unwrap()
        });
        let expected: Vec<Tuple> = AcyclicEnumerator::new(&q, &db, SumRanking::value_sum())
            .unwrap()
            .collect();
        let mut stream = InstrumentedStream::new(Box::new(raw), opened_at, phases);

        // Before the first answer: no TTFA, empty delay histogram.
        let t0 = stream.timing_breakdown().unwrap();
        assert_eq!(t0.answers, 0);
        assert!(t0.first_answer_nanos.is_none());
        assert!(t0.delay.is_empty());
        // The 2-hop open ran the full reducer, and the capture saw it.
        assert!(t0.phase_nanos("preprocess.reduce") > 0);

        let got: Vec<Tuple> = stream.by_ref().collect();
        assert_eq!(got, expected);

        let t1 = stream.timing_breakdown().unwrap();
        assert_eq!(t1.answers, expected.len() as u64);
        // A 1-in-64 sample: this short stream times its first answer only.
        assert_eq!(t1.delay.count(), 1);
        let ttfa = t1.first_answer_nanos.unwrap();
        // TTFA includes the open, so it can never undercut it.
        assert!(ttfa >= t1.open_nanos);
        // Exhausted `next()` calls after the last answer record nothing.
        assert!(stream.next().is_none());
        assert_eq!(
            stream.timing_breakdown().unwrap().delay.count(),
            t1.delay.count()
        );
    }

    #[test]
    fn tripped_cancel_token_stops_the_stream_with_a_latched_status() {
        let mut db = Database::new();
        db.add_relation(
            Relation::with_tuples(
                "E",
                attrs(["s", "t"]),
                vec![vec![1, 2], vec![2, 3], vec![2, 4]],
            )
            .unwrap(),
        )
        .unwrap();
        let q = QueryBuilder::new()
            .atom("E1", "E", ["x", "y"])
            .atom("E2", "E", ["y", "z"])
            .project(["x", "z"])
            .build()
            .unwrap();
        let raw = AcyclicEnumerator::new(&q, &db, SumRanking::value_sum()).unwrap();
        let token = re_exec::CancelToken::unbounded();
        let mut stream = InstrumentedStream::new(Box::new(raw), std::time::Instant::now(), vec![])
            .with_cancel_token(token.clone());
        assert_eq!(stream.cancel_status(), None);
        let first = stream.next();
        assert!(first.is_some(), "untripped token must not block answers");
        token.cancel();
        assert!(stream.next().is_none(), "tripped token stops the stream");
        assert_eq!(stream.cancel_status(), Some(CancelKind::Explicit));
        // The status is latched: further polls keep reporting it.
        assert!(stream.next().is_none());
        assert_eq!(stream.cancel_status(), Some(CancelKind::Explicit));
    }

    /// A 2-hop over the complete 16 × 16 digraph: 256 distinct `(x, z)`.
    fn dense_two_hop() -> Box<dyn RankedStream> {
        let edges: Vec<Tuple> = (0..16)
            .flat_map(|s| (0..16).map(move |t| vec![s, t]))
            .collect();
        let mut db = Database::new();
        db.add_relation(Relation::with_tuples("E", attrs(["s", "t"]), edges).unwrap())
            .unwrap();
        let q = QueryBuilder::new()
            .atom("E1", "E", ["x", "y"])
            .atom("E2", "E", ["y", "z"])
            .project(["x", "z"])
            .build()
            .unwrap();
        Box::new(AcyclicEnumerator::new(&q, &db, SumRanking::value_sum()).unwrap())
    }

    #[test]
    fn delay_is_a_one_in_64_sample_while_answers_and_ttfa_stay_exact() {
        let mut stream = InstrumentedStream::new(dense_two_hop(), Instant::now(), vec![]);
        let mut answers = 0u64;
        while stream.next().is_some() {
            answers += 1;
            let t = stream.timing_breakdown().unwrap();
            assert_eq!(t.answers, answers);
            assert_eq!(t.delay.count(), answers.div_ceil(DELAY_SAMPLE_EVERY));
            assert!(t.first_answer_nanos.is_some(), "answer 0 is always timed");
        }
        assert_eq!(answers, 256);
        assert_eq!(stream.timing_breakdown().unwrap().delay.count(), 4);
    }

    /// Pull answers `0..=64`, so the next one (index 65) is untimed.
    fn past_a_timed_answer(stream: &mut InstrumentedStream) {
        assert_eq!(stream.by_ref().take(65).count(), 65);
        assert_ne!(stream.gate.answers % DELAY_SAMPLE_EVERY, 0);
    }

    #[test]
    fn explicit_cancel_stops_the_stream_on_an_untimed_answer() {
        let token = CancelToken::unbounded();
        let mut stream = InstrumentedStream::new(dense_two_hop(), Instant::now(), vec![])
            .with_cancel_token(token.clone());
        past_a_timed_answer(&mut stream);
        token.cancel();
        assert!(stream.next().is_none());
        assert_eq!(stream.cancel_status(), Some(CancelKind::Explicit));
        assert_eq!(stream.timing_breakdown().unwrap().answers, 65);
    }

    #[test]
    fn passed_deadline_stops_the_stream_on_an_untimed_answer() {
        let mut stream = InstrumentedStream::new(dense_two_hop(), Instant::now(), vec![]);
        past_a_timed_answer(&mut stream);
        // Attached mid-stream with a deadline of "now": already passed.
        let mut stream = stream.with_cancel_token(CancelToken::with_deadline(Duration::ZERO));
        assert!(stream.next().is_none());
        assert_eq!(stream.cancel_status(), Some(CancelKind::Deadline));
        assert_eq!(stream.timing_breakdown().unwrap().answers, 65);
    }
}
