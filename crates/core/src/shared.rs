//! One Algorithm 1 enumerator, many cursors: the root chain as a shared,
//! append-only answer list.
//!
//! Algorithm 1 keeps a `next` chain on every cell "so that every parent
//! tuple reuses the same computation", and the root chains like every
//! other node, so the chain of root cells *is* the ranked, deduplicated
//! answer list, extended lazily. That list depends on the reduced database
//! and the ranking only — not on who reads it. A [`SharedFrontier`] puts
//! one enumerator behind a mutex; a [`ChainCursor`] is a handle on it plus
//! its own position in the chain. Every cursor advances with the
//! enumerator's one step ([`AcyclicEnumerator`]'s `advance`): past a cell
//! the chain already continues from, the step only reads the published
//! answer; at the end of the chain it extends it, and that extension is
//! the only work the shared [`EnumStats`] records. A second cursor
//! therefore costs its position and a lock per page, not a second build —
//! any-k's ranked-suffix reuse (anyK-rec, arXiv 1911.05582) applied across
//! clients instead of across parent tuples. The GHD enumerator shares the
//! same way: its residual acyclic enumerator is what goes behind the lock.
//! [`BranchPlan::open`](crate::BranchPlan::open) opens every Algorithm 1
//! plan this way — a single statement's, a UNION branch's — so a frontier
//! that no second cursor joins is simply private.
//!
//! A page longer than [`LOCK_CHUNK`] answers releases the lock between
//! chunks and lets a cursor that waits for it in first, so one huge page
//! holds up the other cursors of its frontier for a chunk at a time, not
//! for the whole page. Attaching takes no lock at all.
//!
//! Work is counted once. A cursor reports the answers it emitted and what
//! the extensions it ran added to the enumerator — cells, PQ operations,
//! frontier bytes and their peak — and the cursor that built the
//! enumerator reports the build too; summed over cursors, that is the
//! enumerator's own count. The heap the frontier holds as a whole is
//! [`SharedFrontier::frontier_bytes`].
//!
//! A panic while the chain is extended (a ranking key that panics, say)
//! leaves the enumerator half-updated and poisons the mutex. Every cursor
//! on that frontier then panics at its next lock rather than read it, so a
//! server's panic boundary answers each with its internal-error response,
//! never a wrong or short page; [`SharedFrontier::attach`] refuses a
//! poisoned frontier, so a new cursor is built afresh instead.

use crate::acyclic::AcyclicEnumerator;
use crate::cyclic::GhdReport;
use crate::frontier::CellId;
use crate::plan::Algorithm;
use crate::stats::{EnumStats, StatsSnapshot};
use crate::stream::{fill_page, AnswerGate, RankedStream};
use re_ranking::Ranking;
use re_storage::{Attr, Tuple};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// The most answers a page reads under one lock of its frontier: the
/// deep-scan page size, so an ordinary page still takes one lock.
pub const LOCK_CHUNK: usize = 1024;

/// Algorithm 1's root chain, whatever the ranking: what a
/// [`SharedFrontier`] locks.
trait RootChain: Send {
    /// The answer at `at` and the root cell after it (see
    /// [`AcyclicEnumerator`]'s `advance`).
    fn advance(&mut self, at: CellId) -> (Tuple, Option<CellId>);

    /// Up to `k` answers from `*at` on, through `gate`, moving `*at` past
    /// each one: the same step in the page loop every stream shares, one
    /// dynamic call per chunk.
    fn advance_page(
        &mut self,
        at: &mut Option<CellId>,
        k: usize,
        page: &mut Vec<Tuple>,
        gate: &mut AnswerGate,
    );

    /// The enumerator's statistics: its build, and every extension.
    fn stats(&self) -> &EnumStats;
}

impl<R: Ranking + Clone> RootChain for AcyclicEnumerator<R> {
    fn advance(&mut self, at: CellId) -> (Tuple, Option<CellId>) {
        AcyclicEnumerator::advance(self, at)
    }

    fn advance_page(
        &mut self,
        at: &mut Option<CellId>,
        k: usize,
        page: &mut Vec<Tuple>,
        gate: &mut AnswerGate,
    ) {
        fill_page(k, page, gate, || {
            let (answer, next) = AcyclicEnumerator::advance(self, (*at)?);
            *at = next;
            Some(answer)
        });
    }

    fn stats(&self) -> &EnumStats {
        AcyclicEnumerator::stats(self)
    }
}

/// Source of [`SharedFrontier::id`]s.
static NEXT_FRONTIER_ID: AtomicU64 = AtomicU64::new(1);

/// One Algorithm 1 enumerator that any number of [`ChainCursor`]s read:
/// see the [module docs](self). It lives as long as some cursor holds it.
pub struct SharedFrontier {
    id: u64,
    chain: Mutex<Box<dyn RootChain>>,
    /// The first root cell: where an attaching cursor starts.
    start: Option<CellId>,
    projection: Vec<Attr>,
    algorithm: Algorithm,
    ghd: Option<GhdReport>,
    /// Answers the chain holds, and the enumerator's heap bytes, as of the
    /// last lock released: read without taking it.
    published: AtomicU64,
    bytes: AtomicU64,
    /// Threads inside [`SharedFrontier::lock`] that do not hold the lock
    /// yet, and the number of times it was taken: what a long page reads
    /// between chunks to let a waiting cursor in (`let_waiters_in`).
    waiting: AtomicUsize,
    taken: AtomicU64,
}

impl SharedFrontier {
    /// Put `enumerator` behind a lock and return the first cursor on it,
    /// which is charged with the enumerator's build.
    pub(crate) fn share<R: Ranking + Clone + 'static>(
        enumerator: AcyclicEnumerator<R>,
        algorithm: Algorithm,
        ghd: Option<GhdReport>,
    ) -> ChainCursor {
        let start = enumerator.chain_start();
        let mut caused = enumerator.stats().snapshot();
        caused.answers = 0;
        let frontier = SharedFrontier {
            id: NEXT_FRONTIER_ID.fetch_add(1, Ordering::Relaxed),
            start,
            projection: enumerator.output_attrs().to_vec(),
            algorithm,
            ghd,
            published: AtomicU64::new(enumerator.stats().answers),
            bytes: AtomicU64::new(caused.frontier_bytes),
            waiting: AtomicUsize::new(0),
            taken: AtomicU64::new(0),
            chain: Mutex::new(Box::new(enumerator)),
        };
        ChainCursor {
            frontier: Arc::new(frontier),
            at: start,
            caused,
        }
    }

    /// A process-unique id: frontiers that hold the same id are the same
    /// frontier, which is how a session table counts one shared by many
    /// sessions once.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Whether a panic while the chain was extended left the enumerator
    /// unusable: no cursor on it yields another answer.
    pub fn is_poisoned(&self) -> bool {
        self.chain.is_poisoned()
    }

    /// The heap the shared enumerator holds, as of the last page any
    /// cursor read: what its cursors hold between them.
    pub fn frontier_bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// A new cursor at the start of the chain, and the number of answers
    /// the chain already holds — what it can replay without extending.
    /// Takes no lock, so an attach never waits for a page. `None` when the
    /// frontier is poisoned: build a fresh one instead.
    pub fn attach(self: &Arc<Self>) -> Option<(ChainCursor, u64)> {
        if self.is_poisoned() {
            return None;
        }
        let cursor = ChainCursor {
            frontier: Arc::clone(self),
            at: self.start,
            caused: StatsSnapshot::zero(),
        };
        Some((cursor, self.published.load(Ordering::Relaxed)))
    }

    /// Lock the enumerator, returning which taking of the lock this is. A
    /// poisoned lock means a panic interrupted an extension and the chain
    /// may be half-built: reading it could emit a wrong page, so the cursor
    /// panics instead (see the module docs).
    fn lock(&self) -> (MutexGuard<'_, Box<dyn RootChain>>, u64) {
        self.waiting.fetch_add(1, Ordering::SeqCst);
        let locked = self.chain.lock();
        self.waiting.fetch_sub(1, Ordering::SeqCst);
        let taken = self.taken.fetch_add(1, Ordering::SeqCst) + 1;
        let chain = locked.unwrap_or_else(|_| {
            panic!(
                "shared frontier {} was poisoned by a panic while it was extended",
                self.id
            )
        });
        (chain, taken)
    }

    /// Between two chunks of a page, after releasing the lock taken as
    /// `taken`: if another thread waits for the lock, let it take the lock
    /// before this one does again. The mutex does not hand itself over on
    /// release, so without this the releasing thread could take it back at
    /// once, chunk after chunk.
    fn let_waiters_in(&self, taken: u64) {
        while self.waiting.load(Ordering::SeqCst) > 0 && self.taken.load(Ordering::SeqCst) == taken
        {
            std::thread::yield_now();
        }
    }
}

/// A cursor on a [`SharedFrontier`]: the shared enumerator plus this
/// cursor's own position in its root chain. One lock per page of up to
/// [`LOCK_CHUNK`] answers ([`RankedStream::next_page`]); `Iterator::next`
/// locks per answer.
pub struct ChainCursor {
    frontier: Arc<SharedFrontier>,
    /// The root cell this cursor's next answer is read from; `None` once
    /// it has read the last.
    at: Option<CellId>,
    /// This cursor's own answers, and what the extensions it ran added to
    /// the enumerator's statistics (the build too, for the cursor that
    /// built it).
    caused: StatsSnapshot,
}

impl ChainCursor {
    /// The frontier this cursor reads.
    pub fn frontier(&self) -> &Arc<SharedFrontier> {
        &self.frontier
    }

    /// Charge this cursor with its `answers` and the enumerator work
    /// between `before` and now, and publish the chain's length and bytes.
    fn settle(&mut self, chain: &dyn RootChain, before: &StatsSnapshot, answers: u64) {
        let now = chain.stats().snapshot();
        let mut work = now.diff(before);
        work.answers = answers;
        self.caused.merge(&work);
        self.frontier
            .published
            .store(now.answers, Ordering::Relaxed);
        self.frontier
            .bytes
            .store(now.frontier_bytes, Ordering::Relaxed);
    }
}

/// One answer under one lock: how a UNION's merge pulls each Algorithm 1
/// branch, and how library callers such as `top_k` read. The lock is
/// uncontended there (no cursor attaches to a union's branch), and its
/// cost is negligible: a 2-hop ∪ 3-hop merge measured the same per-answer
/// delay and page latency as over the bare enumerators, within run-to-run
/// spread.
impl Iterator for ChainCursor {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        let at = self.at?;
        let frontier = Arc::clone(&self.frontier);
        let (mut chain, _) = frontier.lock();
        let before = chain.stats().snapshot();
        let (answer, next) = chain.advance(at);
        self.at = next;
        self.settle(&**chain, &before, 1);
        Some(answer)
    }
}

impl RankedStream for ChainCursor {
    fn output_attrs(&self) -> &[Attr] {
        &self.frontier.projection
    }

    fn algorithm(&self) -> Algorithm {
        self.frontier.algorithm
    }

    fn stats_snapshot(&self) -> StatsSnapshot {
        self.caused
    }

    fn plan_shape(&self) -> Option<String> {
        self.frontier.ghd.as_ref().map(GhdReport::annotated_shape)
    }

    fn ghd_report(&self) -> Option<GhdReport> {
        self.frontier.ghd.clone()
    }

    fn next_page(&mut self, k: usize, page: &mut Vec<Tuple>, gate: &mut AnswerGate) {
        let frontier = Arc::clone(&self.frontier);
        let mut left = k;
        while left > 0 {
            let chunk = left.min(LOCK_CHUNK);
            let filled = page.len();
            let (mut chain, taken) = frontier.lock();
            let before = chain.stats().snapshot();
            chain.advance_page(&mut self.at, chunk, page, gate);
            let read = page.len() - filled;
            self.settle(&**chain, &before, read as u64);
            drop(chain);
            if read < chunk {
                return; // the chain ended, or the gate shut
            }
            left -= chunk;
            if left > 0 {
                frontier.let_waiters_in(taken);
            }
        }
    }

    fn shared_frontier(&self) -> Option<&Arc<SharedFrontier>> {
        Some(&self.frontier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cyclic::CyclicEnumerator;
    use crate::stream::InstrumentedStream;
    use re_exec::{CancelKind, CancelToken};
    use re_query::{JoinProjectQuery, QueryBuilder};
    use re_ranking::SumRanking;
    use re_storage::attr::attrs;
    use re_storage::{Database, Relation, Value};
    use std::sync::atomic::AtomicBool;
    use std::sync::{OnceLock, Weak};
    use std::time::{Duration, Instant};

    /// `E(s, t)`: the complete digraph on `n` nodes minus its loops.
    fn graph(n: u64) -> Database {
        let edges: Vec<Tuple> = (0..n)
            .flat_map(|s| (0..n).filter(move |&t| t != s).map(move |t| vec![s, t]))
            .collect();
        let mut db = Database::new();
        db.add_relation(Relation::with_tuples("E", attrs(["s", "t"]), edges).unwrap())
            .unwrap();
        db
    }

    /// The 2-hop over `E`, projected on `projection`.
    fn two_hop_on(projection: &[&str]) -> JoinProjectQuery {
        QueryBuilder::new()
            .atom("E1", "E", ["x", "y"])
            .atom("E2", "E", ["y", "z"])
            .project(projection.iter().copied())
            .build()
            .unwrap()
    }

    fn two_hop() -> JoinProjectQuery {
        two_hop_on(&["x", "z"])
    }

    /// A page through a gate with no token.
    fn page(cursor: &mut ChainCursor, k: usize) -> Vec<Tuple> {
        let mut page = Vec::new();
        cursor.next_page(k, &mut page, &mut AnswerGate::new(Instant::now()));
        page
    }

    /// Spin until `cond` holds; panic after 20 s.
    fn wait_until(what: &str, cond: impl Fn() -> bool) {
        let give_up = Instant::now() + Duration::from_secs(20);
        while !cond() {
            assert!(Instant::now() < give_up, "timed out waiting until {what}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn cursors_at_any_interleaving_read_the_private_sequence_and_count_work_once() {
        let db = graph(9);
        let q = two_hop();
        let private = AcyclicEnumerator::new(&q, &db, SumRanking::value_sum()).unwrap();
        let expected: Vec<Tuple> = private.collect();
        let mut shared = AcyclicEnumerator::new(&q, &db, SumRanking::value_sum())
            .unwrap()
            .into_shared();
        let (mut late, published) = shared.frontier().attach().unwrap();
        assert_eq!(published, 0);
        let mut got = [Vec::new(), Vec::new()];
        // The late cursor trails, then overtakes the first one.
        for k in [5, 0, 3, 40, 1, 17, 100] {
            got[0].extend(page(&mut shared, k));
            got[1].extend(page(&mut late, k / 2 + 1));
        }
        got[1].extend(page(&mut late, expected.len()));
        got[0].extend(page(&mut shared, expected.len()));
        assert_eq!(got[0], expected);
        assert_eq!(got[1], expected);
        assert_eq!(shared.next(), None);
        assert_eq!(late.next(), None);

        // The two cursors' counters sum to the private enumerator's.
        let mut private = AcyclicEnumerator::new(&q, &db, SumRanking::value_sum()).unwrap();
        assert_eq!(private.by_ref().count(), expected.len());
        let mut sum = shared.stats_snapshot();
        sum.merge(&late.stats_snapshot());
        let want = private.stats().snapshot();
        assert_eq!(
            (sum.pq_pushes, sum.pq_pops, sum.cells_created),
            (want.pq_pushes, want.pq_pops, want.cells_created)
        );
        assert_eq!(
            (sum.frontier_bytes, sum.frontier_peak_bytes),
            (want.frontier_bytes, want.frontier_peak_bytes),
            "the bytes too: each cursor reports the growth it caused"
        );
        assert_eq!(shared.frontier().frontier_bytes(), want.frontier_bytes);
        assert_eq!(sum.answers, 2 * want.answers, "each cursor counts its own");
        // The shared log holds one entry per answer, not one per read.
        let (chain, _) = shared.frontier().lock();
        assert_eq!(chain.stats().ops_per_answer, private.stats().ops_per_answer);
    }

    #[test]
    fn a_ghd_plan_shares_its_residual_enumerator() {
        let db = graph(6);
        let triangle = QueryBuilder::new()
            .atom("E1", "E", ["x", "y"])
            .atom("E2", "E", ["y", "z"])
            .atom("E3", "E", ["z", "x"])
            .project(["x", "z"])
            .build()
            .unwrap();
        let private = CyclicEnumerator::new_auto(&triangle, &db, SumRanking::value_sum()).unwrap();
        let shape = private.plan_report().annotated_shape();
        let expected: Vec<Tuple> = private.collect();
        let mut first = CyclicEnumerator::new_auto(&triangle, &db, SumRanking::value_sum())
            .unwrap()
            .into_shared();
        assert_eq!(first.by_ref().take(4).count(), 4);
        let (second, published) = first.frontier().attach().unwrap();
        assert_eq!(published, 4);
        assert_eq!(second.algorithm(), Algorithm::CyclicGhd);
        assert_eq!(second.plan_shape(), Some(shape));
        assert_eq!(second.stats_snapshot().ghd_bags, 0, "the build is not its");
        assert!(first.stats_snapshot().ghd_bags > 0);
        assert_eq!(second.collect::<Vec<_>>(), expected);
    }

    /// `SUM`, with `hook` called on every key with the call's number,
    /// counted from 1.
    #[derive(Clone)]
    struct Hooked {
        calls: Arc<AtomicUsize>,
        hook: Arc<dyn Fn(usize) + Send + Sync>,
    }

    impl Hooked {
        fn new(hook: impl Fn(usize) + Send + Sync + 'static) -> Self {
            Hooked {
                calls: Arc::new(AtomicUsize::new(0)),
                hook: Arc::new(hook),
            }
        }

        fn calls(&self) -> usize {
            self.calls.load(Ordering::Relaxed)
        }
    }

    impl Ranking for Hooked {
        type Key = <SumRanking as Ranking>::Key;
        type Plan = <SumRanking as Ranking>::Plan;

        fn plan(&self, attrs: &[Attr]) -> Self::Plan {
            SumRanking::value_sum().plan(attrs)
        }

        fn key(&self, plan: &Self::Plan, values: &[Value]) -> Self::Key {
            (self.hook)(self.calls.fetch_add(1, Ordering::Relaxed) + 1);
            SumRanking::value_sum().key(plan, values)
        }
    }

    #[test]
    fn a_panic_while_extending_poisons_only_that_frontier() {
        let db = graph(8);
        let q = two_hop();
        let expected: Vec<Tuple> = AcyclicEnumerator::new(&q, &db, SumRanking::value_sum())
            .unwrap()
            .collect();
        // Count the build's key calls, then arm the panic 25 calls after
        // them: a few answers into the enumeration.
        let counting = Hooked::new(|_| {});
        drop(AcyclicEnumerator::new(&q, &db, counting.clone()).unwrap());
        let n = counting.calls() + 25;
        let ranking =
            Hooked::new(move |call| assert_ne!(call, n, "key call {call} panics by design"));
        let mut first = AcyclicEnumerator::new(&q, &db, ranking)
            .unwrap()
            .into_shared();
        let (mut second, _) = first.frontier().attach().unwrap();
        let (mut third, _) = first.frontier().attach().unwrap();
        assert_eq!(page(&mut second, 3), expected[..3]);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            page(&mut first, expected.len())
        }));
        assert!(panicked.is_err(), "the armed key panics mid-extension");
        let frontier = Arc::clone(first.frontier());
        assert!(frontier.is_poisoned());
        assert!(
            frontier.attach().is_none(),
            "a poisoned frontier takes no cursor"
        );
        for cursor in [&mut first, &mut second, &mut third] {
            let read = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| page(cursor, 1)));
            assert!(read.is_err(), "no cursor reads a poisoned chain");
        }
        // A frontier built afresh streams the oracle sequence.
        let mut fresh = AcyclicEnumerator::new(&q, &db, SumRanking::value_sum())
            .unwrap()
            .into_shared();
        assert_ne!(fresh.frontier().id(), frontier.id());
        let (mut other, _) = fresh.frontier().attach().unwrap();
        assert_eq!(page(&mut fresh, expected.len() + 1), expected);
        assert_eq!(page(&mut other, expected.len() + 1), expected);
    }

    #[test]
    fn a_long_page_lets_a_waiting_cursor_in_between_chunks() {
        let db = graph(25);
        let q = two_hop_on(&["x", "y", "z"]);
        let expected: Vec<Tuple> = AcyclicEnumerator::new(&q, &db, SumRanking::value_sum())
            .unwrap()
            .collect();
        assert!(expected.len() > 8 * LOCK_CHUNK, "a page of many chunks");
        // Key calls of the build, and of build and enumeration together.
        let counting = Hooked::new(|_| {});
        let mut dry = AcyclicEnumerator::new(&q, &db, counting.clone()).unwrap();
        let built = counting.calls();
        assert_eq!(dry.by_ref().count(), expected.len());
        let total = counting.calls();

        // The long page's first key call holds its first chunk until the
        // second cursor waits for the lock; a call nine tenths of the way
        // through holds a late chunk until that cursor has read its page.
        // Were the lock held for the whole page, the second wait could
        // never end.
        let slot: Arc<OnceLock<Weak<SharedFrontier>>> = Arc::default();
        let started = Arc::new(AtomicBool::new(false));
        let read = Arc::new(AtomicBool::new(false));
        let ranking = {
            let (slot, started, read) =
                (Arc::clone(&slot), Arc::clone(&started), Arc::clone(&read));
            Hooked::new(move |call| {
                if call == built + 1 {
                    started.store(true, Ordering::SeqCst);
                    let frontier = slot.get().and_then(Weak::upgrade).unwrap();
                    wait_until("the second cursor waits for the lock", || {
                        frontier.waiting.load(Ordering::SeqCst) > 0
                    });
                } else if call == built + (total - built) * 9 / 10 {
                    wait_until("the second cursor has read its page", || {
                        read.load(Ordering::SeqCst)
                    });
                }
            })
        };
        let mut first = AcyclicEnumerator::new(&q, &db, ranking)
            .unwrap()
            .into_shared();
        let frontier = Arc::clone(first.frontier());
        assert!(slot.set(Arc::downgrade(&frontier)).is_ok());
        let long = std::thread::spawn(move || page(&mut first, usize::MAX));
        wait_until("the long page extends the chain", || {
            started.load(Ordering::SeqCst)
        });
        // An OPEN mid-page: attaching takes no lock, so it does not wait.
        let (second, published) = frontier.attach().unwrap();
        assert_eq!(published, 0, "the first chunk is still being read");
        let deadline = CancelToken::with_deadline(Duration::from_secs(20));
        let mut second = InstrumentedStream::new(Box::new(second), Instant::now(), Vec::new())
            .with_cancel_token(deadline);
        let mut got = Vec::new();
        second.fill_page(10, &mut got);
        read.store(true, Ordering::SeqCst);
        assert_eq!(got, expected[..10]);
        assert_eq!(second.cancel_status(), None, "read inside its deadline");
        assert_eq!(long.join().unwrap(), expected);
    }

    #[test]
    fn a_cursor_at_the_end_of_its_chain_still_latches_a_cancel() {
        let db = graph(5);
        let q = two_hop();
        let open = |share: bool| -> Box<dyn RankedStream> {
            let e = AcyclicEnumerator::new(&q, &db, SumRanking::value_sum()).unwrap();
            if share {
                Box::new(e.into_shared())
            } else {
                Box::new(e)
            }
        };
        // A private and a shared cursor, each drained, then cancelled: the
        // next page of either reports the cancellation, not a short page.
        for share in [false, true] {
            let token = CancelToken::unbounded();
            let mut stream = InstrumentedStream::new(open(share), Instant::now(), Vec::new())
                .with_cancel_token(token.clone());
            let mut drained = Vec::new();
            stream.fill_page(usize::MAX, &mut drained);
            assert_eq!(stream.cancel_status(), None);
            token.cancel();
            let mut after = Vec::new();
            stream.fill_page(5, &mut after);
            assert!(after.is_empty());
            assert_eq!(
                stream.cancel_status(),
                Some(CancelKind::Explicit),
                "shared: {share}"
            );
        }
    }
}
