//! Allocation tripwire for steady-state `next()` of the general algorithm
//! and of the union merge over it, and the allocator's check of every
//! engine's `frontier_bytes`.
//!
//! The ban on hot-path allocations is enforced here, by counting what the
//! allocator sees (nothing ticks [`EnumStats::tuple_allocs`] any more; the
//! field survives for the wire format). Once a 2-hop `SUM` enumeration, or
//! a `UNION` of two, is warm, an answer may cost exactly one allocation —
//! the emitted tuple.
//! Successor keys are computed, interned, compared and dropped without a
//! heap block (an `ExactSum` of up to two components is inline, a
//! `SumRanking` plan resolves no attribute name), cells go into arena
//! segments allocated once at their final size, and interned keys and
//! heap entries into slabs that grow by doubling.
//!
//! The same allocator keeps each thread's live bytes, the oracle for the
//! byte count the session budget evicts by: every engine's reported
//! `frontier_bytes` must match what the allocator holds for it, from the
//! build through a deep enumeration.
//!
//! The counts are per thread, as in `re_obs`'s tripwire: libtest runs the
//! tests of a binary on parallel threads and allocates on its own. So every
//! build below runs on a serial context, on the test's own thread.

use rankedenum::prelude::*;
use rankedenum::workloads::membership::WeightScheme;
use rankedenum::workloads::DblpWorkload;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator never allocates or registers anything.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    // Bytes allocated less bytes freed by this thread; it may go negative
    // when the thread frees what another one allocated.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Count an allocation (or reallocation) that changes this thread's live
/// bytes by `delta`.
fn count(delta: i64) {
    // `try_with`: a thread being torn down may allocate after its
    // thread-locals are gone; those allocations belong to no test.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    track(delta);
}

fn track(delta: i64) {
    let _ = LIVE.try_with(|c| c.set(c.get() + delta));
}

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// plain thread-local `Cell`s that never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made by the calling thread so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Bytes the calling thread holds live on the heap.
fn live() -> i64 {
    LIVE.with(Cell::get)
}

/// What grows while enumerating: per join-tree node the arena, by whole
/// segments of `SEGMENT_CELLS` (4 096) cells — two allocations each, the
/// outputs and the metadata-and-pointer words, never a copy — and its
/// segment table, the interner's key, fingerprint and slot arrays and the
/// root queue, which double; plus the per-answer operation log, which
/// doubles too. Over a window as long as the warm-up before it each
/// doubling structure can double at most once or twice, and the 2-hop's
/// 9 539 (value weights) or 10 423 (random weights) new cells per window
/// open a handful of segments.
const SLAB_GROWTH_BUDGET: u64 = 2 * (2 * 7 + 1);

fn assert_steady_state_allocates_only_answers(mut e: impl Iterator<Item = Tuple>, what: &str) {
    const WINDOW: usize = 10_000;
    assert_eq!(e.by_ref().take(WINDOW).count(), WINDOW, "{what}: warm-up");
    let before = allocs();
    let mut answers = 0u64;
    for _ in 0..WINDOW {
        let row = e
            .next()
            .expect("the instance has more answers than two windows");
        answers += 1;
        drop(std::hint::black_box(row));
    }
    let extra = allocs() - before - answers;
    assert!(
        extra <= SLAB_GROWTH_BUDGET,
        "{what}: {extra} allocations beyond the {answers} emitted answers"
    );
}

#[test]
fn steady_state_next_of_the_two_hop_sum_allocates_only_the_answers() {
    // Integer weights: one-component keys, as in the benchmark's scans.
    let dblp = DblpWorkload::generate(4_000, 42, WeightScheme::Random);
    let spec = dblp.two_hop();
    let (query, db) = (&spec.query, dblp.db());
    let e = AcyclicEnumerator::new(query, db, SumRanking::value_sum()).unwrap();
    assert_steady_state_allocates_only_answers(e, "value sum");
    // Random real weights from a table: two-component keys.
    let e = AcyclicEnumerator::new(query, db, spec.sum_ranking()).unwrap();
    assert_steady_state_allocates_only_answers(e, "random weights");
}

#[test]
fn steady_state_next_of_a_union_allocates_only_the_answers() {
    // The 2-hop over two relations whose values never meet: no answer is
    // in both branches, so every branch answer is emitted, and the merge
    // moves it out of its queue instead of keeping a copy.
    let dblp = DblpWorkload::generate(4_000, 42, WeightScheme::Random);
    let near = dblp.two_hop().query;
    let base = dblp.db().relation(&near.atoms()[0].relation).unwrap();
    let mut far = Relation::new("Far", base.attrs().to_vec());
    for t in base.iter() {
        let shifted: Vec<Value> = t.iter().map(|v| v + (1 << 40)).collect();
        far.push_unchecked(&shifted);
    }
    let mut db = Database::new();
    db.set_relation(base.clone());
    db.set_relation(far);
    let far = QueryBuilder::new()
        .atom("F1", "Far", ["a1", "p"])
        .atom("F2", "Far", ["a2", "p"])
        .project(["a1", "a2"])
        .build()
        .unwrap();
    let union = UnionQuery::new(vec![near, far]).unwrap();
    let e = UnionEnumerator::new(&union, &db, SumRanking::value_sum()).unwrap();
    assert_steady_state_allocates_only_answers(e, "union");
}

/// The engine's reported `frontier_bytes` is within 10 % of the heap the
/// allocator saw it keep — the live bytes since just before the build —
/// once built and after 1, 1 000 and 100 000 answers (or all of them, if
/// there are fewer). The answers themselves are dropped as they come, so
/// what stays live is the enumerator's.
fn assert_reports_its_live_bytes<E: Iterator<Item = Tuple>>(
    what: &str,
    build: impl FnOnce() -> E,
    reported: impl Fn(&E) -> u64,
) {
    let before = live();
    let mut e = build();
    let mut answers = 0u64;
    for checkpoint in [0, 1, 1_000, 100_000] {
        let mut exhausted = false;
        while answers < checkpoint {
            let Some(row) = e.next() else {
                exhausted = true;
                break;
            };
            drop(std::hint::black_box(row));
            answers += 1;
        }
        let held = (live() - before) as f64;
        let got = reported(&e) as f64;
        assert!(
            (got - held).abs() <= 0.10 * held,
            "{what} after {answers} answers: reports {got} bytes, the allocator holds {held} \
             (ratio {:.3})",
            held / got
        );
        if exhausted {
            break;
        }
    }
}

/// Run every engine once on a small instance: what a first build sets up
/// for the whole process — the metric registry's entries — is nobody's
/// session, and must not land in a measured window.
fn warm_up() {
    let dblp = DblpWorkload::generate(200, 7, WeightScheme::Random);
    let (db, ctx) = (dblp.db(), ExecContext::serial());
    let two_hop = dblp.two_hop();
    let (ranking, lex) = (two_hop.sum_ranking(), two_hop.lex_ranking());
    let union = UnionQuery::new(vec![two_hop.query.clone(), three_hop_as_pairs(&dblp)]).unwrap();
    let (cycle, plan) = dblp.cycle(2);
    let streams: [Box<dyn Iterator<Item = Tuple>>; 5] = [
        Box::new(AcyclicEnumerator::new_ctx(&two_hop.query, db, ranking.clone(), &ctx).unwrap()),
        Box::new(LexiEnumerator::new_ctx(&two_hop.query, db, &lex, &ctx).unwrap()),
        Box::new(UnionEnumerator::new_ctx(&union, db, ranking.clone(), &ctx).unwrap()),
        Box::new(StarEnumerator::new_ctx(&dblp.three_star().query, db, ranking, 4, &ctx).unwrap()),
        Box::new(
            CyclicEnumerator::new_ctx(&cycle.query, db, cycle.sum_ranking(), &plan, &ctx).unwrap(),
        ),
    ];
    for stream in streams {
        assert!(stream.take(10).count() > 0);
    }
}

/// The 3-hop from an author to a co-author's paper, under the 2-hop's
/// projection names so that the two can form a union.
fn three_hop_as_pairs(dblp: &DblpWorkload) -> JoinProjectQuery {
    QueryBuilder::new()
        .atom("N1", dblp.relation(), ["a1", "p1"])
        .atom("N2", dblp.relation(), ["b", "p1"])
        .atom("N3", dblp.relation(), ["b", "a2"])
        .project(["a1", "a2"])
        .build()
        .unwrap()
}

/// DBLP at 4 000 membership edges, with fractional weights: most sums
/// expand, so the interner is exercised.
fn dblp() -> DblpWorkload {
    DblpWorkload::generate(4_000, 42, WeightScheme::Random)
}

#[test]
fn acyclic_reports_the_bytes_the_allocator_holds_for_it() {
    warm_up();
    let dblp = dblp();
    let db = dblp.db();
    for spec in [dblp.two_hop(), dblp.three_hop(), dblp.four_hop()] {
        let ranking = spec.sum_ranking();
        assert_reports_its_live_bytes(
            &format!("acyclic {}", spec.name),
            || {
                AcyclicEnumerator::new_ctx(&spec.query, db, ranking, &ExecContext::serial())
                    .unwrap()
            },
            |e| e.stats().frontier_bytes,
        );
    }

    // A point statement: the 2-hop from the most prolific author, whose
    // first atom the SQL layer binds to that author's rows alone.
    let members = db.relation(dblp.relation()).unwrap();
    let mut papers = std::collections::HashMap::<Value, usize>::new();
    for t in members.iter() {
        *papers.entry(t[0]).or_default() += 1;
    }
    let (&author, _) = papers.iter().max_by_key(|&(&a, &n)| (n, a)).unwrap();
    let mut first = Relation::new("First", members.attrs().to_vec());
    for t in members.iter().filter(|t| t[0] == author) {
        first.push_unchecked(t);
    }
    let mut point_db = db.clone();
    point_db.set_relation(first);
    let point = QueryBuilder::new()
        .atom("M1", "First", ["a1", "p"])
        .atom("M2", dblp.relation(), ["a2", "p"])
        .project(["a1", "a2"])
        .build()
        .unwrap();
    let ranking = dblp.two_hop().sum_ranking();
    assert_reports_its_live_bytes(
        "acyclic point 2-hop",
        || AcyclicEnumerator::new_ctx(&point, &point_db, ranking, &ExecContext::serial()).unwrap(),
        |e| e.stats().frontier_bytes,
    );
}

#[test]
fn lexi_and_union_report_the_bytes_the_allocator_holds_for_them() {
    warm_up();
    let dblp = dblp();
    let (db, two_hop) = (dblp.db(), dblp.two_hop());
    let lex = two_hop.lex_ranking();
    assert_reports_its_live_bytes(
        "lexi 2-hop",
        || LexiEnumerator::new_ctx(&two_hop.query, db, &lex, &ExecContext::serial()).unwrap(),
        |e| e.stats().frontier_bytes,
    );
    let union = UnionQuery::new(vec![two_hop.query.clone(), three_hop_as_pairs(&dblp)]).unwrap();
    let ranking = two_hop.sum_ranking();
    assert_reports_its_live_bytes(
        "union 2-hop ∪ 3-hop",
        || UnionEnumerator::new_ctx(&union, db, ranking, &ExecContext::serial()).unwrap(),
        |e| e.stats_snapshot().frontier_bytes,
    );
}

#[test]
fn star_reports_the_bytes_the_allocator_holds_for_it() {
    warm_up();
    let dblp = dblp();
    let star = dblp.three_star();
    let ranking = star.sum_ranking();
    assert_reports_its_live_bytes(
        "star 3-star, δ = 4",
        || {
            StarEnumerator::new_ctx(&star.query, dblp.db(), ranking, 4, &ExecContext::serial())
                .unwrap()
        },
        |e| e.stats_snapshot().frontier_bytes,
    );
}

#[test]
fn cyclic_reports_the_bytes_the_allocator_holds_for_it() {
    warm_up();
    // Smaller: the 6-cycle's bags grow with the square of the instance.
    let dblp = DblpWorkload::generate(700, 42, WeightScheme::Random);
    for k in [2, 3] {
        let (spec, plan) = dblp.cycle(k);
        let ranking = spec.sum_ranking();
        assert_reports_its_live_bytes(
            &format!("cyclic {}", spec.name),
            || {
                let ctx = ExecContext::serial();
                CyclicEnumerator::new_ctx(&spec.query, dblp.db(), ranking, &plan, &ctx).unwrap()
            },
            |e| e.stats().frontier_bytes,
        );
    }
}
