//! Allocation tripwire for steady-state `next()` of the general algorithm
//! and of the union merge over it.
//!
//! The ban on hot-path allocations is enforced here, by counting what the
//! allocator sees (nothing ticks [`EnumStats::tuple_allocs`] any more; the
//! field survives for the wire format). Once a 2-hop `SUM` enumeration, or
//! a `UNION` of two, is warm, an answer may cost exactly one allocation —
//! the emitted tuple.
//! Successor keys are computed, interned, compared and dropped without a
//! heap block (an `ExactSum` of up to two components is inline, a
//! `SumRanking` plan resolves no attribute name), and cells, interned keys
//! and heap entries go into slabs that grow by doubling.
//!
//! The count is per thread, as in `re_obs`'s tripwire: libtest runs the
//! tests of a binary on parallel threads and allocates on its own.

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
}

fn count_one() {
    // `try_with`: a thread being torn down may allocate after its
    // thread-locals are gone; those allocations belong to no test.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// plain thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made by the calling thread so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Every structure that grows while enumerating does so by doubling: per
/// join-tree node the arena's three slabs, the interner's key, fingerprint
/// and slot arrays and the root queue, plus the per-answer operation log.
/// Over a window as long as the warm-up before it each can double at most
/// once or twice.
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
