//! Shared helpers for the integration tests.

// Each integration-test binary compiles its own copy of this module, and not
// every suite uses every helper.
#![allow(dead_code)]

use rankedenum::join::{bind_atoms_of, full_join, hash_join, project_distinct};
use rankedenum::prelude::*;
use rankedenum::query::Bag;

/// A context over a fresh pool of `threads` workers that forces the
/// parallel paths on tiny inputs. Always a *real* pool —
/// `ExecContext::with_threads(1)` would degrade to a serial context, and
/// the single-worker pooled path (pool scheduling, helping caller,
/// index-ordered merge) is exactly what a size-1 leg exists to pin against
/// the serial engine.
pub fn ctx_at(threads: usize) -> ExecContext {
    ExecContext::pooled(WorkerPool::new(threads))
        .with_min_par_rows(1)
        .with_morsel_rows(7)
}

/// The contexts the differential suites build under: serial, a one-worker
/// pool and a four-worker pool.
pub fn contexts() -> [ExecContext; 3] {
    [ExecContext::serial(), ctx_at(1), ctx_at(4)]
}

/// Assert that a build under `ctx` ran tasks on its pool exactly if it has
/// one — the pooled legs of a suite must not quietly take serial paths.
pub fn assert_ran_on_its_pool(ctx: &ExecContext, what: &str) {
    assert_eq!(
        ctx.pool_stats().tasks_executed > 0,
        ctx.is_parallel(),
        "{what}: a pooled build must run on its pool"
    );
}

/// Reference ("brute force") evaluation: materialise the full join with
/// binary hash joins, project with de-duplication, sort by `(key, tuple)`.
pub fn reference_answers<R: Ranking>(
    query: &JoinProjectQuery,
    db: &Database,
    ranking: &R,
) -> Vec<Tuple> {
    let joined = full_join(query, db).expect("reference join");
    let distinct = project_distinct(&joined, query.projection()).expect("reference projection");
    let plan = ranking.plan(query.projection());
    let mut rows: Vec<(R::Key, Tuple)> = distinct
        .iter()
        .map(|t| (ranking.key(&plan, t), t.to_vec()))
        .collect();
    rows.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    rows.into_iter().map(|(_, t)| t).collect()
}

/// Reference evaluation of one GHD bag, by its definition: hash-join the
/// bag's atoms in the order the bag lists them, project with
/// de-duplication onto `bag.attrs`, sort the rows — named `bag.name`, as
/// the engine's canonical bag relation is.
pub fn reference_bag(query: &JoinProjectQuery, db: &Database, bag: &Bag) -> Relation {
    let joined = bind_atoms_of(query, db, bag.atoms.iter().copied())
        .expect("reference bind")
        .into_iter()
        .reduce(|acc, next| hash_join(&acc, &next, "join").expect("reference join"))
        .expect("a bag joins at least one atom");
    let mut out = project_distinct(&joined, &bag.attrs).expect("reference projection");
    let all: Vec<usize> = (0..out.arity()).collect();
    out.sort_by_positions(&all);
    out.set_name(bag.name.clone());
    out
}

/// Reference evaluation of a union: every branch's [`reference_answers`],
/// an answer several branches produce kept once, sorted by `(key, tuple)`.
pub fn reference_union_answers<R: Ranking>(
    union: &UnionQuery,
    db: &Database,
    ranking: &R,
) -> Vec<Tuple> {
    let plan = ranking.plan(union.projection());
    let mut rows: Vec<(R::Key, Tuple)> = union
        .branches()
        .iter()
        .flat_map(|branch| reference_answers(branch, db, ranking))
        .map(|t| (ranking.key(&plan, &t), t))
        .collect();
    rows.sort();
    rows.dedup();
    rows.into_iter().map(|(_, t)| t).collect()
}

/// Assert that `answers` is a valid ranked enumeration of the same answer
/// set as `reference`: identical as a set, free of duplicates, and sorted by
/// non-decreasing rank key (ties may be ordered differently than the
/// reference).
pub fn assert_valid_ranked_output<R: Ranking>(
    answers: &[Tuple],
    reference: &[Tuple],
    query: &JoinProjectQuery,
    ranking: &R,
) {
    use std::collections::HashSet;
    let got: HashSet<Tuple> = answers.iter().cloned().collect();
    let want: HashSet<Tuple> = reference.iter().cloned().collect();
    assert_eq!(got.len(), answers.len(), "enumeration emitted duplicates");
    assert_eq!(got, want, "answer sets differ");
    let plan = ranking.plan(query.projection());
    let keys: Vec<R::Key> = answers.iter().map(|t| ranking.key(&plan, t)).collect();
    assert!(
        keys.windows(2).all(|w| w[0] <= w[1]),
        "answers are not in non-decreasing rank order"
    );
}
