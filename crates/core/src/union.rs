//! Ranked enumeration for unions of join-project queries (Theorem 4).
//!
//! Each branch of the UCQ is enumerated by its own ranked enumerator
//! (acyclic or GHD-based); the branch streams are merged by rank, and
//! duplicates — which, across branches, are always adjacent because every
//! stream is sorted by `(key, tuple)` — are suppressed with a last-answer
//! check.

use crate::error::EnumError;
use crate::merge::MergeEntry;
use crate::plan::BranchPlan;
use crate::stats::{EnumStats, StatsSnapshot};
use crate::stream::RankedStream;
use re_exec::ExecContext;
use re_query::UnionQuery;
use re_ranking::Ranking;
use re_storage::{Attr, Database, Tuple};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Ranked enumerator for UCQs.
pub struct UnionEnumerator<R: Ranking + Clone> {
    ranking: R,
    projection: Vec<Attr>,
    /// The ranking's plan over `projection`, built once: keying a merged
    /// answer resolves no attribute.
    plan: R::Plan,
    /// One live enumerator per branch; their counters contribute to
    /// [`UnionEnumerator::stats_snapshot`].
    branches: Vec<Box<dyn RankedStream>>,
    pq: BinaryHeap<Reverse<MergeEntry<R::Key>>>,
    last: Option<Tuple>,
    stats: EnumStats,
}

impl<R: Ranking + Clone + 'static> UnionEnumerator<R> {
    /// Build the enumerator for a UCQ: each acyclic branch gets an
    /// [`AcyclicEnumerator`](crate::AcyclicEnumerator), each cyclic branch
    /// a [`CyclicEnumerator`](crate::CyclicEnumerator) with an
    /// automatically chosen GHD plan.
    pub fn new(union: &UnionQuery, db: &Database, ranking: R) -> Result<Self, EnumError> {
        Self::new_ctx(union, db, ranking, &ExecContext::serial())
    }

    /// [`UnionEnumerator::new`] with every branch's preprocessing running
    /// under `ctx` (see [`BranchPlan::open`]).
    pub fn new_ctx(
        union: &UnionQuery,
        db: &Database,
        ranking: R,
        ctx: &ExecContext,
    ) -> Result<Self, EnumError> {
        let plans = union
            .branches()
            .iter()
            .map(|q| BranchPlan::of(q, None))
            .collect::<Result<Vec<_>, _>>()?;
        Self::with_plans_ctx(union, &plans, db, ranking, ctx)
    }

    /// [`UnionEnumerator::new_ctx`] over branch plans made ahead of time:
    /// `plans[i]` is [`BranchPlan::of`]`(branch i, None)` — the merge
    /// compares general-algorithm keys, so no branch takes the
    /// lexicographic fast path.
    pub fn with_plans_ctx(
        union: &UnionQuery,
        plans: &[BranchPlan],
        db: &Database,
        ranking: R,
        ctx: &ExecContext,
    ) -> Result<Self, EnumError> {
        assert_eq!(plans.len(), union.len(), "one plan per branch");
        let mut branches = union
            .branches()
            .iter()
            .zip(plans)
            .map(|(q, plan)| plan.open(q, db, ranking.clone(), ctx))
            .collect::<Result<Vec<_>, _>>()?;
        let projection = union.projection().to_vec();
        let plan = ranking.plan(&projection);
        let mut pq = BinaryHeap::new();
        for (i, b) in branches.iter_mut().enumerate() {
            if let Some(tuple) = b.next() {
                let key = ranking.key(&plan, &tuple);
                pq.push(Reverse(MergeEntry {
                    key,
                    tuple,
                    source: i,
                }));
            }
        }
        Ok(UnionEnumerator {
            ranking,
            projection,
            plan,
            branches,
            pq,
            last: None,
            stats: EnumStats::new(),
        })
    }

    /// The projection attributes, in output order.
    pub fn output_attrs(&self) -> &[Attr] {
        &self.projection
    }

    /// Merge statistics (the union's own priority-queue work; branch
    /// counters are *not* folded in here — see
    /// [`UnionEnumerator::stats_snapshot`]).
    pub fn stats(&self) -> &EnumStats {
        &self.stats
    }

    /// Combined counters: the merge's own operations plus every counter
    /// of every branch enumerator (reducer passes and rows, GHD plans,
    /// preprocessing cells, per-branch priority queues, frontier bytes —
    /// the union's footprint is the disjoint sum of its branch frontiers).
    /// Branch `answers` are excluded — a branch answer is not a union
    /// answer until it survives deduplication, so `answers` counts only
    /// what the union emitted.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        self.stats
            .snapshot()
            .with_parts(self.branches.iter().map(|b| b.stats_snapshot()))
    }

    /// The GHD plan shapes of the cyclic branches (`branch 2:
    /// cycle-figure2`, `; `-separated, each with its fallback annotation),
    /// `None` when every branch is acyclic — so a decomposition inside a
    /// union is as visible as one behind a single statement.
    pub fn plan_shape(&self) -> Option<String> {
        let shapes: Vec<String> = self
            .branches
            .iter()
            .enumerate()
            .filter_map(|(i, b)| Some(format!("branch {}: {}", i + 1, b.plan_shape()?)))
            .collect();
        (!shapes.is_empty()).then(|| shapes.join("; "))
    }
}

impl<R: Ranking + Clone + 'static> Iterator for UnionEnumerator<R> {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        loop {
            let Reverse(entry) = self.pq.pop()?;
            self.stats.record_pop();
            if let Some(tuple) = self.branches[entry.source].next() {
                let key = self.ranking.key(&self.plan, &tuple);
                self.pq.push(Reverse(MergeEntry {
                    key,
                    tuple,
                    source: entry.source,
                }));
                self.stats.record_push();
            }
            if self.last.as_ref() == Some(&entry.tuple) {
                continue; // duplicate produced by another branch
            }
            self.last = Some(entry.tuple.clone());
            self.stats.record_answer();
            return Some(entry.tuple);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acyclic::AcyclicEnumerator;
    use re_query::QueryBuilder;
    use re_ranking::{Ranking, SumRanking};
    use re_storage::attr::attrs;
    use re_storage::Relation;

    fn db() -> Database {
        let mut db = Database::new();
        db.add_relation(
            Relation::with_tuples(
                "Knows",
                attrs(["src", "dst"]),
                vec![vec![1, 2], vec![2, 3], vec![1, 3]],
            )
            .unwrap(),
        )
        .unwrap();
        db.add_relation(
            Relation::with_tuples("Likes", attrs(["src", "dst"]), vec![vec![1, 2], vec![3, 4]])
                .unwrap(),
        )
        .unwrap();
        db
    }

    fn union_query() -> UnionQuery {
        let knows = QueryBuilder::new()
            .atom("K", "Knows", ["x", "y"])
            .project(["x", "y"])
            .build()
            .unwrap();
        let likes = QueryBuilder::new()
            .atom("L", "Likes", ["x", "y"])
            .project(["x", "y"])
            .build()
            .unwrap();
        UnionQuery::new(vec![knows, likes]).unwrap()
    }

    #[test]
    fn union_merges_and_deduplicates() {
        let e = UnionEnumerator::new(&union_query(), &db(), SumRanking::value_sum()).unwrap();
        let results: Vec<Tuple> = e.collect();
        // (1,2) appears in both branches but must be emitted once.
        assert_eq!(
            results,
            vec![vec![1, 2], vec![1, 3], vec![2, 3], vec![3, 4]]
        );
    }

    #[test]
    fn union_output_is_sorted_by_rank() {
        let e = UnionEnumerator::new(&union_query(), &db(), SumRanking::value_sum()).unwrap();
        let ranking = SumRanking::value_sum();
        let mut last = None;
        for t in e {
            let k = ranking.key_of(&attrs(["x", "y"]), &t);
            if let Some(prev) = last {
                assert!(k >= prev);
            }
            last = Some(k);
        }
    }

    #[test]
    fn union_with_two_hop_branches() {
        // Q = 2-hop over Knows ∪ 2-hop over Likes, ranked by endpoint sum.
        let mut db = Database::new();
        db.add_relation(
            Relation::with_tuples(
                "Knows",
                attrs(["p", "g"]),
                vec![vec![1, 100], vec![2, 100], vec![3, 101]],
            )
            .unwrap(),
        )
        .unwrap();
        db.add_relation(
            Relation::with_tuples("Likes", attrs(["p", "g"]), vec![vec![3, 200], vec![4, 200]])
                .unwrap(),
        )
        .unwrap();
        let branch = |rel: &str| {
            QueryBuilder::new()
                .atom("A1", rel, ["x", "g"])
                .atom("A2", rel, ["y", "g"])
                .project(["x", "y"])
                .build()
                .unwrap()
        };
        let u = UnionQuery::new(vec![branch("Knows"), branch("Likes")]).unwrap();
        let results: Vec<Tuple> = UnionEnumerator::new(&u, &db, SumRanking::value_sum())
            .unwrap()
            .collect();
        assert_eq!(
            results,
            vec![
                vec![1, 1],
                vec![1, 2],
                vec![2, 1],
                vec![2, 2],
                vec![3, 3],
                vec![3, 4],
                vec![4, 3],
                vec![4, 4],
            ]
        );
    }

    #[test]
    fn snapshot_includes_branch_preprocessing_work() {
        let e = UnionEnumerator::new(&union_query(), &db(), SumRanking::value_sum()).unwrap();
        let snapshot = e.stats_snapshot();
        assert!(
            snapshot.cells_created > 0,
            "branch preprocessing must be visible before the first answer"
        );
        let drained: Vec<Tuple> = e.collect();
        assert_eq!(drained.len(), 4);
    }

    #[test]
    fn snapshot_folds_every_branch_counter_but_answers() {
        // The 2-hop ∪ 3-hop shape of the benchmark's `union23`.
        let mut db = Database::new();
        let rows: Vec<Tuple> = (0..40u64).map(|i| vec![i % 9, i % 5 + 100]).collect();
        db.add_relation(Relation::with_tuples("M", attrs(["aid", "pid"]), rows).unwrap())
            .unwrap();
        let two = QueryBuilder::new()
            .atom("M1", "M", ["x", "p1"])
            .atom("M2", "M", ["y", "p1"])
            .project(["x", "y"])
            .build()
            .unwrap();
        let three = QueryBuilder::new()
            .atom("N1", "M", ["x", "p1"])
            .atom("N2", "M", ["a2", "p1"])
            .atom("N3", "M", ["a2", "y"])
            .project(["x", "y"])
            .build()
            .unwrap();
        let sum = SumRanking::value_sum;
        let branches = [
            AcyclicEnumerator::new(&two, &db, sum()).unwrap(),
            AcyclicEnumerator::new(&three, &db, sum()).unwrap(),
        ];
        let union = UnionQuery::new(vec![two, three]).unwrap();
        let mut e = UnionEnumerator::new(&union, &db, sum()).unwrap();
        let built = e.stats_snapshot();
        let reduced: u64 = branches.iter().map(|b| b.stats().reduce_input_rows).sum();
        assert!(reduced > 0);
        assert_eq!(built.reduce_input_rows, reduced, "both reducers' rows");
        // Seeding the merge pulled one answer from each branch.
        let expected = StatsSnapshot::zero().with_parts(branches.into_iter().map(|mut b| {
            b.next();
            b.stats().snapshot()
        }));
        assert_eq!(built, expected);
        assert_eq!(built.answers, 0, "a branch answer is not a union answer");
        assert_eq!(e.by_ref().take(5).count(), 5);
        assert_eq!(e.stats_snapshot().answers, 5);
    }
}
