//! The physical plan of one join-project branch — which of the paper's
//! algorithms enumerates it, over which join tree — decided once by
//! [`BranchPlan::of`] and read by everything downstream (OPEN, UNION,
//! `EXPLAIN`, the plan cache), plus the one-call [`top_k`] helper.

use crate::acyclic::AcyclicEnumerator;
use crate::cyclic::CyclicEnumerator;
use crate::error::EnumError;
use crate::lexi::LexiEnumerator;
use crate::stream::RankedStream;
use re_exec::ExecContext;
use re_query::{JoinProjectQuery, JoinTree, QueryError};
use re_ranking::{Direction, Ranking};
use re_storage::{Attr, Database, Tuple};

/// The enumeration strategy driving a stream: what [`BranchPlan::algorithm`]
/// and [`RankedStream::algorithm`] report.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// The general acyclic algorithm (Algorithms 1–2, Theorem 1).
    Acyclic,
    /// GHD-based evaluation for cyclic queries (Theorem 3).
    CyclicGhd,
    /// The specialised backtracking algorithm for lexicographic orders
    /// (Algorithm 3, Lemma 4).
    Lexi,
    /// Ranked merge over UCQ branch streams (Theorem 4).
    UnionMerge,
}

impl Algorithm {
    /// Stable human-readable label (used in protocol responses and logs).
    pub fn label(self) -> &'static str {
        match self {
            Algorithm::Acyclic => "acyclic",
            Algorithm::CyclicGhd => "cyclic-ghd",
            Algorithm::Lexi => "lexi",
            Algorithm::UnionMerge => "union-merge",
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The physical decision for one join-project branch: the paper's case
/// table (acyclic → Theorem 1, acyclic + lexicographic → Lemma 4, cyclic →
/// Theorem 3) evaluated once, with the join tree the chosen algorithm runs
/// over. A plan depends on the query and the declared order only — no data
/// access — so it can be cached and opened any number of times.
#[derive(Clone, Debug)]
pub enum BranchPlan {
    /// Algorithms 1–2 over this join tree.
    Acyclic(JoinTree),
    /// Algorithm 3 over this join tree.
    Lexi(JoinTree),
    /// GHD-based evaluation. The decomposition is chosen at OPEN, by the
    /// sizes of the relations it is opened on
    /// ([`CyclicEnumerator::new_auto_ctx`]).
    Cyclic,
}

impl BranchPlan {
    /// Plan `query`. `lex_order` is the declared order of a lexicographic
    /// ranking (`None` for SUM-like rankings and for the branches of a
    /// union, whose merge compares general-algorithm keys).
    ///
    /// [`JoinTree::build`] failing with `NotAcyclic` *is* the acyclicity
    /// test. An acyclic query under a lexicographic order goes to the
    /// index-backed Algorithm 3 — a memoized hash probe and a cursor bump
    /// per answer instead of priority-queue work — when at most one
    /// projection attribute is missing from the declared order: both
    /// engines append missing attributes as the implicit order suffix, but
    /// they order two or more of them differently (lexi by projection
    /// order, the general algorithm by the root node's subtree layout), so
    /// the output sequences only agree when the suffix has at most one
    /// attribute.
    pub fn of(
        query: &JoinProjectQuery,
        lex_order: Option<&[(Attr, Direction)]>,
    ) -> Result<Self, QueryError> {
        let tree = match JoinTree::build(query) {
            Ok(tree) => tree,
            Err(QueryError::NotAcyclic) => return Ok(BranchPlan::Cyclic),
            Err(e) => return Err(e),
        };
        let lexi_serves = lex_order.is_some_and(|declared| {
            let undeclared = query
                .projection()
                .iter()
                .filter(|p| !declared.iter().any(|(a, _)| a == *p))
                .count();
            undeclared <= 1
        });
        Ok(if lexi_serves {
            BranchPlan::Lexi(tree)
        } else {
            BranchPlan::Acyclic(tree)
        })
    }

    /// The algorithm [`BranchPlan::open`] builds.
    pub fn algorithm(&self) -> Algorithm {
        match self {
            BranchPlan::Acyclic(_) => Algorithm::Acyclic,
            BranchPlan::Lexi(_) => Algorithm::Lexi,
            BranchPlan::Cyclic => Algorithm::CyclicGhd,
        }
    }

    /// The join tree the enumeration runs over (`None` for cyclic plans).
    pub fn join_tree(&self) -> Option<&JoinTree> {
        match self {
            BranchPlan::Acyclic(tree) | BranchPlan::Lexi(tree) => Some(tree),
            BranchPlan::Cyclic => None,
        }
    }

    /// Build the planned enumerator for `query` — the query this plan was
    /// made [of](BranchPlan::of) — over `db`, its preprocessing running
    /// under `ctx` (a pooled context parallelises the full reducer and the
    /// GHD bags without changing a single output byte). A `Lexi` plan
    /// opened with a ranking that is not lexicographic runs the general
    /// algorithm over the same tree.
    pub fn open<R: Ranking + Clone + 'static>(
        &self,
        query: &JoinProjectQuery,
        db: &Database,
        ranking: R,
        ctx: &ExecContext,
    ) -> Result<Box<dyn RankedStream>, EnumError> {
        Ok(match (self, ranking.as_lex()) {
            (BranchPlan::Lexi(tree), Some(lex)) => Box::new(LexiEnumerator::with_tree_ctx(
                query,
                db,
                lex,
                tree.clone(),
                ctx,
            )?),
            (BranchPlan::Acyclic(tree) | BranchPlan::Lexi(tree), _) => Box::new(
                AcyclicEnumerator::with_tree_ctx(query, db, ranking, tree.clone(), ctx)?,
            ),
            (BranchPlan::Cyclic, _) => {
                Box::new(CyclicEnumerator::new_auto_ctx(query, db, ranking, ctx)?)
            }
        })
    }
}

/// The `LIMIT k` entry point: the `k` highest-ranked distinct answers of a
/// join-project query, in rank order. The enumeration stops after `k`
/// answers — the whole point of the paper is that this costs far less than
/// materialising the full join.
pub fn top_k<R: Ranking + Clone + 'static>(
    query: &JoinProjectQuery,
    db: &Database,
    ranking: R,
    k: usize,
) -> Result<Vec<Tuple>, EnumError> {
    let stream = BranchPlan::of(query, None)?.open(query, db, ranking, &ExecContext::serial())?;
    Ok(stream.take(k).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use re_query::QueryBuilder;
    use re_ranking::{LexRanking, SumRanking, WeightAssignment};
    use re_storage::attr::attrs;
    use re_storage::Relation;

    fn db() -> Database {
        let mut db = Database::new();
        db.add_relation(
            Relation::with_tuples(
                "E",
                attrs(["s", "t"]),
                vec![vec![1, 2], vec![2, 3], vec![3, 1], vec![2, 4]],
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    fn two_hop(projection: &[&str]) -> JoinProjectQuery {
        QueryBuilder::new()
            .atom("E1", "E", ["x", "y"])
            .atom("E2", "E", ["y", "z"])
            .project(projection.iter().copied())
            .build()
            .unwrap()
    }

    fn triangle() -> JoinProjectQuery {
        QueryBuilder::new()
            .atom("E1", "E", ["x", "y"])
            .atom("E2", "E", ["y", "z"])
            .atom("E3", "E", ["z", "x"])
            .project(["x", "y"])
            .build()
            .unwrap()
    }

    fn asc(names: &[&str]) -> Vec<(Attr, Direction)> {
        names
            .iter()
            .map(|n| (Attr::new(n), Direction::Asc))
            .collect()
    }

    #[test]
    fn opens_the_acyclic_algorithm_for_acyclic_queries() {
        let q = two_hop(&["x", "z"]);
        let plan = BranchPlan::of(&q, None).unwrap();
        assert_eq!(plan.algorithm(), Algorithm::Acyclic);
        assert!(plan.join_tree().is_some());
        let e = plan
            .open(&q, &db(), SumRanking::value_sum(), &ExecContext::serial())
            .unwrap();
        assert_eq!(e.algorithm(), Algorithm::Acyclic);
        assert_eq!(e.plan_shape(), None);
        assert_eq!(e.count(), 4); // distinct (x, z) pairs
    }

    #[test]
    fn opens_a_ghd_for_cyclic_queries() {
        let q = triangle();
        let plan = BranchPlan::of(&q, None).unwrap();
        assert_eq!(plan.algorithm(), Algorithm::CyclicGhd);
        assert!(plan.join_tree().is_none());
        let e = plan
            .open(&q, &db(), SumRanking::value_sum(), &ExecContext::serial())
            .unwrap();
        assert_eq!(e.algorithm(), Algorithm::CyclicGhd);
        assert!(e.plan_shape().is_some());
        // Triangle rotations projected to (x, y), ranked by x + y.
        let results: Vec<Tuple> = e.collect();
        assert_eq!(results, vec![vec![1, 2], vec![3, 1], vec![2, 3]]);
    }

    #[test]
    fn lexicographic_orders_take_algorithm_3_when_it_serves_them() {
        let algorithm = |q: &JoinProjectQuery, order: &[&str]| {
            BranchPlan::of(q, Some(&asc(order))).unwrap().algorithm()
        };
        let acyclic = two_hop(&["x", "z"]);
        // Fully declared lex order → lexi.
        assert_eq!(algorithm(&acyclic, &["x", "z"]), Algorithm::Lexi);
        // One undeclared projection attribute: the suffix is unambiguous.
        assert_eq!(algorithm(&acyclic, &["x"]), Algorithm::Lexi);
        // SUM ranking keeps the general algorithm.
        assert_eq!(
            BranchPlan::of(&acyclic, None).unwrap().algorithm(),
            Algorithm::Acyclic
        );
        // Two undeclared attributes: the engines disagree on the implicit
        // suffix order, so stay on the general algorithm.
        assert_eq!(
            algorithm(&two_hop(&["x", "y", "z"]), &["x"]),
            Algorithm::Acyclic
        );
        // Cyclic queries never route to lexi.
        assert_eq!(algorithm(&triangle(), &["x", "y"]), Algorithm::CyclicGhd);
    }

    #[test]
    fn a_lexi_plan_opens_algorithm_3_only_under_a_lexicographic_ranking() {
        let q = two_hop(&["x", "z"]);
        let lex = LexRanking::new(["x", "z"], WeightAssignment::value_as_weight());
        let plan = BranchPlan::of(&q, Some(lex.order())).unwrap();
        let ctx = ExecContext::serial();
        let lexi = plan.open(&q, &db(), lex.clone(), &ctx).unwrap();
        assert_eq!(lexi.algorithm(), Algorithm::Lexi);
        let general = BranchPlan::of(&q, None)
            .unwrap()
            .open(&q, &db(), lex, &ctx)
            .unwrap();
        assert_eq!(general.algorithm(), Algorithm::Acyclic);
        assert_eq!(lexi.collect::<Vec<_>>(), general.collect::<Vec<_>>());
        let sum = plan.open(&q, &db(), SumRanking::value_sum(), &ctx).unwrap();
        assert_eq!(sum.algorithm(), Algorithm::Acyclic);
    }

    #[test]
    fn top_k_truncates() {
        let q = two_hop(&["x", "z"]);
        let top2 = top_k(&q, &db(), SumRanking::value_sum(), 2).unwrap();
        assert_eq!(top2.len(), 2);
        let all = top_k(&q, &db(), SumRanking::value_sum(), 100).unwrap();
        assert_eq!(&all[..2], &top2[..]);
    }
}
