//! The physical plan of one join-project branch — which of the paper's
//! algorithms enumerates it, over which join tree — decided once by
//! [`BranchPlan::of`] and read by everything downstream (OPEN, UNION,
//! `EXPLAIN`, the plan cache), plus the one-call [`top_k`] helper.
//! Both engines emit the one order [`re_ranking::LexRanking`] defines, so
//! every acyclic branch under a lexicographic ranking takes Algorithm 3.
//! There is one way to open a plan: every Algorithm 1 enumerator — a
//! single statement's, a UNION branch's, [`top_k`]'s — is read through a
//! [`ChainCursor`](crate::ChainCursor) on a
//! [`SharedFrontier`](crate::SharedFrontier), and Algorithm 3 is the one
//! engine that owns its state.

use crate::acyclic::AcyclicEnumerator;
use crate::cyclic::{CyclicEnumerator, CyclicVerdict};
use crate::error::EnumError;
use crate::lexi::LexiEnumerator;
use crate::stream::RankedStream;
use re_exec::ExecContext;
use re_query::{JoinProjectQuery, JoinTree, QueryError};
use re_ranking::Ranking;
use re_storage::{Database, Tuple};

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
/// over. [`BranchPlan::of`] reads the query and the declared order only —
/// no data — so a plan can be cached and opened any number of times. The
/// one decision that reads data, a cyclic branch's GHD, is made by the
/// plan's first successful [`open`](BranchPlan::open) and recorded in the
/// plan ([`CyclicVerdict`]) for every later one: open a cached plan on the
/// database it was planned for.
#[derive(Clone, Debug)]
pub enum BranchPlan {
    /// Algorithms 1–2 over this join tree.
    Acyclic(JoinTree),
    /// Algorithm 3 over this join tree.
    Lexi(JoinTree),
    /// GHD-based evaluation, its plan decided by the first OPEN that
    /// succeeds: cost-based selection picks a decomposition by the AGM
    /// bounds of its bags over the relations it is opened on, and one of
    /// two or more bags is built in a race against the single bag, the plan
    /// that finishes its bag walk first serving
    /// ([`CyclicEnumerator::new_auto_ctx`]). The verdict records the plan
    /// that served, and every later OPEN builds that plan alone.
    Cyclic(CyclicVerdict),
}

impl BranchPlan {
    /// Plan `query`, to be ranked lexicographically or not.
    ///
    /// [`JoinTree::build`] failing with `NotAcyclic` *is* the acyclicity
    /// test. An acyclic query under a lexicographic order goes to the
    /// index-backed Algorithm 3 — a memoized hash probe and a cursor bump
    /// per answer instead of priority-queue work.
    pub fn of(query: &JoinProjectQuery, lexicographic: bool) -> Result<Self, QueryError> {
        let tree = match JoinTree::build(query) {
            Ok(tree) => tree,
            Err(QueryError::NotAcyclic) => return Ok(BranchPlan::Cyclic(CyclicVerdict::default())),
            Err(e) => return Err(e),
        };
        Ok(if lexicographic {
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
            BranchPlan::Cyclic(_) => Algorithm::CyclicGhd,
        }
    }

    /// The join tree the enumeration runs over (`None` for cyclic plans).
    pub fn join_tree(&self) -> Option<&JoinTree> {
        match self {
            BranchPlan::Acyclic(tree) | BranchPlan::Lexi(tree) => Some(tree),
            BranchPlan::Cyclic(_) => None,
        }
    }

    /// Build the planned enumerator for `query` — the query this plan was
    /// made [of](BranchPlan::of) — over `db`, its preprocessing running
    /// under `ctx` (a pooled context parallelises the full reducer and the
    /// GHD bags without changing a single output byte). A `Lexi` plan
    /// opened with a ranking that is not lexicographic runs the general
    /// algorithm over the same tree.
    ///
    /// An Algorithm 1 plan — acyclic, or cyclic over its GHD — comes back
    /// as the first [`ChainCursor`](crate::ChainCursor) on a new
    /// [`SharedFrontier`](crate::SharedFrontier), which later cursors of
    /// the same statement may join; a frontier nobody joins is private in
    /// effect. Algorithm 3 owns its state: lexi walks sorted indexes with
    /// cursors of its own and has no root chain to share. (The star
    /// enumerator is not on this path at all: no plan chooses it.)
    ///
    /// A cyclic plan's first successful open selects a GHD and races it
    /// against the single bag, walking at most twice the better plan's
    /// intersections plus one step, and records the plan that served;
    /// every later open builds the recorded plan alone, walking exactly
    /// its intersections ([`CyclicVerdict`]). A caller that plans afresh
    /// per call, as [`top_k`] does, races every time.
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
                AcyclicEnumerator::with_tree_ctx(query, db, ranking, tree.clone(), ctx)?
                    .into_shared(),
            ),
            (BranchPlan::Cyclic(verdict), _) => Box::new(
                CyclicEnumerator::with_verdict_ctx(query, db, ranking, verdict, ctx)?.into_shared(),
            ),
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
    let plan = BranchPlan::of(query, ranking.as_lex().is_some())?;
    let stream = plan.open(query, db, ranking, &ExecContext::serial())?;
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

    #[test]
    fn opens_the_acyclic_algorithm_for_acyclic_queries() {
        let q = two_hop(&["x", "z"]);
        let plan = BranchPlan::of(&q, false).unwrap();
        assert_eq!(plan.algorithm(), Algorithm::Acyclic);
        assert!(plan.join_tree().is_some());
        let e = plan
            .open(&q, &db(), SumRanking::value_sum(), &ExecContext::serial())
            .unwrap();
        assert_eq!(e.algorithm(), Algorithm::Acyclic);
        assert_eq!(e.plan_shape(), None);
        assert!(
            e.shared_frontier().is_some(),
            "Algorithm 1 is a chain cursor"
        );
        assert_eq!(e.count(), 4); // distinct (x, z) pairs
    }

    #[test]
    fn opens_a_ghd_for_cyclic_queries() {
        let q = triangle();
        let plan = BranchPlan::of(&q, false).unwrap();
        assert_eq!(plan.algorithm(), Algorithm::CyclicGhd);
        assert!(plan.join_tree().is_none());
        let e = plan
            .open(&q, &db(), SumRanking::value_sum(), &ExecContext::serial())
            .unwrap();
        assert_eq!(e.algorithm(), Algorithm::CyclicGhd);
        assert!(e.plan_shape().is_some());
        assert!(
            e.shared_frontier().is_some(),
            "the GHD's residual is shared"
        );
        // Triangle rotations projected to (x, y), ranked by x + y.
        let results: Vec<Tuple> = e.collect();
        assert_eq!(results, vec![vec![1, 2], vec![3, 1], vec![2, 3]]);
    }

    #[test]
    fn lexicographic_orders_take_algorithm_3_on_acyclic_queries() {
        let algorithm = |q: &JoinProjectQuery, lexicographic: bool| {
            BranchPlan::of(q, lexicographic).unwrap().algorithm()
        };
        assert_eq!(algorithm(&two_hop(&["x", "z"]), true), Algorithm::Lexi);
        assert_eq!(algorithm(&two_hop(&["x", "y", "z"]), true), Algorithm::Lexi);
        assert_eq!(algorithm(&two_hop(&["x", "z"]), false), Algorithm::Acyclic);
        // Cyclic queries never route to lexi.
        assert_eq!(algorithm(&triangle(), true), Algorithm::CyclicGhd);
    }

    #[test]
    fn a_lexi_plan_opens_algorithm_3_only_under_a_lexicographic_ranking() {
        let q = two_hop(&["x", "z"]);
        let lex = LexRanking::new(["x", "z"], WeightAssignment::value_as_weight());
        let plan = BranchPlan::of(&q, true).unwrap();
        let ctx = ExecContext::serial();
        let lexi = plan.open(&q, &db(), lex.clone(), &ctx).unwrap();
        assert_eq!(lexi.algorithm(), Algorithm::Lexi);
        assert!(lexi.shared_frontier().is_none(), "lexi owns its state");
        let general = BranchPlan::of(&q, false)
            .unwrap()
            .open(&q, &db(), lex, &ctx)
            .unwrap();
        assert_eq!(general.algorithm(), Algorithm::Acyclic);
        assert!(general.shared_frontier().is_some());
        assert_eq!(lexi.collect::<Vec<_>>(), general.collect::<Vec<_>>());
        let sum = plan.open(&q, &db(), SumRanking::value_sum(), &ctx).unwrap();
        assert_eq!(sum.algorithm(), Algorithm::Acyclic);
        assert!(sum.shared_frontier().is_some());
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
