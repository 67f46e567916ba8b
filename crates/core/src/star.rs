//! The star-query data structure with a preprocessing/delay tradeoff
//! (Algorithms 4 and 5, Theorem 2).
//!
//! For `Q*_m = π_{A_1..A_m}(R_1(A_1,B) ⋈ ... ⋈ R_m(A_m,B))` and a degree
//! threshold `δ ≥ 1`:
//!
//! * a value of `A_i` is **heavy** if it appears in at least `δ` tuples of
//!   `R_i`; a tuple is heavy if its `A_i` value is heavy;
//! * all-heavy answers (`O_H`) are fully materialised and sorted during
//!   preprocessing — there are at most `(|D|/δ)^m` of them;
//! * the remaining answers are partitioned by the *first* light position
//!   `i` into sub-queries `Q_i` (heavy on positions `< i`, light on `i`,
//!   unrestricted after), each handled by an [`AcyclicEnumerator`] rooted at
//!   `R_i`, whose per-answer duplication — and hence delay — is bounded by
//!   `δ`;
//! * enumeration is an `(m+1)`-way `RankedMerge` of the `Q_i` (sources
//!   `0..m`) and `O_H` (source `m`). The parts are disjoint, so the merge
//!   never finds a duplicate to drop.
//!
//! Choosing `δ = |D|^{1-ε}` yields the tradeoff of Theorem 2: delay
//! `O(|D|^{1-ε} log |D|)` with `O(|D|^{1+(m-1)ε})` preprocessing.

use crate::acyclic::AcyclicEnumerator;
use crate::error::EnumError;
use crate::merge::RankedMerge;
use crate::stats::{EnumStats, StatsSnapshot};
use re_exec::ExecContext;
use re_join::{full_reduce_ctx, hash_join, project_distinct, Reduction};
use re_query::{JoinProjectQuery, JoinTree, StarShape};
use re_ranking::Ranking;
use re_storage::{project_key, Attr, Database, HashIndex, Relation, Tuple, Value};
use std::cmp::Ordering;

/// Ranked enumerator for star queries with a tunable degree threshold.
pub struct StarEnumerator<R: Ranking + Clone> {
    projection: Vec<Attr>,
    threshold: usize,
    /// The all-heavy output.
    heavy: HeavyOutput,
    /// One acyclic enumerator per sub-query `Q_i`.
    subs: Vec<AcyclicEnumerator<R>>,
    /// The merge of the `Q_i` and `O_H`; its counters also hold the star's
    /// own reducer pass and heap bytes.
    merge: RankedMerge<R>,
}

impl<R: Ranking + Clone> StarEnumerator<R> {
    /// Build the enumerator with an explicit degree threshold `δ ≥ 1`.
    pub fn new(
        query: &JoinProjectQuery,
        db: &Database,
        ranking: R,
        threshold: usize,
    ) -> Result<Self, EnumError> {
        Self::new_ctx(query, db, ranking, threshold, &ExecContext::serial())
    }

    /// [`StarEnumerator::new`] with the full reducer and the sub-query
    /// enumerators' builds running under `ctx`. The all-heavy output (the
    /// `O_H` join + distinct of Algorithm 4) is materialised serially.
    /// Identical output at any thread count.
    pub fn new_ctx(
        query: &JoinProjectQuery,
        db: &Database,
        ranking: R,
        threshold: usize,
        ctx: &ExecContext,
    ) -> Result<Self, EnumError> {
        if threshold == 0 {
            return Err(EnumError::InvalidThreshold);
        }
        let shape = StarShape::detect(query)?;
        query.validate_against(db)?;
        let m = query.atoms().len();
        let projection: Vec<Attr> = query.projection().to_vec();

        // Dangling-free atom relations (node index == atom index because the
        // tree is not pruned).
        let tree = JoinTree::build(query)?;
        let (reduced, rstats) = full_reduce_ctx(ctx, query, &tree, db)?;
        let empty = reduced.iter().any(|r| r.is_empty());

        // Heavy/light split per atom, on the atom's leaf attribute(s).
        let mut heavy_rels: Vec<Relation> = Vec::with_capacity(m);
        let mut light_rels: Vec<Relation> = Vec::with_capacity(m);
        for (i, rel) in reduced.iter().enumerate() {
            let leaf = &shape.leaves[i];
            let idx = HashIndex::build(rel, leaf)?;
            let leaf_pos = rel.positions(leaf)?;
            let mut heavy = Relation::new(rel.name(), rel.attrs().to_vec());
            let mut light = Relation::new(rel.name(), rel.attrs().to_vec());
            let mut key = Vec::new();
            for t in rel.iter() {
                if idx.rows(project_key(t, &leaf_pos, &mut key)).len() >= threshold {
                    heavy.push_unchecked(t);
                } else {
                    light.push_unchecked(t);
                }
            }
            heavy_rels.push(heavy);
            light_rels.push(light);
        }

        // O_H: the all-heavy output, materialised and sorted by
        // `(key, tuple)`.
        let mut heavy = HeavyOutput {
            values: Vec::new(),
            arity: projection.len(),
            next: 0,
        };
        if !empty && heavy_rels.iter().all(|r| !r.is_empty()) {
            let mut acc = heavy_rels[0].clone();
            for rel in &heavy_rels[1..] {
                acc = hash_join(&acc, rel, "heavy_join")?;
            }
            let plan = ranking.plan(&projection);
            let mut keyed: Vec<(R::Key, Tuple)> = project_distinct(&acc, &projection)?
                .iter()
                .map(|t| (ranking.key(&plan, t), t.to_vec()))
                .collect();
            keyed.sort_unstable();
            heavy.values = Vec::with_capacity(keyed.len() * projection.len());
            for (_, t) in keyed {
                heavy.values.extend_from_slice(&t);
            }
        }

        // Sub-queries Q_i: heavy before i, light at i, unrestricted after.
        // Every part is a bound relation already, so each Q_i goes straight
        // to the reducer and Algorithm 1 over T_i, the join tree rooted at
        // R_i (node index == atom index: the tree is not pruned yet).
        let mut subs: Vec<AcyclicEnumerator<R>> = Vec::with_capacity(m);
        if !empty {
            for i in 0..m {
                let tree = JoinTree::build_rooted(query, i)?;
                let relations = (0..m)
                    .map(|j| match j.cmp(&i) {
                        Ordering::Less => heavy_rels[j].clone(),
                        Ordering::Equal => light_rels[j].clone(),
                        Ordering::Greater => reduced[j].clone(),
                    })
                    .collect();
                let reduction = Reduction::of_relations(ctx, tree, relations)?;
                subs.push(AcyclicEnumerator::from_reduction(
                    projection.clone(),
                    ranking.clone(),
                    reduction,
                )?);
            }
        }

        let mut merge = RankedMerge::new(ranking, &projection);
        for (i, sub) in subs.iter_mut().enumerate() {
            merge.seed(i, sub.next());
        }
        merge.seed(m, heavy.next());
        merge
            .stats_mut()
            .record_reduce(rstats.passes, rstats.input_rows, rstats.output_rows);
        // Each sub-enumerator counts its own frontier; the star adds `O_H`
        // and their slots.
        let subs_bytes = subs.capacity() * std::mem::size_of::<AcyclicEnumerator<R>>();
        merge.hold(heavy.values.capacity() * std::mem::size_of::<Value>() + subs_bytes);
        Ok(StarEnumerator {
            projection,
            threshold,
            heavy,
            subs,
            merge,
        })
    }

    /// Build the enumerator from the tradeoff parameter `ε ∈ [0, 1]` of
    /// Theorem 2 by setting `δ = ⌈|D|^{1-ε}⌉`. `ε = 0` recovers Theorem 1
    /// (no extra preprocessing); `ε = 1` fully materialises the sorted
    /// output.
    pub fn with_epsilon(
        query: &JoinProjectQuery,
        db: &Database,
        ranking: R,
        epsilon: f64,
    ) -> Result<Self, EnumError> {
        let n = db.size().max(1) as f64;
        let delta = n.powf(1.0 - epsilon.clamp(0.0, 1.0)).ceil() as usize;
        Self::new(query, db, ranking, delta.max(1))
    }

    /// The degree threshold δ in use.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Number of all-heavy answers materialised during preprocessing — the
    /// space side of the tradeoff.
    pub fn heavy_output_size(&self) -> usize {
        self.heavy.values.len() / self.heavy.arity.max(1)
    }

    /// The projection attributes, in output order.
    pub fn output_attrs(&self) -> &[Attr] {
        &self.projection
    }

    /// Merge-level statistics (per-branch statistics live in the branches).
    pub fn stats(&self) -> &EnumStats {
        self.merge.stats()
    }

    /// Combined counters: the merge's own operations, the star's reducer
    /// pass and the materialised heavy output's bytes, plus every counter
    /// of every sub-enumerator (its own reducer pass included) except its
    /// `answers` — the tradeoff's memory side, end to end.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        self.merge
            .stats()
            .snapshot()
            .with_parts(self.subs.iter().map(|sub| sub.stats().snapshot()))
    }
}

impl<R: Ranking + Clone> Iterator for StarEnumerator<R> {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        let (subs, heavy) = (&mut self.subs, &mut self.heavy);
        self.merge.next(|i| match subs.get_mut(i) {
            Some(sub) => sub.next(),
            None => heavy.next(),
        })
    }
}

/// `O_H`, sorted by `(key, tuple)` and row-major — answer `i` is
/// `values[i * arity..][..arity]` — held whole until the enumerator drops.
struct HeavyOutput {
    values: Vec<Value>,
    arity: usize,
    /// The next answer to merge.
    next: usize,
}

impl Iterator for HeavyOutput {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        let start = self.next * self.arity;
        let answer = self.values.get(start..start + self.arity)?;
        self.next += 1;
        Some(answer.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use re_query::QueryBuilder;
    use re_ranking::SumRanking;
    use re_storage::attr::attrs;

    /// A small bipartite instance: papers 10 and 11, authors 1..4.
    fn db() -> Database {
        let mut db = Database::new();
        db.add_relation(
            Relation::with_tuples(
                "AP",
                attrs(["aid", "pid"]),
                vec![
                    vec![1, 10],
                    vec![2, 10],
                    vec![3, 10],
                    vec![1, 11],
                    vec![4, 11],
                ],
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    fn two_star() -> JoinProjectQuery {
        QueryBuilder::new()
            .atom("AP1", "AP", ["a1", "p"])
            .atom("AP2", "AP", ["a2", "p"])
            .project(["a1", "a2"])
            .build()
            .unwrap()
    }

    fn expected_two_star() -> Vec<Tuple> {
        // co-author pairs through papers 10 ({1,2,3}) and 11 ({1,4}),
        // ranked by a1+a2, ties by tuple order.
        vec![
            vec![1, 1],
            vec![1, 2],
            vec![2, 1],
            vec![1, 3],
            vec![2, 2],
            vec![3, 1],
            vec![1, 4],
            vec![2, 3],
            vec![3, 2],
            vec![4, 1],
            vec![3, 3],
            vec![4, 4],
        ]
    }

    #[test]
    fn star_enumerator_matches_acyclic_enumerator_for_all_thresholds() {
        let db = db();
        let q = two_star();
        let reference: Vec<Tuple> = AcyclicEnumerator::new(&q, &db, SumRanking::value_sum())
            .unwrap()
            .collect();
        assert_eq!(reference, expected_two_star());
        for threshold in [1usize, 2, 3, 10] {
            let got: Vec<Tuple> = StarEnumerator::new(&q, &db, SumRanking::value_sum(), threshold)
                .unwrap()
                .collect();
            assert_eq!(got, reference, "threshold {threshold} changed the output");
        }
    }

    #[test]
    fn threshold_one_materialises_everything() {
        // With δ = 1 every value is heavy, so the entire output is
        // materialised during preprocessing and the sub-queries are empty.
        let db = db();
        let q = two_star();
        let e = StarEnumerator::new(&q, &db, SumRanking::value_sum(), 1).unwrap();
        assert_eq!(e.heavy_output_size(), expected_two_star().len());
    }

    #[test]
    fn huge_threshold_materialises_nothing() {
        let db = db();
        let q = two_star();
        let e = StarEnumerator::new(&q, &db, SumRanking::value_sum(), 1000).unwrap();
        assert_eq!(e.heavy_output_size(), 0);
        assert_eq!(e.collect::<Vec<_>>(), expected_two_star());
    }

    #[test]
    fn epsilon_extremes() {
        let db = db();
        let q = two_star();
        let eager = StarEnumerator::with_epsilon(&q, &db, SumRanking::value_sum(), 1.0).unwrap();
        assert!(eager.heavy_output_size() > 0);
        let lazy = StarEnumerator::with_epsilon(&q, &db, SumRanking::value_sum(), 0.0).unwrap();
        assert_eq!(lazy.threshold(), db.size());
        assert_eq!(eager.collect::<Vec<_>>(), lazy.collect::<Vec<_>>());
    }

    #[test]
    fn three_armed_star() {
        let db = db();
        let q = QueryBuilder::new()
            .atom("AP1", "AP", ["a1", "p"])
            .atom("AP2", "AP", ["a2", "p"])
            .atom("AP3", "AP", ["a3", "p"])
            .project(["a1", "a2", "a3"])
            .build()
            .unwrap();
        let reference: Vec<Tuple> = AcyclicEnumerator::new(&q, &db, SumRanking::value_sum())
            .unwrap()
            .collect();
        for threshold in [1usize, 2, 4] {
            let got: Vec<Tuple> = StarEnumerator::new(&q, &db, SumRanking::value_sum(), threshold)
                .unwrap()
                .collect();
            assert_eq!(got, reference);
        }
    }

    #[test]
    fn zero_threshold_rejected_and_non_star_rejected() {
        let db = db();
        assert!(matches!(
            StarEnumerator::new(&two_star(), &db, SumRanking::value_sum(), 0),
            Err(EnumError::InvalidThreshold)
        ));
        // A 3-path projecting its endpoints is not a star query (the three
        // atoms share no common attribute).
        let path = QueryBuilder::new()
            .atom("R1", "AP", ["a", "b"])
            .atom("R2", "AP", ["b", "c"])
            .atom("R3", "AP", ["c", "d"])
            .project(["a", "d"])
            .build()
            .unwrap();
        assert!(StarEnumerator::new(&path, &db, SumRanking::value_sum(), 2).is_err());
    }

    #[test]
    fn empty_star_result() {
        let mut d = Database::new();
        d.add_relation(Relation::with_tuples("A", attrs(["a", "b"]), vec![vec![1, 10]]).unwrap())
            .unwrap();
        d.add_relation(Relation::with_tuples("B", attrs(["c", "b"]), vec![vec![2, 99]]).unwrap())
            .unwrap();
        let q = QueryBuilder::new()
            .atom("A", "A", ["a1", "p"])
            .atom("B", "B", ["a2", "p"])
            .project(["a1", "a2"])
            .build()
            .unwrap();
        let mut e = StarEnumerator::new(&q, &d, SumRanking::value_sum(), 2).unwrap();
        assert_eq!(e.next(), None);
    }
}
