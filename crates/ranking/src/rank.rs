//! The [`Ranking`] trait and the concrete ranking functions.
//!
//! A ranking function maps an output tuple (a list of values over a known
//! attribute list) to a totally ordered *key*. The enumeration algorithms
//! compute keys for *partial* outputs — the projection attributes of a
//! join-tree subtree — so the key must be meaningful for any attribute
//! subset, and it must be **strictly monotone** in each sub-tuple: the one
//! ordering contract, stated on [`Ranking`].
//!
//! Every ranking shipped here keeps it: SUM by exact addition, LEX by the
//! value in each level, and MIN and MAX by keying on every weight, sorted
//! (the bare minimum or maximum is only weakly monotone). `extended` adds
//! weighted sums and PRODUCT under the same contract.

use crate::assignment::{AttrWeights, WeightAssignment};
use crate::key::RankKey;
use crate::weight::{ExactSum, Weight};
use re_storage::{Attr, Value};
use std::fmt::Debug;

/// A ranking function with a totally ordered key.
///
/// `Ranking`, its keys and its plans are required to be [`Send`]: the
/// enumerators own their inputs (relations are copied out of the database
/// during the full-reducer pass), so a `Send` ranking is all it takes for a
/// live enumerator to migrate between threads — which is what lets a query
/// server keep enumerators alive as resumable cursors served by a worker
/// pool. Every ranking in this crate satisfies the bound (weight tables are
/// shared behind `Arc`).
///
/// # The ordering contract
///
/// The key must be **strictly monotone** in each sub-tuple, like exact
/// addition. Split an attribute list into two parts and fix the values of
/// one: if the other part's key strictly rises, the whole key strictly
/// rises, and equal part keys give equal whole keys. Every enumerator then
/// emits exactly the `(key, tuple)` sequence — by key, equal keys by
/// output tuple — and every projected answer once: a successor never
/// sorts before the cell it was made from, so equal outputs pop next to
/// each other, which is all the duplicate checks compare. A key that is
/// only weakly monotone (the bare minimum of the weights: a part gets
/// worse, the minimum stays put) breaks both; refine it into a strict key
/// that still sorts first by the weak one, as [`MinRanking`] does.
pub trait Ranking: Send {
    /// The key type; answers are enumerated in non-decreasing key order.
    /// The [`RankKey`] bound (a representation fingerprint plus a heap-byte
    /// estimate on top of `Ord + Clone + Send`) is what lets the frontier
    /// kernel intern keys and account their memory.
    type Key: RankKey;
    /// A per-attribute-list plan, precomputed once per join-tree node so
    /// that key computation during enumeration is a constant-time loop.
    type Plan: Clone + Debug + Send;

    /// Precompute a key plan for tuples over `attrs` (in that order).
    fn plan(&self, attrs: &[Attr]) -> Self::Plan;

    /// Compute the key of a tuple `values` laid out according to `plan`.
    fn key(&self, plan: &Self::Plan, values: &[Value]) -> Self::Key;

    /// Convenience: plan + key in one call (used on final outputs and in
    /// tests; enumerators use cached plans).
    fn key_of(&self, attrs: &[Attr], values: &[Value]) -> Self::Key {
        self.key(&self.plan(attrs), values)
    }

    /// This ranking as a lexicographic order, when it is one. Code generic
    /// over the ranking uses it to hand the concrete [`LexRanking`] to the
    /// specialised lexicographic enumerator (Algorithm 3), which reads the
    /// declared order and the weights instead of comparing keys.
    fn as_lex(&self) -> Option<&LexRanking> {
        None
    }
}

/// `SUM` ranking: the key of a tuple is the sum of its attribute-value
/// weights (Example 1 / Example 3 of the paper).
#[derive(Clone, Debug)]
pub struct SumRanking {
    weights: WeightAssignment,
}

impl SumRanking {
    /// Rank by the sum of weights under the given assignment.
    pub fn new(weights: WeightAssignment) -> Self {
        SumRanking { weights }
    }

    /// Rank by the sum of the raw attribute values.
    pub fn value_sum() -> Self {
        SumRanking::new(WeightAssignment::value_as_weight())
    }

    /// Access the underlying weight assignment.
    pub fn weights(&self) -> &WeightAssignment {
        &self.weights
    }
}

impl Ranking for SumRanking {
    /// Keys are [`ExactSum`]s rather than plain floats: exact summation is
    /// what makes the key of a tuple independent of the order its weights
    /// are added in, which the enumerators' duplicate elimination relies on
    /// (see [`ExactSum`] for the invariants).
    type Key = ExactSum;
    /// The weights of each position, resolved once per plan: computing a
    /// key never hashes an attribute name.
    type Plan = Vec<AttrWeights>;

    fn plan(&self, attrs: &[Attr]) -> Self::Plan {
        self.weights.resolvers(attrs)
    }

    fn key(&self, plan: &Self::Plan, values: &[Value]) -> Self::Key {
        debug_assert_eq!(plan.len(), values.len());
        ExactSum::of(plan.iter().zip(values).map(|(w, &v)| w.weight_of(v)))
    }
}

/// Sort direction of one attribute in a lexicographic order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Smallest weight first.
    Asc,
    /// Largest weight first.
    Desc,
}

/// `LEXICOGRAPHIC` ranking (`ORDER BY A1 ASC, A2 DESC, ...`): the one
/// definition of the order both the general engine and the lexicographic
/// enumerator (Algorithm 3) emit. Over a projection, answers are ordered
///
/// 1. by the declared attributes that are projected, in priority order
///    (an attribute declared twice counts once, with its first direction),
///    each compared by its level key ([`LexLevel::key`]): the weight,
///    negated under [`Direction::Desc`], then the value ascending;
/// 2. then by the remaining projection attributes, by value ascending, in
///    projection order.
///
/// The key ([`Ranking::Key`]) holds the declared levels only. The second
/// part is the `(key, tuple)` tie-break every enumerator and oracle already
/// applies, with the tuple in projection order. The value in each level key
/// makes the order strict: two answers with equal keys agree on every
/// declared attribute, so ties in weight cannot reorder them per engine.
#[derive(Clone, Debug)]
pub struct LexRanking {
    order: Vec<(Attr, Direction)>,
    weights: WeightAssignment,
}

impl LexRanking {
    /// Ascending lexicographic order over `order` with the given weights.
    pub fn new(
        order: impl IntoIterator<Item = impl Into<Attr>>,
        weights: WeightAssignment,
    ) -> Self {
        LexRanking::with_directions(order.into_iter().map(|a| (a, Direction::Asc)), weights)
    }

    /// Lexicographic order with explicit per-attribute directions.
    pub fn with_directions(
        order: impl IntoIterator<Item = (impl Into<Attr>, Direction)>,
        weights: WeightAssignment,
    ) -> Self {
        LexRanking {
            order: order.into_iter().map(|(a, d)| (a.into(), d)).collect(),
            weights,
        }
    }

    /// The declared attribute priority order with directions.
    pub fn order(&self) -> &[(Attr, Direction)] {
        &self.order
    }

    /// The underlying weight assignment.
    pub fn weights(&self) -> &WeightAssignment {
        &self.weights
    }

    /// The declared attributes among `attrs`, in priority order: each one's
    /// position in `attrs` and its level, resolved once.
    fn declared(&self, attrs: &[Attr]) -> Vec<(usize, LexLevel)> {
        let mut out: Vec<(usize, LexLevel)> = Vec::new();
        for (a, dir) in &self.order {
            let Some(i) = attrs.iter().position(|x| x == a) else {
                continue;
            };
            if !out.iter().any(|(j, _)| *j == i) {
                let weights = self.weights.resolver(a);
                out.push((i, LexLevel { weights, dir: *dir }));
            }
        }
        out
    }

    /// The levels of the order over `projection`, in enumeration order:
    /// the declared ones with their [`LexLevel`], then the undeclared ones
    /// with `None` — ranked by value alone (see the type docs).
    pub fn levels(&self, projection: &[Attr]) -> Vec<(Attr, Option<LexLevel>)> {
        let declared = self.declared(projection).into_iter();
        let mut levels: Vec<_> = declared
            .map(|(i, level)| (projection[i].clone(), Some(level)))
            .collect();
        for a in projection {
            if !levels.iter().any(|(x, _)| x == a) {
                levels.push((a.clone(), None));
            }
        }
        levels
    }
}

/// One declared attribute of a [`LexRanking`], resolved: its weights and
/// its direction.
#[derive(Clone, Debug)]
pub struct LexLevel {
    weights: AttrWeights,
    dir: Direction,
}

impl LexLevel {
    /// The level's sort key of `value`, the one place LEX compares a value:
    /// the direction-adjusted weight, ties broken by the value ascending.
    #[inline]
    pub fn key(&self, value: Value) -> (Weight, Value) {
        let w = self.weights.weight_of(value);
        match self.dir {
            Direction::Asc => (w, value),
            Direction::Desc => (-w, value),
        }
    }
}

/// Key plan for [`LexRanking`]: for each declared level present (in
/// priority order), which input position to read and the level itself.
#[derive(Clone, Debug)]
pub struct LexPlan {
    slots: Vec<(usize, LexLevel)>,
}

impl Ranking for LexRanking {
    type Key = Vec<(Weight, Value)>;
    type Plan = LexPlan;

    fn as_lex(&self) -> Option<&LexRanking> {
        Some(self)
    }

    fn plan(&self, attrs: &[Attr]) -> Self::Plan {
        LexPlan {
            slots: self.declared(attrs),
        }
    }

    fn key(&self, plan: &Self::Plan, values: &[Value]) -> Self::Key {
        plan.slots
            .iter()
            .map(|(i, level)| level.key(values[*i]))
            .collect()
    }
}

/// `MIN` ranking (extension): answers by their smallest attribute weight.
///
/// The key is every weight sorted ascending (*leximin*). Its first element
/// is the minimum, so the order is a MIN order, with ties on the minimum
/// broken by the next-smallest weight, and so on. Two keys over one
/// attribute list are decided by the smallest weight whose multiplicity
/// differs, and adding the same weights to both sides never changes that
/// verdict — which makes the key strict, where the bare minimum is not.
#[derive(Clone, Debug)]
pub struct MinRanking {
    weights: WeightAssignment,
}

impl MinRanking {
    /// Rank by the minimum weight.
    pub fn new(weights: WeightAssignment) -> Self {
        MinRanking { weights }
    }
}

impl Ranking for MinRanking {
    type Key = Vec<Weight>;
    type Plan = Vec<AttrWeights>;

    fn plan(&self, attrs: &[Attr]) -> Self::Plan {
        self.weights.resolvers(attrs)
    }

    fn key(&self, plan: &Self::Plan, values: &[Value]) -> Self::Key {
        let mut key = weights_of(plan, values);
        key.sort_unstable();
        key
    }
}

/// `MAX` ranking (extension): answers by their largest attribute weight.
/// The key is every weight sorted descending (*leximax*), strict for the
/// reason [`MinRanking`]'s is, decided by the largest weight whose
/// multiplicity differs.
#[derive(Clone, Debug)]
pub struct MaxRanking {
    weights: WeightAssignment,
}

impl MaxRanking {
    /// Rank by the maximum weight.
    pub fn new(weights: WeightAssignment) -> Self {
        MaxRanking { weights }
    }
}

impl Ranking for MaxRanking {
    type Key = Vec<Weight>;
    type Plan = Vec<AttrWeights>;

    fn plan(&self, attrs: &[Attr]) -> Self::Plan {
        self.weights.resolvers(attrs)
    }

    fn key(&self, plan: &Self::Plan, values: &[Value]) -> Self::Key {
        let mut key = weights_of(plan, values);
        key.sort_unstable_by(|a, b| b.cmp(a));
        key
    }
}

/// The weight of each position of `values`.
fn weights_of(plan: &[AttrWeights], values: &[Value]) -> Vec<Weight> {
    debug_assert_eq!(plan.len(), values.len());
    plan.iter()
        .zip(values)
        .map(|(w, &v)| w.weight_of(v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use re_storage::attr::attrs;

    #[test]
    fn sum_ranking_adds_weights() {
        let r = SumRanking::value_sum();
        let k = r.key_of(&attrs(["a", "b"]), &[3, 4]);
        assert_eq!(k, Weight::new(7.0));
    }

    #[test]
    fn sum_ranking_orders_tuples() {
        let r = SumRanking::value_sum();
        let a = attrs(["a", "b"]);
        assert!(r.key_of(&a, &[1, 1]) < r.key_of(&a, &[1, 2]));
        assert!(r.key_of(&a, &[5, 0]) == r.key_of(&a, &[0, 5]));
    }

    #[test]
    fn lex_ranking_respects_global_order_regardless_of_node_layout() {
        let r = LexRanking::new(["x", "y"], WeightAssignment::value_as_weight());
        // node stores attributes in reverse order (y, x): the plan must put
        // x's weight first in the key anyway.
        let plan = r.plan(&attrs(["y", "x"]));
        let k1 = r.key(&plan, &[100, 1]); // y=100, x=1
        let k2 = r.key(&plan, &[0, 2]); // y=0,   x=2
        assert!(k1 < k2, "x is the primary sort attribute");
    }

    #[test]
    fn lex_ranking_desc_direction_flips_order() {
        let r = LexRanking::with_directions(
            [("x", Direction::Desc), ("y", Direction::Asc)],
            WeightAssignment::value_as_weight(),
        );
        let a = attrs(["x", "y"]);
        let hi = r.key_of(&a, &[10, 0]);
        let lo = r.key_of(&a, &[1, 0]);
        assert!(hi < lo, "descending on x: larger x sorts first");
    }

    #[test]
    fn lex_ranking_ties_fall_through_to_next_attr() {
        let r = LexRanking::new(["x", "y"], WeightAssignment::value_as_weight());
        let a = attrs(["x", "y"]);
        assert!(r.key_of(&a, &[1, 5]) < r.key_of(&a, &[1, 6]));
    }

    #[test]
    fn lex_keys_break_weight_ties_by_value_and_hold_declared_levels_only() {
        let flat = (0..10u64).map(|v| (v, Weight::new(1.0))).collect();
        let r = LexRanking::with_directions(
            [
                ("x", Direction::Asc),
                ("z", Direction::Desc),
                ("x", Direction::Desc),
            ],
            WeightAssignment::value_as_weight().with_table("x", flat),
        );
        let a = attrs(["y", "x"]);
        assert_eq!(r.key_of(&a, &[9, 3]), vec![(Weight::new(1.0), 3)]);
        assert!(
            r.key_of(&a, &[9, 2]) < r.key_of(&a, &[0, 3]),
            "x ties: by value"
        );
        assert_eq!(
            r.key_of(&a, &[0, 3]),
            r.key_of(&a, &[9, 3]),
            "y is undeclared"
        );
        let b = attrs(["z", "x"]);
        assert_eq!(
            r.key_of(&b, &[4, 3]),
            vec![(Weight::new(1.0), 3), (Weight::new(-4.0), 4)],
            "declared order, first direction of x, z negated"
        );
        let levels = r.levels(&attrs(["w", "z", "y", "x"]));
        let names: Vec<&str> = levels.iter().map(|(a, _)| a.as_str()).collect();
        assert_eq!(names, ["x", "z", "w", "y"]);
        let declared: Vec<bool> = levels.iter().map(|(_, l)| l.is_some()).collect();
        assert_eq!(declared, [true, true, false, false]);
    }

    #[test]
    fn min_and_max_keys_are_the_weights_sorted_from_the_extreme() {
        let w = WeightAssignment::value_as_weight();
        let a = attrs(["x", "y", "z"]);
        let min = MinRanking::new(w.clone());
        assert_eq!(min.key_of(&a, &[5, 2, 9]), [2.0, 5.0, 9.0].map(Weight::new));
        assert!(min.key_of(&a, &[2, 9, 9]) > min.key_of(&a, &[2, 5, 9]));
        let max = MaxRanking::new(w);
        assert_eq!(max.key_of(&a, &[5, 2, 9]), [9.0, 5.0, 2.0].map(Weight::new));
        assert!(max.key_of(&a, &[9, 0, 0]) < max.key_of(&a, &[9, 5, 0]));
    }
}
