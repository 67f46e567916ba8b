//! Extended ranking functions beyond the paper's two headline functions.
//!
//! Section 1.1 and Section 2.1 of the paper note that the enumeration
//! machinery works for any *monotone decomposable* ranking function and
//! explicitly mention products and "circuits that use sum and products" as
//! straightforward extensions. This module provides those extensions:
//!
//! * [`ProductRanking`] — the product of the attribute weights,
//! * [`AvgRanking`] — the average attribute weight,
//! * [`WeightedSumRanking`] — `Σ c_A · w(t[A])` with per-attribute
//!   non-negative coefficients,
//! * [`SumProductRanking`] — a two-level sum-of-products circuit
//!   `Σ_g Π_{A ∈ g} w(t[A])` over disjoint attribute groups.
//!
//! All of them require **non-negative weights** to be monotone (replacing a
//! sub-tuple with a higher-keyed one must never lower the combined key);
//! this is asserted in debug builds and documented per type.

use crate::assignment::{AttrWeights, WeightAssignment};
use crate::rank::Ranking;
use crate::weight::{ExactSum, Weight};
use re_storage::{Attr, Value};

fn debug_assert_non_negative(w: Weight, what: &str) {
    debug_assert!(
        w.value() >= 0.0,
        "{what} requires non-negative weights to stay monotone, got {w}"
    );
}

/// `PRODUCT` ranking: the key of a tuple is the product of its attribute
/// weights.
///
/// Monotone (and therefore usable with every enumerator in
/// `rankedenum-core`) as long as all weights are **non-negative**; this is
/// checked with debug assertions.
#[derive(Clone, Debug)]
pub struct ProductRanking {
    weights: WeightAssignment,
}

impl ProductRanking {
    /// Rank by the product of weights under the given assignment.
    pub fn new(weights: WeightAssignment) -> Self {
        ProductRanking { weights }
    }

    /// Rank by the product of the raw attribute values.
    pub fn value_product() -> Self {
        ProductRanking::new(WeightAssignment::value_as_weight())
    }

    /// The underlying weight assignment.
    pub fn weights(&self) -> &WeightAssignment {
        &self.weights
    }
}

impl Ranking for ProductRanking {
    /// Keys are **exact** products ([`ExactSum`] expansions built with
    /// [`ExactSum::scale`]): like exact sums, exact products are independent
    /// of the factor order, which the enumerators' duplicate elimination and
    /// priority-queue invariants require (per-node attribute orders differ).
    type Key = ExactSum;
    type Plan = Vec<AttrWeights>;

    fn plan(&self, attrs: &[Attr]) -> Self::Plan {
        self.weights.resolvers(attrs)
    }

    fn key(&self, plan: &Self::Plan, values: &[Value]) -> Self::Key {
        debug_assert_eq!(plan.len(), values.len());
        let mut prod = ExactSum::from(Weight::new(1.0));
        for (weights, &v) in plan.iter().zip(values) {
            let w = weights.weight_of(v);
            debug_assert_non_negative(w, "ProductRanking");
            prod = prod.scale(w.value());
        }
        prod
    }
}

/// `AVG` ranking: the key of a tuple is the arithmetic mean of its attribute
/// weights. Monotone for arbitrary (also negative) weights, because a
/// sub-tuple spans a fixed set of positions: increasing its mean increases
/// its sum and therefore the overall mean.
#[derive(Clone, Debug)]
pub struct AvgRanking {
    weights: WeightAssignment,
}

impl AvgRanking {
    /// Rank by the mean weight under the given assignment.
    pub fn new(weights: WeightAssignment) -> Self {
        AvgRanking { weights }
    }

    /// Rank by the mean of the raw attribute values.
    pub fn value_avg() -> Self {
        AvgRanking::new(WeightAssignment::value_as_weight())
    }
}

impl Ranking for AvgRanking {
    /// Keys are the exact weight sum scaled exactly by `1/n` (see
    /// [`ExactSum`] for why exactness matters to the enumerators).
    type Key = ExactSum;
    type Plan = Vec<AttrWeights>;

    fn plan(&self, attrs: &[Attr]) -> Self::Plan {
        self.weights.resolvers(attrs)
    }

    fn key(&self, plan: &Self::Plan, values: &[Value]) -> Self::Key {
        debug_assert_eq!(plan.len(), values.len());
        if plan.is_empty() {
            return ExactSum::zero();
        }
        // Sum the raw weights exactly, then scale exactly by 1/n: a single
        // exact scaling per key preserves the raw-sum order at every tree
        // level (dividing each term separately would round with a different
        // divisor per node and lose cross-level consistency).
        let sum = ExactSum::of(plan.iter().zip(values).map(|(w, &v)| w.weight_of(v)));
        sum.scale(1.0 / plan.len() as f64)
    }
}

/// Weighted-sum ranking: `Σ_A c_A · w(t[A])` with per-attribute
/// coefficients. Attributes without an explicit coefficient use
/// [`WeightedSumRanking::default_coefficient`]. Monotone as long as all
/// coefficients are **non-negative** (checked at construction).
#[derive(Clone, Debug)]
pub struct WeightedSumRanking {
    coefficients: Vec<(Attr, f64)>,
    default_coefficient: f64,
    weights: WeightAssignment,
}

impl WeightedSumRanking {
    /// Build from `(attribute, coefficient)` pairs; unlisted attributes get
    /// coefficient `default_coefficient`.
    ///
    /// # Panics
    /// Panics if any coefficient (including the default) is negative, since
    /// the ranking would no longer be monotone.
    pub fn new(
        coefficients: impl IntoIterator<Item = (impl Into<Attr>, f64)>,
        default_coefficient: f64,
        weights: WeightAssignment,
    ) -> Self {
        let coefficients: Vec<(Attr, f64)> = coefficients
            .into_iter()
            .map(|(a, c)| (a.into(), c))
            .collect();
        assert!(
            default_coefficient >= 0.0 && coefficients.iter().all(|(_, c)| *c >= 0.0),
            "WeightedSumRanking coefficients must be non-negative"
        );
        WeightedSumRanking {
            coefficients,
            default_coefficient,
            weights,
        }
    }

    /// Sum of the listed attributes only (coefficient 1), ignoring all other
    /// attributes (coefficient 0). This is the ranking a SQL
    /// `ORDER BY a1 + a2` induces when the projection also contains other
    /// attributes.
    pub fn over_attrs(
        attrs: impl IntoIterator<Item = impl Into<Attr>>,
        weights: WeightAssignment,
    ) -> Self {
        WeightedSumRanking::new(attrs.into_iter().map(|a| (a, 1.0)), 0.0, weights)
    }

    /// Default coefficient applied to unlisted attributes.
    pub fn default_coefficient(&self) -> f64 {
        self.default_coefficient
    }

    fn coefficient(&self, attr: &Attr) -> f64 {
        self.coefficients
            .iter()
            .find(|(a, _)| a == attr)
            .map(|(_, c)| *c)
            .unwrap_or(self.default_coefficient)
    }
}

/// Key plan for [`WeightedSumRanking`]: the weights and the coefficient of
/// each position.
#[derive(Clone, Debug)]
pub struct WeightedSumPlan {
    slots: Vec<(AttrWeights, f64)>,
}

impl Ranking for WeightedSumRanking {
    /// Keys are exact sums of the per-attribute terms `c_A · w` (see
    /// [`ExactSum`] for why exactness matters to the enumerators).
    type Key = ExactSum;
    type Plan = WeightedSumPlan;

    fn plan(&self, attrs: &[Attr]) -> Self::Plan {
        WeightedSumPlan {
            slots: attrs
                .iter()
                .map(|a| (self.weights.resolver(a), self.coefficient(a)))
                .collect(),
        }
    }

    fn key(&self, plan: &Self::Plan, values: &[Value]) -> Self::Key {
        debug_assert_eq!(plan.slots.len(), values.len());
        ExactSum::of(
            plan.slots
                .iter()
                .zip(values)
                .map(|((w, c), &v)| Weight::new(c * w.weight_of(v).value())),
        )
    }
}

/// A two-level sum-of-products circuit:
/// `rank(t) = Σ_g Π_{A ∈ g} w(t[A])`, where the groups `g` are disjoint
/// attribute sets. Attributes not covered by any group contribute an
/// additive `w(t[A])` term of their own (i.e. behave like singleton groups),
/// so the key of a partial tuple is always defined.
///
/// Monotone for **non-negative** weights (debug-asserted). With singleton
/// groups this degenerates to `SUM`; with a single group covering all
/// attributes it degenerates to `PRODUCT`.
#[derive(Clone, Debug)]
pub struct SumProductRanking {
    groups: Vec<Vec<Attr>>,
    weights: WeightAssignment,
}

impl SumProductRanking {
    /// Build from disjoint attribute groups.
    ///
    /// # Panics
    /// Panics if the groups are not disjoint.
    pub fn new(
        groups: impl IntoIterator<Item = impl IntoIterator<Item = impl Into<Attr>>>,
        weights: WeightAssignment,
    ) -> Self {
        let groups: Vec<Vec<Attr>> = groups
            .into_iter()
            .map(|g| g.into_iter().map(Into::into).collect())
            .collect();
        let mut seen = std::collections::BTreeSet::new();
        for g in &groups {
            for a in g {
                assert!(
                    seen.insert(a.clone()),
                    "SumProductRanking groups must be disjoint; {a:?} repeated"
                );
            }
        }
        SumProductRanking { groups, weights }
    }

    /// Group index of an attribute, if covered.
    fn group_of(&self, attr: &Attr) -> Option<usize> {
        self.groups.iter().position(|g| g.contains(attr))
    }
}

/// Key plan for [`SumProductRanking`]: for each position, its weights and
/// the group index (`usize::MAX` = uncovered singleton).
#[derive(Clone, Debug)]
pub struct SumProductPlan {
    slots: Vec<(AttrWeights, usize)>,
    group_count: usize,
}

impl Ranking for SumProductRanking {
    /// Keys are exact sums of exact group products (see [`ExactSum`] for
    /// why exactness matters to the enumerators).
    type Key = ExactSum;
    type Plan = SumProductPlan;

    fn plan(&self, attrs: &[Attr]) -> Self::Plan {
        SumProductPlan {
            slots: attrs
                .iter()
                .map(|a| {
                    let group = self.group_of(a).unwrap_or(usize::MAX);
                    (self.weights.resolver(a), group)
                })
                .collect(),
            group_count: self.groups.len(),
        }
    }

    fn key(&self, plan: &Self::Plan, values: &[Value]) -> Self::Key {
        debug_assert_eq!(plan.slots.len(), values.len());
        // Products are accumulated only over the group members that are
        // present in this attribute list (partial tuples of a join-tree
        // subtree may contain a strict subset of a group); absent members
        // contribute a neutral factor of 1, which keeps the key monotone.
        let mut products: Vec<Option<ExactSum>> = vec![None; plan.group_count];
        let mut total = ExactSum::zero();
        for ((weights, g), &v) in plan.slots.iter().zip(values) {
            let w = weights.weight_of(v);
            debug_assert_non_negative(w, "SumProductRanking");
            if *g == usize::MAX {
                total.add_weight(w);
            } else {
                let slot = &mut products[*g];
                *slot = Some(match slot.take() {
                    None => ExactSum::from(w),
                    Some(p) => p.scale(w.value()),
                });
            }
        }
        for p in products.into_iter().flatten() {
            total.add_sum(&p);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rank::SumRanking;
    use re_storage::attr::attrs;

    #[test]
    fn product_ranking_multiplies_weights() {
        let r = ProductRanking::value_product();
        assert_eq!(r.key_of(&attrs(["a", "b"]), &[3, 4]), Weight::new(12.0));
        assert_eq!(r.key_of(&attrs(["a"]), &[5]), Weight::new(5.0));
        assert_eq!(r.key_of(&attrs(["a", "b"]), &[0, 9]), Weight::ZERO);
    }

    #[test]
    fn product_ranking_orders_pairs() {
        let r = ProductRanking::value_product();
        let a = attrs(["a", "b"]);
        assert!(r.key_of(&a, &[1, 6]) < r.key_of(&a, &[2, 4]));
        assert_eq!(r.key_of(&a, &[2, 6]), r.key_of(&a, &[3, 4]));
    }

    #[test]
    fn product_monotone_under_subtuple_bump() {
        let r = ProductRanking::value_product();
        let a = attrs(["a", "b", "c"]);
        let base = r.key_of(&a, &[2, 3, 4]);
        let bumped = r.key_of(&a, &[2, 5, 4]);
        assert!(bumped >= base);
    }

    #[test]
    fn avg_ranking_is_mean_of_weights() {
        let r = AvgRanking::value_avg();
        assert_eq!(r.key_of(&attrs(["a", "b"]), &[3, 5]), Weight::new(4.0));
        assert_eq!(r.key_of(&attrs(["a"]), &[7]), Weight::new(7.0));
        assert_eq!(r.key_of(&[], &[]), Weight::ZERO);
    }

    #[test]
    fn avg_and_sum_induce_the_same_order_on_equal_arity() {
        let sum = SumRanking::value_sum();
        let avg = AvgRanking::value_avg();
        let a = attrs(["x", "y", "z"]);
        let tuples = [[1u64, 2, 3], [9, 0, 0], [3, 3, 3], [0, 0, 1]];
        for t1 in &tuples {
            for t2 in &tuples {
                let s = sum.key_of(&a, t1).cmp(&sum.key_of(&a, t2));
                let m = avg.key_of(&a, t1).cmp(&avg.key_of(&a, t2));
                assert_eq!(s, m, "sum and avg must agree on fixed arity");
            }
        }
    }

    #[test]
    fn weighted_sum_applies_coefficients_and_default() {
        let r = WeightedSumRanking::new(
            [("a", 2.0), ("b", 0.5)],
            0.0,
            WeightAssignment::value_as_weight(),
        );
        // 2*10 + 0.5*4 + 0*100
        assert_eq!(
            r.key_of(&attrs(["a", "b", "c"]), &[10, 4, 100]),
            Weight::new(22.0)
        );
        assert_eq!(r.default_coefficient(), 0.0);
    }

    #[test]
    fn weighted_sum_over_attrs_ignores_others() {
        let r = WeightedSumRanking::over_attrs(["a", "b"], WeightAssignment::value_as_weight());
        let key = r.key_of(&attrs(["a", "b", "noise"]), &[1, 2, 1000]);
        assert_eq!(key, Weight::new(3.0));
    }

    #[test]
    fn weighted_sum_with_unit_coefficients_matches_sum() {
        let ws = WeightedSumRanking::new(
            Vec::<(&str, f64)>::new(),
            1.0,
            WeightAssignment::value_as_weight(),
        );
        let sum = SumRanking::value_sum();
        let a = attrs(["x", "y"]);
        for t in [[0u64, 0], [5, 7], [100, 1]] {
            assert_eq!(ws.key_of(&a, &t), sum.key_of(&a, &t));
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn weighted_sum_rejects_negative_coefficients() {
        let _ = WeightedSumRanking::new([("a", -1.0)], 0.0, WeightAssignment::value_as_weight());
    }

    #[test]
    fn sum_product_circuit_combines_groups_and_singletons() {
        // rank = w(a)·w(b) + w(c)
        let r = SumProductRanking::new([["a", "b"]], WeightAssignment::value_as_weight());
        assert_eq!(
            r.key_of(&attrs(["a", "b", "c"]), &[3, 4, 5]),
            Weight::new(17.0)
        );
    }

    #[test]
    fn sum_product_with_singleton_groups_matches_sum() {
        let r = SumProductRanking::new([["a"], ["b"]], WeightAssignment::value_as_weight());
        let sum = SumRanking::value_sum();
        let a = attrs(["a", "b"]);
        for t in [[1u64, 2], [9, 9], [0, 4]] {
            assert_eq!(r.key_of(&a, &t), sum.key_of(&a, &t));
        }
    }

    #[test]
    fn sum_product_with_one_full_group_matches_product() {
        let r = SumProductRanking::new([["a", "b", "c"]], WeightAssignment::value_as_weight());
        let prod = ProductRanking::value_product();
        let a = attrs(["a", "b", "c"]);
        for t in [[1u64, 2, 3], [4, 5, 6], [0, 7, 9]] {
            assert_eq!(r.key_of(&a, &t), prod.key_of(&a, &t));
        }
    }

    #[test]
    fn sum_product_partial_tuple_key_is_defined() {
        // Only one member of the (a, b) group is present — the key must
        // still be computable (partial tuples of subtrees do this).
        let r = SumProductRanking::new([["a", "b"]], WeightAssignment::value_as_weight());
        assert_eq!(r.key_of(&attrs(["a", "c"]), &[3, 5]), Weight::new(8.0));
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn sum_product_rejects_overlapping_groups() {
        let _ = SumProductRanking::new(
            [["a", "b"], ["b", "c"]],
            WeightAssignment::value_as_weight(),
        );
    }
}
