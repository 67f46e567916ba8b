//! Extended ranking functions beyond the paper's two headline functions.
//!
//! Section 1.1 and Section 2.1 of the paper note that the enumeration
//! machinery works for any *monotone decomposable* ranking function and
//! mention products as a straightforward extension. This module provides
//! two, both under [`Ranking`]'s ordering contract (a strictly monotone
//! key):
//!
//! * [`WeightedSumRanking`] — `Σ c_A · w(t[A])` with per-attribute
//!   non-negative coefficients,
//! * [`ProductRanking`] — the product of the attribute weights, which must
//!   be **non-negative** (debug-asserted).

use crate::assignment::{AttrWeights, WeightAssignment};
use crate::rank::Ranking;
use crate::weight::{ExactSum, Weight};
use re_storage::{Attr, Value};
use std::cmp::Reverse;

/// `PRODUCT` ranking: answers by the product of their attribute weights,
/// which must be **non-negative** (checked with debug assertions).
///
/// The bare product is only weakly monotone: one zero factor pins it at 0,
/// whatever the other factors do. So the key is `(zero factors, reversed;
/// exact product of the non-zero factors)`. Every answer with a zero
/// factor — product 0 — sorts before every answer without one, more zeros
/// first, and the rest by their product: a PRODUCT order, and strict for
/// every non-negative weight. The product is exact (an [`ExactSum`] built
/// with [`ExactSum::scale`]), so it does not depend on the order of the
/// factors, which differs between join-tree nodes.
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
    type Key = (Reverse<u32>, ExactSum);
    type Plan = Vec<AttrWeights>;

    fn plan(&self, attrs: &[Attr]) -> Self::Plan {
        self.weights.resolvers(attrs)
    }

    fn key(&self, plan: &Self::Plan, values: &[Value]) -> Self::Key {
        debug_assert_eq!(plan.len(), values.len());
        let mut zeros = 0;
        let mut product = ExactSum::from(Weight::new(1.0));
        for (weights, &v) in plan.iter().zip(values) {
            let w = weights.weight_of(v).value();
            debug_assert!(
                w >= 0.0,
                "ProductRanking requires non-negative weights, got {w}"
            );
            if w == 0.0 {
                zeros += 1;
            } else {
                product = product.scale(w);
            }
        }
        (Reverse(zeros), product)
    }
}

/// Weighted-sum ranking: `Σ_A c_A · w(t[A])` with per-attribute
/// coefficients. Attributes without an explicit coefficient use
/// [`WeightedSumRanking::default_coefficient`]. The coefficients must be
/// **non-negative** (checked at construction); each term is computed the
/// same way at every join-tree node and the terms are added exactly, so
/// the key is strict like [`SumRanking`](crate::SumRanking)'s.
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

    /// Sum of the listed attributes only, ignoring all other attributes
    /// (coefficient 0). An attribute listed `n` times has coefficient `n`.
    /// This is the ranking a SQL `ORDER BY a1 + a2` induces when it does
    /// not sum every projected column exactly once.
    pub fn over_attrs(
        attrs: impl IntoIterator<Item = impl Into<Attr>>,
        weights: WeightAssignment,
    ) -> Self {
        let mut coefficients: Vec<(Attr, f64)> = Vec::new();
        for a in attrs.into_iter().map(Into::into) {
            match coefficients.iter_mut().find(|(x, _)| *x == a) {
                Some((_, c)) => *c += 1.0,
                None => coefficients.push((a, 1.0)),
            }
        }
        WeightedSumRanking::new(coefficients, 0.0, weights)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rank::SumRanking;
    use re_storage::attr::attrs;

    #[test]
    fn product_keys_count_the_zero_factors_and_multiply_the_rest() {
        let r = ProductRanking::value_product();
        let a = attrs(["a", "b"]);
        let key = |zeros, product: f64| (Reverse(zeros), ExactSum::from(Weight::new(product)));
        assert_eq!(r.key_of(&a, &[3, 4]), key(0, 12.0));
        assert_eq!(r.key_of(&attrs(["a"]), &[5]), key(0, 5.0));
        assert_eq!(r.key_of(&a, &[0, 9]), key(1, 9.0));
        assert_eq!(r.key_of(&a, &[0, 0]), key(2, 1.0));
        assert!(
            r.key_of(&a, &[0, 0]) < r.key_of(&a, &[0, 1]),
            "more zeros first"
        );
        assert!(
            r.key_of(&a, &[9, 0]) < r.key_of(&a, &[1, 1]),
            "products of 0 first"
        );
        assert!(r.key_of(&a, &[1, 6]) < r.key_of(&a, &[2, 4]));
        assert_eq!(r.key_of(&a, &[2, 6]), r.key_of(&a, &[3, 4]));
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
    fn weighted_sum_over_attrs_counts_a_repeated_attribute_each_time() {
        let r =
            WeightedSumRanking::over_attrs(["a", "b", "b"], WeightAssignment::value_as_weight());
        assert_eq!(r.key_of(&attrs(["a", "b"]), &[1, 10]), Weight::new(21.0));
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
}
