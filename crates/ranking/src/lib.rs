//! Ranking functions for ranked enumeration.
//!
//! The paper focuses on two ranking functions over the projection
//! attributes — `SUM` and `LEXICOGRAPHIC` — and notes that the algorithmic
//! machinery extends to any *monotone decomposable* function (MIN, MAX,
//! products, ...). This crate provides:
//!
//! * [`Weight`] — a totally ordered weight type (an `f64` ordered by
//!   `total_cmp`, so NaNs cannot poison heap invariants),
//! * [`WeightAssignment`] — the function `w : dom(A) → ℝ` that maps
//!   attribute values to weights (Example 3 of the paper), with value-as-
//!   weight, zero, and explicit-table modes,
//! * the [`Ranking`] trait — a ranking function with a totally ordered key
//!   and per-attribute-list "key plans" precomputed by the enumerators,
//! * [`SumRanking`], [`LexRanking`], [`MinRanking`], [`MaxRanking`] —
//!   concrete implementations,
//! * [`extended`] — the "straightforward extensions" the paper mentions:
//!   products, averages, weighted sums, and sum-of-products circuits.
//!
//! The property the enumeration algorithms need (and that the property
//! tests check) is **monotonicity**: replacing any sub-tuple's contribution
//! by a contribution with a larger key never makes the combined key smaller.
//! [`rank`] says which of the rankings hold it only weakly.

pub mod assignment;
pub mod extended;
pub mod key;
pub mod rank;
pub mod weight;

pub use assignment::{AttrWeights, DefaultWeight, WeightAssignment};
pub use extended::{AvgRanking, ProductRanking, SumProductRanking, WeightedSumRanking};
pub use key::RankKey;
pub use rank::{Direction, LexLevel, LexRanking, MaxRanking, MinRanking, Ranking, SumRanking};
pub use weight::{ExactSum, Weight};
