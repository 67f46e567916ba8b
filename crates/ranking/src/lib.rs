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
//! * [`extended`] — weighted sums and products, the "straightforward
//!   extensions" the paper mentions.
//!
//! The property the enumeration algorithms need (and that the property
//! tests check for every ranking above) is **strict monotonicity**: a
//! sub-tuple whose key strictly rises makes the whole key strictly rise,
//! and equal sub-tuple keys give equal whole keys. [`Ranking`] states it
//! once; every ranking here keeps it, MIN, MAX and PRODUCT by refining the
//! bare minimum, maximum or product into a strict key.

pub mod assignment;
pub mod extended;
pub mod key;
pub mod rank;
pub mod weight;

pub use assignment::{AttrWeights, DefaultWeight, WeightAssignment};
pub use extended::{ProductRanking, WeightedSumRanking};
pub use key::RankKey;
pub use rank::{Direction, LexLevel, LexRanking, MaxRanking, MinRanking, Ranking, SumRanking};
pub use weight::{ExactSum, Weight};
