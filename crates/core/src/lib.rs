//! # rankedenum-core
//!
//! The primary contribution of *"Ranked Enumeration of Join Queries with
//! Projections"* (Deep, Hu, Koutris — PVLDB 15(5), 2022): algorithms that
//! enumerate the **distinct** answers of a join query **with projections**
//! in the order of a ranking function, with small delay after a light
//! preprocessing pass — instead of materialising, de-duplicating and sorting
//! the full join the way conventional engines execute
//! `SELECT DISTINCT ... ORDER BY ... LIMIT k`.
//!
//! | Enumerator | Paper | Guarantee |
//! |---|---|---|
//! | [`AcyclicEnumerator`] | Algorithms 1–2, Theorem 1 | `O(|D|)` preprocessing, `O(|D| log |D|)` delay |
//! | [`LexiEnumerator`] | Algorithm 3, Lemma 4 | `O(|D| log |D|)` preprocessing, `O(|D|)` delay (lexicographic orders only) |
//! | [`StarEnumerator`] | Algorithms 4–5, Theorem 2 | `O(|D|·(|D|/δ)^{m-1})` preprocessing, `O(δ log |D|)` delay |
//! | [`CyclicEnumerator`] | Theorem 3 | GHD-based: `O(|D|^{fhw} log |D|)` preprocessing and delay |
//! | [`UnionEnumerator`] | Theorem 4 | UCQs by ranked merge of branch streams |
//!
//! Which row serves a query is decided once, by [`BranchPlan::of`] — the
//! paper's case table as a value (algorithm + join tree) that a planner can
//! store and cache; [`BranchPlan::open`] builds the chosen enumerator as a
//! boxed [`RankedStream`], [`UnionEnumerator`] opens one per branch, and
//! [`top_k`] is the one-call form.
//!
//! All enumerators are plain [`Iterator`]s over owned output tuples in the
//! user's projection order; [`EnumStats`] exposes the priority-queue
//! operation counts used for the paper's empirical-delay figure.

pub mod acyclic;
pub mod cyclic;
pub mod error;
pub mod frontier;
pub mod lexi;
pub mod merge;
pub mod plan;
pub mod star;
pub mod stats;
pub mod stream;
pub mod union;

pub use acyclic::AcyclicEnumerator;
pub use cyclic::{BagDetail, CyclicEnumerator, GhdReport};
pub use error::EnumError;
pub use frontier::{
    entry_cmp, CellArena, CellId, FrontierEntry, FrontierHeap, KeyInterner, EXACT_KEY,
};
pub use lexi::LexiEnumerator;
pub use plan::{top_k, Algorithm, BranchPlan};
// Re-exported so downstream layers (SQL cursors, the server) can accept an
// execution context and size pools without depending on `re_exec` directly.
pub use re_exec::{machine_threads, CancelKind, CancelToken, ExecContext, PoolStats, WorkerPool};
pub use re_obs::{HistSnapshot, LocalHistogram, TimingBreakdown};
pub use star::StarEnumerator;
pub use stats::{EnumStats, SharedStats, StatsSnapshot};
pub use stream::{InstrumentedStream, RankedStream};
pub use union::UnionEnumerator;
