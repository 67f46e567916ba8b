//! # rankedenum — Ranked Enumeration of Join Queries with Projections
//!
//! A Rust implementation of *"Ranked Enumeration of Join Queries with
//! Projections"* (Shaleen Deep, Xiao Hu, Paraschos Koutris — PVLDB 15(5),
//! 2022). The library answers queries of the form
//!
//! ```sql
//! SELECT DISTINCT A_1, ..., A_m FROM R_1, ..., R_n
//! WHERE <natural join conditions>
//! ORDER BY w(A_1) + ... + w(A_m)   -- or lexicographically
//! LIMIT k;
//! ```
//!
//! by *enumerating* the distinct answers in rank order with a small delay
//! after a light preprocessing pass — instead of materialising the full
//! join, de-duplicating and sorting it the way conventional engines do.
//!
//! ## Quick start
//!
//! ```
//! use rankedenum::prelude::*;
//!
//! // A co-authorship relation: (author, paper).
//! let mut db = Database::new();
//! db.add_relation(Relation::with_tuples(
//!     "AuthorPapers",
//!     attrs(["aid", "pid"]),
//!     vec![vec![1, 10], vec![2, 10], vec![3, 10], vec![1, 11], vec![4, 11]],
//! ).unwrap()).unwrap();
//!
//! // SELECT DISTINCT a1, a2 ... ORDER BY a1 + a2 LIMIT 3
//! let query = QueryBuilder::new()
//!     .atom("AP1", "AuthorPapers", ["a1", "p"])
//!     .atom("AP2", "AuthorPapers", ["a2", "p"])
//!     .project(["a1", "a2"])
//!     .build().unwrap();
//!
//! let top3 = top_k(&query, &db, SumRanking::value_sum(), 3).unwrap();
//! assert_eq!(top3, vec![vec![1, 1], vec![1, 2], vec![2, 1]]);
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`storage`] | values, relations, databases, hash/degree indexes |
//! | [`query`] | join-project queries, hypergraphs, join trees, GHDs, star detection, UCQs |
//! | [`ranking`] | SUM / weighted SUM / LEXICOGRAPHIC / MIN / MAX / PRODUCT ranking functions, each with a strictly monotone key, and weight assignments |
//! | [`exec`] | morsel-driven parallel execution engine: work-stealing worker pool, execution contexts |
//! | [`join`] | semi-joins, Yannakakis full reducer, hash joins, bag materialisation (serial + parallel kernels) |
//! | [`core`] | the paper's enumerators (acyclic, lexicographic, star, cyclic, union) |
//! | [`sql`] | SQL front-end: parse/plan/execute `SELECT DISTINCT ... ORDER BY ... LIMIT k`, resumable cursors |
//! | [`server`] | concurrent ranked-query service: catalog, sessions, plan cache, JSON-lines TCP protocol |
//! | [`obs`] | observability kernel: structured logs, latency histograms, Prometheus exposition, trace trees |
//! | [`baseline`] | the evaluation baselines (materialise+sort, BFS+sort, full any-k) |
//! | [`datagen`] | synthetic DBLP/IMDB/social/LDBC-style dataset generators |
//! | [`workloads`] | the paper's concrete benchmark queries wired to the generators |

pub use rankedenum_core as core;
pub use re_baseline as baseline;
pub use re_datagen as datagen;
pub use re_exec as exec;
pub use re_join as join;
pub use re_obs as obs;
pub use re_query as query;
pub use re_ranking as ranking;
pub use re_server as server;
pub use re_sql as sql;
pub use re_storage as storage;
pub use re_workloads as workloads;

/// Instance-size scaling for the `examples/` binaries.
pub mod scale {
    /// Scale a base instance size by the `RE_SCALE` environment variable (a
    /// float multiplier, default `1.0`, clamped so at least one tuple is
    /// generated). The examples route their dataset sizes through this so
    /// that the workspace smoke test can run every example quickly in debug
    /// builds (`RE_SCALE=0.02 cargo run --example ...`), while a plain
    /// release run reproduces the documented workload sizes.
    pub fn scaled(base: usize) -> usize {
        match std::env::var("RE_SCALE")
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
        {
            Some(f) if f > 0.0 => ((base as f64 * f) as usize).max(1),
            _ => base,
        }
    }
}

/// The most commonly used items, importable with one `use`.
///
/// Since the server subsystem landed, every enumerator (and everything a
/// ranking carries) is `Send` and **owns** its inputs — the full-reducer
/// pass copies the relations it needs out of the database — so enumerators
/// built here can be boxed as [`rankedenum_core::RankedStream`]s, parked in
/// session tables and resumed from other threads.
/// [`BranchPlan::of`](rankedenum_core::BranchPlan::of) decides which
/// enumerator serves a query (the paper's case table, as a cacheable value)
/// and `BranchPlan::open` builds it already boxed. [`re_sql::SqlExecutor`]
/// is one executor over whatever handle to the database the caller has:
/// `SqlExecutor::new(&db)` borrows it, and [`re_sql::OwnedSqlExecutor`] is
/// the same type over an `Arc<Database>` for concurrent settings.
pub mod prelude {
    pub use rankedenum_core::{
        top_k, AcyclicEnumerator, Algorithm, BranchPlan, CyclicEnumerator, EnumError, EnumStats,
        GhdReport, HistSnapshot, InstrumentedStream, LexiEnumerator, LocalHistogram, RankedStream,
        SharedStats, StarEnumerator, StatsSnapshot, TimingBreakdown, UnionEnumerator,
    };
    pub use re_baseline::{BfsSortEngine, FullAnyKEngine, MaterializeSortEngine};
    pub use re_exec::{ExecContext, PoolStats, WorkerPool};
    pub use re_query::{
        Atom, GhdPlan, Hypergraph, JoinProjectQuery, JoinTree, PlanSelection, QueryBuilder,
        UnionQuery,
    };
    pub use re_ranking::{
        Direction, LexRanking, MaxRanking, MinRanking, ProductRanking, Ranking, SumRanking, Weight,
        WeightAssignment, WeightedSumRanking,
    };
    pub use re_server::{
        serve, Catalog, LocalClient, RankedQueryServer, ServerConfig, TcpClient, Transport,
    };
    pub use re_sql::{query as sql_query, OwnedSqlExecutor, QueryCursor, SqlExecutor};
    pub use re_storage::attr::attrs;
    pub use re_storage::{Attr, Database, Relation, Tuple, Value};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_re_exports_compose() {
        let mut db = Database::new();
        db.add_relation(
            Relation::with_tuples("R", attrs(["a", "b"]), vec![vec![1, 2], vec![3, 2]]).unwrap(),
        )
        .unwrap();
        let q = QueryBuilder::new()
            .atom("R1", "R", ["x", "y"])
            .atom("R2", "R", ["z", "y"])
            .project(["x", "z"])
            .build()
            .unwrap();
        let res = top_k(&q, &db, SumRanking::value_sum(), 10).unwrap();
        assert_eq!(res.len(), 4);
    }
}
