//! # re-server — a concurrent ranked-query service
//!
//! Ranked enumeration is pull-based: after a light preprocessing pass, the
//! next page of distinct, rank-ordered answers costs only a small delay —
//! exactly the access pattern of a paginated top-k API. This crate turns
//! the library's enumerators into a *service* around that idea:
//!
//! * a **catalog** of named, immutable databases shared behind
//!   [`Arc`](std::sync::Arc) ([`Catalog`]);
//! * **sessions** holding live enumerators as *resumable cursors*: `OPEN`
//!   pays preprocessing once, successive `FETCH k` calls stream further
//!   pages with no re-planning and no re-preprocessing, `CLOSE` (or idle
//!   eviction) releases the cursor ([`SessionTable`]);
//! * an **LRU plan cache** keyed on the normalised statement text; a
//!   cached plan carries each branch's algorithm and join tree
//!   ([`rankedenum_core::BranchPlan`]), so a hit plans nothing again
//!   ([`PlanCache`]);
//! * one **TCP front-end** ([`serve`]: the event-driven [`reactor`], no
//!   external dependencies) speaking JSON lines or binary frames per
//!   connection and dispatching to a worker-thread pool, plus an
//!   in-process client with the same typed API for tests and embedding
//!   ([`LocalClient`] / [`TcpClient`]);
//! * a **stats endpoint** aggregating enumeration counters across all
//!   workers through lock-free [`rankedenum_core::SharedStats`].
//!
//! ## Quick start
//!
//! ```
//! use re_server::{serve, LocalClient, RankedQueryServer, ServerConfig, Transport};
//! use re_storage::{attr::attrs, Database, Relation};
//!
//! let mut db = Database::new();
//! db.add_relation(Relation::with_tuples("AP", attrs(["aid", "pid"]),
//!     vec![vec![1, 10], vec![2, 10], vec![3, 11], vec![1, 11]]).unwrap()).unwrap();
//!
//! let server = RankedQueryServer::new(ServerConfig::default());
//! server.catalog().register("dblp", db);
//!
//! let mut client = LocalClient::new(server);
//! let opened = client.open("dblp",
//!     "SELECT DISTINCT AP1.aid, AP2.aid FROM AP AS AP1, AP AS AP2 \
//!      WHERE AP1.pid = AP2.pid ORDER BY AP1.aid + AP2.aid").unwrap();
//! assert_eq!(opened.algorithm, "acyclic");
//!
//! // Page through the answers: preprocessing ran once, at OPEN.
//! let p1 = client.fetch(opened.session, 2).unwrap();
//! let p2 = client.fetch(opened.session, 2).unwrap();
//! assert_eq!(p1.rows, vec![vec![1, 1], vec![1, 2]]);
//! assert_eq!(p2.rows, vec![vec![2, 1], vec![1, 3]]);
//! client.close(opened.session).unwrap();
//! ```
//!
//! The TCP front-end serves the same protocol over the wire: see [`serve`]
//! and `examples/server_quickstart.rs` in the workspace root.

pub mod catalog;
pub mod client;
pub mod json;
pub mod plan_cache;
pub mod protocol;
pub mod reactor;
pub mod server;
pub mod session;
pub mod wire;
mod work_queue;

pub use catalog::Catalog;
pub use client::{
    ClientError, LocalClient, OpenedSession, Page, QueryOutcome, RetryPolicy, TcpClient, Transport,
};
pub use json::Json;
pub use plan_cache::PlanCache;
pub use protocol::{Request, Response, StatsReport, TransportCounters, WorkerCounters};
pub use reactor::serve;
pub use server::{RankedQueryServer, ServerConfig, ServerHandle, ServerTransport};
pub use session::{Session, SessionTable};
pub use wire::WireProtocol;
