//! # re_exec — morsel-driven parallel execution engine
//!
//! Preprocessing is the heavy phase of ranked enumeration: the full
//! reducer, the GHD bag materialisation and the projection/dedup passes all
//! scan and hash millions of tuples before the first answer can be
//! emitted. This crate provides the machinery to spread that work over all
//! cores **without changing a single output byte**:
//!
//! * [`WorkerPool`] — a work-stealing pool of `std` threads (no external
//!   dependencies) with helping callers, nested-submission support and
//!   execution counters ([`PoolStats`]);
//! * [`ExecContext`] — the serial-or-pooled handle kernels take;
//!   [`ExecContext::map`] fans an index space out and merges results *by
//!   index*, which is the whole determinism story: parallel kernels built
//!   on it are byte-identical to their serial counterparts at any thread
//!   count.
//!
//! The relational kernels themselves (partitioned hash join, parallel
//! semi-join, parallel distinct-projection, parallel bag materialisation)
//! live in `re_join`, which builds them on these primitives and chunks
//! their inputs with `re_storage::Relation::chunks` (zero-copy morsel
//! views).

pub mod cancel;
pub mod context;
pub mod pool;

pub use cancel::{CancelKind, CancelToken};
pub use context::{machine_threads, ExecContext, DEFAULT_MIN_PAR_ROWS, DEFAULT_MORSEL_ROWS};
pub use pool::{current_worker, default_thread_count, PoolStats, WorkerPool, WorkerStat};
