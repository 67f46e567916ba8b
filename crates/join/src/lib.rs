//! Join-processing substrate.
//!
//! The enumeration algorithms of the paper assume a handful of classical
//! building blocks which this crate provides:
//!
//! * [`bind_atoms`] — materialise the atoms of a query against a database,
//!   renaming relation columns to query variables (this is what makes
//!   self-joins work without duplicating base tables in the database),
//! * [`semi_join`] / [`full_reduce`] / [`Reduction`] — the Yannakakis full
//!   reducer that removes all dangling tuples before preprocessing, and
//!   the dense join-key ids it assigns along the way,
//! * [`hash_join`] / [`full_join`] — natural-join materialisation used by
//!   the blocking baselines, the star-query heavy output and the test
//!   oracles (serial only),
//! * [`project_distinct`] — `SELECT DISTINCT` projection (serial only),
//! * [`materialize_bags_reported`] — evaluation of a plan's GHD bags
//!   (Theorem 3), each onto its [`bag_interface`], by the generic-join
//!   kernel of [`wcoj`]; [`race_bags`] builds several plans' bags in
//!   lockstep and keeps the one that finishes first.
//!
//! The semi-join has a morsel-driven parallel entry point,
//! [`par_semi_join`] in [`parallel`], and the composite operators
//! ([`materialize_bags_reported`], [`full_reduce_ctx`], [`reduce_then_prune_ctx`])
//! take a [`re_exec::ExecContext`] — serial is a context. All of them are
//! bit-for-bit identical to their serial counterparts at any thread count.

pub mod bag;
pub mod bind;
pub mod error;
pub mod hashjoin;
pub mod parallel;
pub mod reducer;
pub mod wcoj;

pub use bag::{
    bag_interface, materialize_bags_reported, race_bags, BagBuildInfo, BagKernel, BagRace,
};
pub use bind::{bind_atom, bind_atoms, bind_atoms_of};
pub use error::JoinError;
pub use hashjoin::{full_join, hash_join, project_distinct};
pub use parallel::{par_semi_join, sorted_index};
pub use reducer::{
    full_reduce, full_reduce_ctx, full_reduce_relations_ctx, reduce_then_prune_ctx, semi_join,
    EdgeIds, ReduceStats, Reduction,
};
pub use wcoj::{wcoj_materialize, wcoj_materialize_reported, BagWalk, WcojReport, WALK_STEP};
