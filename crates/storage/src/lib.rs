//! In-memory relational storage substrate for the ranked-enumeration library.
//!
//! The paper ("Ranked Enumeration of Join Queries with Projections", VLDB 2022)
//! assumes a main-memory relational database with constant-time hash lookups.
//! This crate provides exactly that substrate:
//!
//! * [`Value`] — dictionary-encoded attribute values (unsigned 64-bit ids),
//! * [`Attr`] — cheaply clonable interned attribute names,
//! * [`Relation`] — a named, flat, row-major relation over a fixed schema,
//! * [`Database`] — a set of relations addressed by name,
//! * [`KeyTable`] — the flat dictionary from fixed-arity keys to dense ids
//!   under every grouping and filtering pass (semi-joins, distinct
//!   projection, the anchor ids of the enumeration algorithms),
//! * [`HashIndex`] / [`SortedIndex`] — grouped row indexes on arbitrary
//!   column subsets (hash joins, lexicographic enumeration),
//! * [`Dictionary`] — a string interner for loading textual data.
//!
//! The storage layer is deliberately simple: values are fixed-width, tuples
//! are contiguous slices, and all per-tuple operations are positional. This
//! matches the uniform-cost RAM model the paper analyses its algorithms in.

pub mod attr;
pub mod database;
pub mod dictionary;
pub mod error;
pub mod index;
pub mod keytable;
pub mod relation;
pub mod value;

pub use attr::Attr;
pub use database::Database;
pub use dictionary::Dictionary;
pub use error::StorageError;
pub use index::{DegreeIndex, HashIndex, SortedIndex, TrieIndex};
pub use keytable::{mix_key, project_key, IdSlots, KeyTable};
pub use relation::{Relation, RelationChunk};
pub use value::{Tuple, Value};
