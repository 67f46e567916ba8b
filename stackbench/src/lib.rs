//! The library half of the `benchmark` binary, so that the tests under
//! `tests/` can reach the harness. See `README.md`.

pub mod harness;
