//! The benchmark harness. `main.rs` only parses the command line.

pub mod alloc;
pub mod data;
pub mod driver;
pub mod env;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod openloop;
pub mod oracle;
pub mod report;
pub mod run;
pub mod stack;
pub mod stats;
pub mod trace;
pub mod traced;
pub mod workloads;
