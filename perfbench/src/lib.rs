//! `perfbench`: the SymbFuzz reproduction's end-to-end and per-layer
//! performance benchmark. See `README.md` for the workloads, metrics
//! and commands.

pub mod compare;
pub mod heap;
pub mod layers;
pub mod measure;
pub mod schema;
pub mod spec;
pub mod stats;
pub mod traced;
pub mod workload;
