//! The standing benchmark of the gql workspace: four workloads, their
//! end-to-end and per-layer metrics, and the `compare` gate. The binary
//! in `main.rs` is the only user; the modules are a library so that the
//! self-test in `tests/` can read what the binary writes.
//!
//! Start at `benchmark/README.md`.

pub mod cli;
pub mod compare;
pub mod json;
pub mod mol;
pub mod queryset;
pub mod replay;
pub mod run;
pub mod spec;
pub mod stats;
pub mod sys;
pub mod trace;
