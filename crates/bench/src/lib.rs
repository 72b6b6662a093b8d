//! # gql-bench — experiment harness for the §5 evaluation
//!
//! [`workload`] prepares the datasets/indexes/query sets; [`experiments`]
//! regenerates each figure of the paper (see DESIGN.md's experiment
//! index). The `experiments` binary prints the tables. Timing the system
//! itself is the standing benchmark's job (`BENCHMARK.json`,
//! `benchmark/`), not this crate's.

#![warn(missing_docs)]

pub mod experiments;
pub mod workload;
