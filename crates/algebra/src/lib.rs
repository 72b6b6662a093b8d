//! # gql-algebra — the bulk graph algebra of GraphQL
//!
//! Implements §3.3 of *"Graphs-at-a-time"* (He & Singh, SIGMOD 2008): an
//! algebra "defined along the lines of the relational algebra" whose
//! operands are **collections of graphs**:
//!
//! - [`ops::select`] — σ generalized to graph pattern matching, yielding
//!   [`MatchedGraph`] bindings ⟨φ, P, G⟩ (Definition 4.3);
//! - [`ops::cartesian_product`] / [`ops::join`] — × and ⋈;
//! - [`ops::compose`] — ω, instantiating [`template`]s from matched
//!   graphs (Definition 4.4);
//! - [`ops::union`] / [`ops::difference`] / [`ops::intersection`].
//!
//! [`compile`] lowers parsed pattern ASTs (`gql-parser`) into executable
//! matcher patterns (`gql-match`), resolving nested motifs, `unify`
//! members, and `where` predicates. Recursive motifs (Definition 4.2)
//! are rejected there, not evaluated. Programs are evaluated by
//! `gql_engine::Database`, which drives these operators.

#![warn(missing_docs)]

pub mod compile;
pub mod error;
pub mod matched;
pub mod ops;
pub mod template;

pub use compile::{compile_pattern, compile_pattern_text, CompiledPattern, PatternRegistry};
pub use error::{AlgebraError, Result};
pub use matched::MatchedGraph;
pub use template::{instantiate, TemplateEnv};
