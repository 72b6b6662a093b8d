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
//! - [`ops::union`] / [`ops::difference`] / [`ops::intersection`];
//! - [`AlgebraExpr`] — expression trees over the five primitive
//!   operators, with rewrite laws in [`expr::laws`].
//!
//! [`compile`] lowers parsed pattern ASTs (`gql-parser`) into executable
//! matcher patterns (`gql-match`), resolving nested motifs, `unify`
//! members, and `where` predicates.

#![warn(missing_docs)]

pub mod compile;
pub mod error;
pub mod expr;
pub mod matched;
pub mod ops;
pub mod recursive;
pub mod template;

pub use compile::{compile_pattern, compile_pattern_text, CompiledPattern, PatternRegistry};
pub use error::{AlgebraError, Result};
pub use expr::{AlgebraCtx, AlgebraExpr};
pub use matched::MatchedGraph;
pub use recursive::{match_recursive, matches_recursive, DerivedMatches};
pub use template::{instantiate, TemplateEnv};
