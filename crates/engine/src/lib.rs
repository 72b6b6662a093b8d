//! # gql-engine — end-to-end GraphQL query execution
//!
//! The user-facing entry point of the system: a [`Database`] holds named
//! collections of graphs, and [`Database::execute`] runs GraphQL
//! programs — pattern declarations, `:=` assignments, and FLWR
//! expressions (§3.4 of *"Graphs-at-a-time"*, He & Singh, SIGMOD 2008)
//! — through the parse → compile → match → compose pipeline.
//!
//! ```
//! use gql_core::fixtures::figure_4_13_dblp;
//! use gql_engine::Database;
//!
//! let mut db = Database::new();
//! db.add_collection("DBLP", figure_4_13_dblp().into());
//! let out = db.execute(r#"
//!     for graph Q { node a <author>; } exhaustive in doc("DBLP")
//!     return graph { node n <name=Q.a.name>; };
//! "#).unwrap();
//! assert_eq!(out.returned[0].len(), 5); // five author bindings
//! ```

#![warn(missing_docs)]

pub mod data;
pub mod database;
pub mod error;
pub mod metrics;
pub mod server;

pub use data::{collection_from_text, graph_from_text};
pub use database::{Database, ExecOutcome};
pub use error::{EngineError, Result};
pub use gql_match::GraphSnapshot;
pub use gql_storage::OpenOptions;
pub use metrics::{Health, MetricsRegistry, SlowQuery};
pub use server::MetricsServer;
