//! # gql-core — data model for GraphQL (He & Singh, SIGMOD 2008)
//!
//! The data model of *"Graphs-at-a-time: Query Language and Access
//! Methods for Graph Databases"*: attributed graphs where **graphs are
//! the basic unit of information**. Nodes, edges, and graphs each carry a
//! [`Tuple`] (an optional tag plus name/value pairs); a database is one
//! or more [`GraphCollection`]s; a single large graph is a one-element
//! collection.
//!
//! This crate also hosts the structural primitives the access methods of
//! the paper's §4 build on:
//!
//! - [`neighborhood`]: radius-r neighborhood subgraphs and their label
//!   [`Profile`]s — the `Value`-typed form that encodes a pattern
//!   node's profile for §4.2 local pruning and serves as the test
//!   oracle for the interned data-side profiles;
//! - [`intern`]: the `Value ↔ u32` label dictionary and signature-carrying
//!   [`IdProfile`]s behind the matcher's interned fast path;
//! - [`iso`]: trusted (unoptimized) subgraph-isomorphism oracles;
//! - [`stats`]: label frequencies feeding the §4.4 cost model;
//! - [`propindex`]: sorted per-(label, attribute) value runs backing the
//!   matcher's predicate pushdown (equality/range probes);
//! - [`plan`]: renaming-invariant plan-cache keys and the per-shape
//!   execution feedback the matcher's planner keeps in memory;
//! - [`builder`]: union-find node unification backing the composition
//!   operator's `unify` semantics (§2.1, §3.4);
//! - [`csr`]: the read-only cache-contiguous CSR adjacency snapshot the
//!   matcher's search/refine/profile kernels run on;
//! - [`par`]: std-only order-preserving parallel map helpers used by the
//!   matcher's multi-threaded execution layer;
//! - [`obs`]: the zero-dependency telemetry layer — one span per phase
//!   feeding the metrics registry, the trace timeline, and `EXPLAIN
//!   ANALYZE` trees.
//!
//! ```
//! use gql_core::{Graph, Tuple};
//!
//! let mut g = Graph::named("G1");
//! let a = g.add_node(Tuple::tagged("author").with("name", "A"));
//! let b = g.add_node(Tuple::tagged("author").with("name", "B"));
//! g.add_edge(a, b, Tuple::new()).unwrap();
//! assert!(g.has_edge(b, a)); // undirected
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod collection;
pub mod csr;
pub mod error;
pub mod fixtures;
pub mod graph;
pub mod intern;
pub mod io;
pub mod iso;
pub mod neighborhood;
pub mod obs;
pub mod op;
pub mod par;
pub mod plan;
pub mod propindex;
pub mod slab;
pub mod stats;
pub mod storage;
pub mod tuple;
pub mod value;

pub use builder::{unify_nodes, unify_nodes_full, UnifyResult, UnionFind};
pub use collection::GraphCollection;
pub use csr::{AdjacencyParts, CsrEntry, CsrGraph, CsrParts, ProfileScratch};
pub use error::{CoreError, Result};
pub use graph::{Edge, EdgeId, Graph, Node, NodeId};
pub use intern::{IdProfile, LabelInterner, IMPOSSIBLE_LABEL, NO_LABEL};
pub use io::{EdgeData, GraphData, NodeData};
pub use neighborhood::{neighborhood_subgraph, NeighborhoodSubgraph, Profile};
pub use obs::explain::ExplainNode;
pub use obs::json::validate_json;
pub use obs::prom::validate_prometheus;
pub use obs::telemetry::{Span, Telemetry};
pub use obs::trace::{ArgValue, TraceEvent};
pub use obs::{Obs, ObsMark, ObsReport, PhaseStats};
pub use op::BinOp;
pub use par::{par_map_index, par_map_index_with, par_map_slice, resolve_threads};
pub use plan::{shape_key, PlanCache, PlanKey, ShapeDesc, ShapeFeedback};
pub use propindex::{ProbeOp, PropIndex, Run};
pub use slab::{pod_bytes, ByteBuffer, OwnedBytes, Pod, Slab};
pub use stats::GraphStats;
pub use storage::{
    decode_collection, decode_graph, encode_collection, encode_graph, encode_graph_data, ByteSink,
    StorageError,
};
pub use tuple::Tuple;
pub use value::Value;
