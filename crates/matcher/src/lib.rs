//! # gql-match — access methods for the selection operator
//!
//! Implements §4 of *"Graphs-at-a-time"* (He & Singh, SIGMOD 2008):
//! graph pattern matching over large graphs, accelerated by
//!
//! 1. **local pruning** with neighborhood subgraphs and profiles
//!    ([`feasible`], §4.2),
//! 2. **joint reduction** of the whole search space by pseudo subgraph
//!    isomorphism ([`refine`], Algorithm 4.2, §4.3), and
//! 3. **search-order optimization** under a graph-specific cost model
//!    ([`order`], §4.4).
//!
//! The entry point is [`match_pattern`], which runs the full pipeline
//! with per-phase instrumentation; [`MatchOptions::baseline`] /
//! [`MatchOptions::optimized`] correspond to the configurations compared
//! in the paper's experiments.
//!
//! There is one pipeline. [`MatchOptions`] carries the paper's four
//! experiment knobs (pruning mode, refine level, order optimisation, γ
//! mode) plus run limits, threads and telemetry sinks — nothing that
//! selects between implementations of the same answer. Each phase has
//! one kernel, also callable on its own: [`feasible_mates_access_par`]
//! (and [`feasible_mates_stats_par`], the same body monomorphised over
//! a counting sink; [`feasible_mates`] is the sequential shorthand),
//! [`refine_search_space_csr`], [`optimize_order`] and
//! [`search_indexed`]. The kernels read the data graph's adjacency only
//! through the [`GraphIndex`]'s CSR snapshot. The seed's `Value`-typed
//! kernels are kept as equivalence oracles outside the library, in
//! `tests/support`; `search_indexed(.., None, ..)` is the index-less
//! oracle form of the search.
//!
//! ```
//! use gql_core::fixtures::{figure_4_16_graph, figure_4_16_pattern};
//! use gql_match::{match_pattern, GraphIndex, MatchOptions, Pattern};
//!
//! let (g, _) = figure_4_16_graph();
//! let pattern = Pattern::structural(figure_4_16_pattern());
//! let index = GraphIndex::build_with_profiles(&g, 1);
//! let report = match_pattern(&pattern, &g, &index, &MatchOptions::optimized());
//! assert_eq!(report.mappings.len(), 1); // the single A-B-C triangle
//! ```

#![warn(missing_docs)]

pub mod bipartite;
pub mod expr;
pub mod feasible;
pub mod index;
pub mod matcher;
pub mod order;
pub mod pattern;
pub mod plan;
pub mod refine;
pub mod search;
pub mod snapshot;

pub use expr::{BinOp, EvalCtx, EvalResult, Expr};
pub use feasible::{
    estimated_access, feasible_mates, feasible_mates_access_par, feasible_mates_stats_par,
    reduction_ratio, search_space_ln, AccessPath, LocalPruning, RetrieveAccess, RetrieveStats,
};
pub use index::{GraphIndex, IndexOptions, IndexParts};
pub use matcher::{
    match_pattern, MatchOptions, MatchReport, PlanInfo, RefineLevel, SpaceReport, StepTimings,
};
pub use order::{cost_of_order, estimate_join_sizes, optimize_order, GammaMode, SearchOrder};
pub use pattern::Pattern;
pub use plan::{
    decide_refine_level, diverges, options_fingerprint, pattern_shape, plan_key, CompiledPlan,
    Planner, REFINE_SKIP_YIELD, REPLAN_DIVERGENCE,
};
pub use refine::{estimated_refine_cost, refine_search_space_csr, RefineStats};
pub use search::{search_indexed, EdgeChecks, SearchConfig, SearchOutcome};
pub use snapshot::GraphSnapshot;
