//! Shared workload setup for the §5 experiments.

use gql_core::Graph;
use gql_datagen::{
    clique_queries, erdos_renyi, ppi_network, subgraph_queries, ErConfig, PpiConfig,
};
use gql_match::{
    match_pattern, GraphIndex, LocalPruning, MatchOptions, MatchReport, Pattern, RefineLevel,
};
use std::time::Duration;

/// The paper's >1000-hit termination threshold.
pub const MAX_HITS: usize = 1000;
/// The low/high-hits split (<100 answers is "low hits").
pub const LOW_HITS: usize = 100;

/// A prepared data graph with all index variants the experiments need.
pub struct Workload {
    /// The data graph.
    pub graph: Graph,
    /// Index with radius-1 profiles and neighborhood subgraphs.
    pub index: GraphIndex,
}

impl Workload {
    /// Builds the synthetic yeast-PPI workload (§5.1).
    pub fn ppi() -> Self {
        let graph = ppi_network(&PpiConfig::default());
        let index = GraphIndex::build_full(&graph, 1);
        Workload { graph, index }
    }

    /// Builds an Erdős–Rényi workload with `n` nodes, `m = 5n` (§5.2).
    pub fn synthetic(n: usize, seed: u64) -> Self {
        let graph = erdos_renyi(&ErConfig::paper_default(n, seed));
        let index = GraphIndex::build_full(&graph, 1);
        Workload { graph, index }
    }

    /// Like [`Workload::synthetic`] but without materialized
    /// neighborhood subgraphs (for the large graph sizes of Fig 4.23b,
    /// where only profiles are needed).
    pub fn synthetic_light(n: usize, seed: u64) -> Self {
        let graph = erdos_renyi(&ErConfig::paper_default(n, seed));
        let index = GraphIndex::build_with_profiles(&graph, 1);
        Workload { graph, index }
    }

    /// Clique queries of `size` over this graph's top-40 labels.
    pub fn cliques(&self, size: usize, count: usize, seed: u64) -> Vec<Graph> {
        clique_queries(&self.graph, size, count, seed)
    }

    /// Random connected-subgraph queries of `size` nodes.
    pub fn subgraphs(&self, size: usize, count: usize, seed: u64) -> Vec<Graph> {
        subgraph_queries(&self.graph, size, count, seed)
    }

    /// Runs a query under `opts` with the experiment limits applied
    /// (1000-hit cap, optional time limit).
    pub fn run(&self, query: &Graph, opts: &MatchOptions) -> MatchReport {
        let mut opts = opts.clone();
        opts.max_matches = MAX_HITS + 1;
        if opts.time_limit.is_none() {
            opts.time_limit = Some(Duration::from_secs(10));
        }
        let pattern = Pattern::structural(query.clone());
        match_pattern(&pattern, &self.graph, &self.index, &opts)
    }

    /// Number of answers, classifying the query: `None` means no
    /// answers (excluded from statistics, as in the paper).
    pub fn classify(&self, query: &Graph) -> Option<HitClass> {
        let rep = self.run(query, &MatchOptions::optimized());
        let hits = rep.mappings.len();
        if hits == 0 {
            None
        } else if hits < LOW_HITS {
            Some(HitClass::Low)
        } else {
            Some(HitClass::High)
        }
    }
}

/// Low-hits (<100) vs high-hits (≥100) query classes of §5.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitClass {
    /// Fewer than 100 answers.
    Low,
    /// 100 or more answers (capped at 1000).
    High,
}

/// All pruning configurations the figures compare.
pub struct Configs;

impl Configs {
    /// "Retrieve by profiles" (radius 1).
    pub fn profiles() -> MatchOptions {
        MatchOptions {
            pruning: LocalPruning::Profiles { radius: 1 },
            refine: RefineLevel::Off,
            optimize_order: false,
            ..MatchOptions::default()
        }
    }

    /// "Retrieve by subgraphs" (radius 1).
    pub fn subgraphs() -> MatchOptions {
        MatchOptions {
            pruning: LocalPruning::Subgraphs { radius: 1 },
            refine: RefineLevel::Off,
            optimize_order: false,
            ..MatchOptions::default()
        }
    }

    /// "Refined search space": profiles + query-size refinement.
    pub fn refined() -> MatchOptions {
        MatchOptions {
            pruning: LocalPruning::Profiles { radius: 1 },
            refine: RefineLevel::QuerySize,
            optimize_order: false,
            ..MatchOptions::default()
        }
    }

    /// The "Optimized" pipeline (profiles + refine + ordered search).
    pub fn optimized() -> MatchOptions {
        MatchOptions::optimized()
    }

    /// The "Baseline" pipeline (node attributes, unordered search).
    pub fn baseline() -> MatchOptions {
        MatchOptions::baseline()
    }
}

/// Geometric-mean helper over log10 ratios (the figures plot mean
/// reduction ratios on a log scale).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Formats a `log10`-ratio for tables (e.g. `1e-12.3`).
pub fn fmt_ratio(log10: f64) -> String {
    if log10.is_nan() {
        "-".into()
    } else {
        format!("1e{log10:.1}")
    }
}

/// SQL-baseline runner: translate the query to Figure 4.2 SQL and
/// execute against V/E tables with per-column indexes.
pub struct SqlWorkload {
    db: gql_relational::RelDatabase,
}

impl SqlWorkload {
    /// Loads the graph into relational tables.
    pub fn new(g: &Graph) -> Self {
        SqlWorkload {
            db: gql_relational::graph_to_database(g).expect("graph fits in tables"),
        }
    }

    /// Runs a pattern via SQL; returns `(answer count, seconds, timed out)`.
    pub fn run(&self, query: &Graph, time_limit: Duration) -> (usize, f64, bool) {
        let sql = gql_relational::pattern_to_sql(query);
        let limits = gql_relational::ExecLimits {
            max_rows: MAX_HITS + 1,
            deadline: Some(std::time::Instant::now() + time_limit),
        };
        let t = std::time::Instant::now();
        let res = self
            .db
            .query(&sql, &limits)
            .expect("generated SQL is valid");
        (res.rows.len(), t.elapsed().as_secs_f64(), res.timed_out)
    }
}
