//! Interned fast path ≡ seed `Value` path.
//!
//! The matcher's hot kernels were rewritten on interned label ids,
//! signature-carrying id-profiles, and dense bitsets. This suite pins
//! their *observable equivalence* to the seed implementations, which are
//! kept alive as oracles: [`feasible_mates_reference`] (per-candidate
//! `Value` profiles) and [`refine_search_space_reference`] (hashtable
//! kernel) in `support`, and the index-less [`search_indexed`] (no
//! edge-check plan, `Graph` edge probes). Every fixture is
//! run through both pipelines at threads 1/2/8 and compared on
//! mappings, edge bindings, search-space sizes, [`RefineStats`]
//! (including `removed` and `bipartite_checks`), and `search_steps`.

mod support;

use gql_core::fixtures::{figure_4_16_graph, figure_4_16_pattern, labeled_clique, labeled_path};
use gql_core::Graph;
use gql_datagen::{erdos_renyi, subgraph_queries, ErConfig};
use gql_match::{
    match_pattern, search_indexed, search_space_ln, GraphIndex, LocalPruning, MatchOptions,
    Pattern, RefineStats, SearchConfig,
};
use support::{feasible_mates_reference, refine_search_space_reference};

const THREADS: [usize; 3] = [1, 2, 8];

/// The seed pipeline, phase by phase, entirely on `Value`-typed
/// oracles: reference retrieval → reference refinement → plain search
/// in declaration order (fixed order keeps the comparison independent
/// of the cost model's tie-breaking).
struct SeedRun {
    mappings: Vec<Vec<gql_core::NodeId>>,
    edge_bindings: Vec<Vec<gql_core::EdgeId>>,
    local_ln: f64,
    refined_ln: f64,
    refine_stats: RefineStats,
    steps: u64,
}

fn seed_pipeline(pattern: &Pattern, g: &Graph, index: &GraphIndex, level: usize) -> SeedRun {
    let mut mates =
        feasible_mates_reference(pattern, g, index, LocalPruning::Profiles { radius: 1 });
    let local_ln = search_space_ln(&mates);
    let refine_stats = refine_search_space_reference(pattern, g, &mut mates, level);
    let refined_ln = search_space_ln(&mates);
    let order: Vec<usize> = (0..pattern.node_count()).collect();
    let out = search_indexed(pattern, g, None, &mates, &order, &SearchConfig::default());
    SeedRun {
        mappings: out.mappings,
        edge_bindings: out.edge_bindings,
        local_ln,
        refined_ln,
        refine_stats,
        steps: out.steps,
    }
}

/// Runs `match_pattern` (the interned fast path) with a fixed search
/// order and full refinement, then asserts byte-identical observables
/// against the seed pipeline at every thread count.
fn assert_equivalent(pattern: &Pattern, g: &Graph, ctx: &str) {
    let level = pattern.node_count();
    for threads in THREADS {
        let index = GraphIndex::build_with_profiles_par(g, 1, threads);
        let seed = seed_pipeline(pattern, g, &index, level);
        let opts = MatchOptions {
            pruning: LocalPruning::Profiles { radius: 1 },
            optimize_order: false,
            threads,
            ..MatchOptions::default()
        };
        let fast = match_pattern(pattern, g, &index, &opts);
        assert_eq!(
            fast.mappings, seed.mappings,
            "{ctx}: mappings, threads={threads}"
        );
        assert_eq!(
            fast.edge_bindings, seed.edge_bindings,
            "{ctx}: edge bindings, threads={threads}"
        );
        assert_eq!(
            fast.spaces.local_ln, seed.local_ln,
            "{ctx}: local space, threads={threads}"
        );
        assert_eq!(
            fast.spaces.refined_ln, seed.refined_ln,
            "{ctx}: refined space, threads={threads}"
        );
        assert_eq!(
            fast.refine_stats, seed.refine_stats,
            "{ctx}: refine stats, threads={threads}"
        );
        // Exhaustive runs count every extension attempt exactly once,
        // so steps agree across kernels and thread counts.
        assert_eq!(
            fast.search_steps, seed.steps,
            "{ctx}: steps, threads={threads}"
        );
    }
}

#[test]
fn figure_4_16_and_4_18_fixtures_are_equivalent() {
    let (g, _) = figure_4_16_graph();
    let p = Pattern::structural(figure_4_16_pattern());
    assert_equivalent(&p, &g, "figure 4.16 triangle");
}

#[test]
fn labeled_cliques_are_equivalent() {
    let g = labeled_clique(&["A", "B", "C", "D", "A", "B"]);
    for size in [2usize, 3, 4] {
        let labels: Vec<&str> = ["A", "B", "C", "D"][..size].to_vec();
        let p = Pattern::structural(labeled_clique(&labels));
        assert_equivalent(&p, &g, &format!("clique size {size}"));
    }
    // Repeated labels stress injectivity and duplicate candidates.
    let g2 = labeled_clique(&["A"; 7]);
    let p2 = Pattern::structural(labeled_clique(&["A"; 4]));
    assert_equivalent(&p2, &g2, "uniform clique");
}

#[test]
fn paths_and_absent_patterns_are_equivalent() {
    // A triangle query on a path: refinement wipes the space; both
    // kernels must report the same removals on the way down.
    let g = labeled_path(&["A", "B", "C", "A", "B", "C", "A"]);
    let p = Pattern::structural(labeled_clique(&["A", "B", "C"]));
    assert_equivalent(&p, &g, "triangle on path");
    let p2 = Pattern::structural(labeled_path(&["A", "B", "C"]));
    assert_equivalent(&p2, &g, "path on path");
}

#[test]
fn erdos_renyi_graphs_are_equivalent() {
    for (nodes, seed) in [(300usize, 0x5EED0u64), (600, 0x5EED1)] {
        let g = erdos_renyi(&ErConfig::paper_default(nodes, seed));
        for (qi, q) in subgraph_queries(&g, 4, 3, seed ^ 0xFF)
            .into_iter()
            .enumerate()
        {
            let p = Pattern::structural(q);
            assert_equivalent(&p, &g, &format!("ER n={nodes} q{qi}"));
        }
    }
}

#[test]
fn directed_graphs_are_equivalent() {
    let mut g = Graph::new_directed();
    let nodes: Vec<_> = ["A", "B", "C", "A", "B"]
        .iter()
        .map(|l| g.add_labeled_node(*l))
        .collect();
    for (s, d) in [(0usize, 1usize), (1, 2), (2, 0), (3, 4), (4, 2), (0, 3)] {
        g.add_edge(nodes[s], nodes[d], gql_core::Tuple::new())
            .unwrap();
    }
    let mut motif = Graph::new_directed();
    let a = motif.add_labeled_node("A");
    let b = motif.add_labeled_node("B");
    let c = motif.add_labeled_node("C");
    motif.add_edge(a, b, gql_core::Tuple::new()).unwrap();
    motif.add_edge(b, c, gql_core::Tuple::new()).unwrap();
    let p = Pattern::structural(motif);
    assert_equivalent(&p, &g, "directed chain");
}

#[test]
fn mixed_value_labels_are_equivalent() {
    // Non-string labels exercise the interner's Value equality classes
    // (Int(2) and Float(2.0) are equal and must share an id).
    let mut g = Graph::new();
    let mut add = |v: gql_core::Value| g.add_node(gql_core::Tuple::new().with("label", v));
    let n0 = add(2.into());
    let n1 = add(2.0.into());
    let n2 = add("two".into());
    let n3 = add(true.into());
    for (s, d) in [(n0, n1), (n1, n2), (n2, n3), (n3, n0), (n0, n2)] {
        g.add_edge(s, d, gql_core::Tuple::new()).unwrap();
    }
    let mut motif = Graph::new();
    let a = motif.add_node(gql_core::Tuple::new().with("label", 2));
    let b = motif.add_node(gql_core::Tuple::new().with("label", "two"));
    motif.add_edge(a, b, gql_core::Tuple::new()).unwrap();
    let p = Pattern::structural(motif);
    assert_equivalent(&p, &g, "mixed value labels");
}
