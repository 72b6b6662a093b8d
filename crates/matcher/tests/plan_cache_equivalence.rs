//! Plan cache ≡ no plan cache: with a planner attached — cold cache or
//! hot cache — the pipeline must return results,
//! search effort, refinement counters, and obs counters (minus the
//! planner's own hit/miss accounting) byte-identical to the unplanned
//! path, at every thread count.

use gql_core::fixtures::{figure_4_16_graph, figure_4_16_pattern, labeled_clique};
use gql_core::Graph;
use gql_datagen::{erdos_renyi, subgraph_queries, ErConfig};
use gql_match::{
    match_pattern, GraphIndex, LocalPruning, MatchOptions, MatchReport, Pattern, Planner,
    RefineLevel,
};
use std::sync::Arc;

const THREADS: [usize; 3] = [1, 2, 8];

fn run(pattern: &Pattern, g: &Graph, opts: &MatchOptions, threads: usize) -> MatchReport {
    let index = GraphIndex::build_with_profiles_par(g, 1, threads);
    let opts = MatchOptions {
        threads,
        ..opts.clone()
    };
    match_pattern(pattern, g, &index, &opts)
}

/// Everything a run reports that must be invariant under planning.
fn logical_outputs(rep: &MatchReport) -> impl PartialEq + std::fmt::Debug {
    (
        rep.mappings.clone(),
        rep.edge_bindings.clone(),
        rep.order.clone(),
        rep.search_steps,
        rep.search_backtracks,
        rep.refine_stats.clone(),
        rep.timed_out,
    )
}

/// Warm-vs-cold-vs-unplanned equivalence over one (pattern, graph,
/// options) combination at every thread count.
fn assert_plan_equivalence(pattern: &Pattern, g: &Graph, base: &MatchOptions) {
    let unplanned = run(pattern, g, base, 1);
    for threads in THREADS {
        let planner = Arc::new(Planner::new());
        let opts = MatchOptions {
            planner: Some(Arc::clone(&planner)),
            ..base.clone()
        };
        // Cold (miss + compile), then two hot runs (validated hits).
        let cold = run(pattern, g, &opts, threads);
        assert_eq!(
            logical_outputs(&cold),
            logical_outputs(&unplanned),
            "cold plan, threads={threads}"
        );
        assert!(!cold.plan.as_ref().unwrap().cache_hit);
        for pass in 0..2 {
            let hot = run(pattern, g, &opts, threads);
            assert_eq!(
                logical_outputs(&hot),
                logical_outputs(&unplanned),
                "hot plan, pass={pass}, threads={threads}"
            );
            let info = hot.plan.as_ref().unwrap();
            assert!(info.cache_hit, "pass={pass}, threads={threads}");
            assert!(!info.replanned, "stable sizes never replan");
        }
        let (hits, misses) = planner.cache_stats();
        assert_eq!((hits, misses), (2, 1), "threads={threads}");
    }
}

#[test]
fn figure_4_16_hot_and_cold_plans_agree() {
    let (g, _) = figure_4_16_graph();
    let p = Pattern::structural(figure_4_16_pattern());
    assert_plan_equivalence(&p, &g, &MatchOptions::optimized());
    assert_plan_equivalence(&p, &g, &MatchOptions::baseline());
}

#[test]
fn clique_hot_and_cold_plans_agree() {
    let g = labeled_clique(&["A"; 8]);
    for size in [3usize, 4, 5] {
        let p = Pattern::structural(labeled_clique(&vec!["A"; size][..]));
        assert_plan_equivalence(&p, &g, &MatchOptions::optimized());
    }
}

#[test]
fn erdos_renyi_hot_and_cold_plans_agree() {
    let g = erdos_renyi(&ErConfig::paper_default(400, 0x9A7));
    for q in subgraph_queries(&g, 4, 4, 0xBEEF) {
        let p = Pattern::structural(q);
        assert_plan_equivalence(&p, &g, &MatchOptions::optimized());
    }
}

/// The auto refinement decision: cold behaves like `QuerySize`; once
/// feedback shows zero pruning yield, the second run skips refinement —
/// with identical matches (refinement only removes non-answers).
#[test]
fn auto_refine_skip_preserves_results() {
    let g = labeled_clique(&["A"; 8]);
    let p = Pattern::structural(labeled_clique(&["A"; 4]));
    let reference = run(&p, &g, &MatchOptions::optimized(), 1);
    let planner = Arc::new(Planner::new());
    let opts = MatchOptions {
        refine: RefineLevel::Auto,
        planner: Some(Arc::clone(&planner)),
        ..MatchOptions::optimized()
    };
    let cold = run(&p, &g, &opts, 1);
    assert!(
        !cold.plan.as_ref().unwrap().refine_skipped,
        "cold = paper default"
    );
    assert_eq!(cold.mappings, reference.mappings);
    // A clique-in-clique query refines away nothing, so the recorded
    // yield is 0 < the skip threshold: the hot run skips refinement.
    let hot = run(&p, &g, &opts, 1);
    assert!(hot.plan.as_ref().unwrap().refine_skipped);
    assert_eq!(hot.refine_stats.bipartite_checks, 0, "refinement skipped");
    assert_eq!(hot.mappings, reference.mappings);
    assert_eq!(hot.edge_bindings, reference.edge_bindings);
}

/// Mid-query divergence: warm the cache under `NodeAttributes` pruning,
/// then query under `Profiles`. The plan key ignores the pruning config,
/// so the hit's stored candidate sizes no longer match; the run must
/// recompute its order from the actuals (results identical to the
/// unplanned path), and the entry is re-planned.
#[test]
fn diverged_plans_replan_without_changing_results() {
    // The figure 4.16 triangle plus isolated same-label nodes: node
    // attributes admit 6 candidates per pattern node, profiles 1, 2
    // and 1 — beyond `REPLAN_DIVERGENCE`.
    let (mut g, _) = figure_4_16_graph();
    for label in ["A", "B", "C"] {
        for _ in 0..4 {
            g.add_labeled_node(label);
        }
    }
    let p = Pattern::structural(figure_4_16_pattern());
    let planner = Arc::new(Planner::new());
    let opts = |pruning| MatchOptions {
        pruning,
        refine: RefineLevel::Off,
        planner: Some(Arc::clone(&planner)),
        ..MatchOptions::default()
    };
    // Warm with the larger NodeAttributes candidate sets.
    let warm = run(&p, &g, &opts(LocalPruning::NodeAttributes), 1);
    assert!(!warm.plan.as_ref().unwrap().cache_hit);
    // Hit with Profiles: same key, much smaller observed sizes.
    let opts = opts(LocalPruning::Profiles { radius: 1 });
    let unplanned = run(
        &p,
        &g,
        &MatchOptions {
            planner: None,
            ..opts.clone()
        },
        1,
    );
    let diverged = run(&p, &g, &opts, 1);
    let info = diverged.plan.as_ref().unwrap();
    assert!(info.cache_hit);
    assert!(info.replanned, "sizes shrank beyond REPLAN_DIVERGENCE");
    assert_eq!(diverged.mappings, unplanned.mappings);
    assert_eq!(diverged.order, unplanned.order);
    assert_eq!(diverged.search_steps, unplanned.search_steps);
    // The adapted entry now expects the Profiles sizes: the next
    // Profiles run is a validated hit with no replan.
    let settled = run(&p, &g, &opts, 1);
    let info = settled.plan.as_ref().unwrap();
    assert!(info.cache_hit && !info.replanned);
    assert_eq!(settled.mappings, unplanned.mappings);
}

/// Obs counters with a planner attached must equal the unplanned run's
/// counters exactly, once the planner's own `planner.*` accounting is
/// set aside — and the planner counters themselves must be identical at
/// every thread count.
#[test]
fn obs_counters_match_unplanned_modulo_planner_accounting() {
    let g = erdos_renyi(&ErConfig::paper_default(400, 0xC0DE));
    let queries = subgraph_queries(&g, 4, 4, 0xC0DE ^ 1);
    let profile = |threads: usize, with_planner: bool| {
        let obs = gql_core::Obs::new();
        let planner = with_planner.then(|| Arc::new(Planner::new()));
        let opts = MatchOptions {
            telemetry: Some(std::sync::Arc::new(
                gql_core::Telemetry::new().with_obs(obs.clone()),
            )),
            planner: planner.clone(),
            ..MatchOptions::optimized()
        };
        for _ in 0..2 {
            for q in &queries {
                let p = Pattern::structural(q.clone());
                run(&p, &g, &opts, threads);
            }
        }
        obs.report().counters
    };
    let strip = |counters: &[(String, u64)]| -> Vec<(String, u64)> {
        counters
            .iter()
            .filter(|(k, _)| !k.starts_with("planner."))
            .cloned()
            .collect()
    };
    let unplanned = profile(1, false);
    assert!(unplanned.iter().all(|(k, _)| !k.starts_with("planner.")));
    let planned_seq = profile(1, true);
    assert_eq!(strip(&planned_seq), strip(&unplanned));
    let hits = planned_seq
        .iter()
        .find(|(k, _)| k == "planner.cache.hits")
        .map(|(_, v)| *v)
        .unwrap_or(0);
    assert!(hits >= queries.len() as u64, "second pass hits the cache");
    for threads in THREADS {
        let planned = profile(threads, true);
        assert_eq!(planned, planned_seq, "threads={threads}");
    }
}
