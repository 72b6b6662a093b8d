//! Parallel ≡ sequential: the work-partitioned search driver must
//! return byte-identical results (same mapping sets AND the same
//! order) for every thread count, including under early-exit caps.

use gql_core::fixtures::{figure_4_16_graph, figure_4_16_pattern, labeled_clique};
use gql_core::Graph;
use gql_datagen::{erdos_renyi, subgraph_queries, ErConfig};
use gql_match::{
    feasible_mates, match_pattern, search_indexed, GraphIndex, LocalPruning, MatchOptions, Pattern,
    SearchConfig,
};
use std::time::{Duration, Instant};

const THREADS: [usize; 3] = [1, 2, 8];

/// Runs the full pipeline at a given thread count.
fn run(
    pattern: &Pattern,
    g: &Graph,
    opts: &MatchOptions,
    threads: usize,
) -> gql_match::MatchReport {
    let index = GraphIndex::build_with_profiles_par(g, 1, threads);
    let opts = MatchOptions {
        threads,
        ..opts.clone()
    };
    match_pattern(pattern, g, &index, &opts)
}

/// Asserts every thread count reproduces the threads=1 report exactly.
fn assert_deterministic(pattern: &Pattern, g: &Graph, opts: &MatchOptions) {
    let seq = run(pattern, g, opts, 1);
    for threads in THREADS {
        let par = run(pattern, g, opts, threads);
        assert_eq!(par.mappings, seq.mappings, "mappings, threads={threads}");
        assert_eq!(
            par.edge_bindings, seq.edge_bindings,
            "edge bindings, threads={threads}"
        );
        assert_eq!(par.order, seq.order, "search order, threads={threads}");
        assert_eq!(par.timed_out, seq.timed_out, "timeout, threads={threads}");
    }
}

#[test]
fn figure_4_16_pipeline_is_deterministic() {
    let (g, _) = figure_4_16_graph();
    let p = Pattern::structural(figure_4_16_pattern());
    assert_deterministic(&p, &g, &MatchOptions::optimized());
    assert_deterministic(&p, &g, &MatchOptions::baseline());
}

#[test]
fn figure_4_17_pruning_variants_are_deterministic() {
    let (g, _) = figure_4_16_graph();
    let p = Pattern::structural(figure_4_16_pattern());
    for pruning in [
        LocalPruning::NodeAttributes,
        LocalPruning::Profiles { radius: 1 },
        LocalPruning::Subgraphs { radius: 1 },
    ] {
        let opts = MatchOptions {
            pruning,
            ..MatchOptions::default()
        };
        assert_deterministic(&p, &g, &opts);
    }
}

#[test]
fn clique_queries_are_deterministic() {
    let g = labeled_clique(&["A"; 8]);
    for size in [3usize, 4, 5] {
        let p = Pattern::structural(labeled_clique(&vec!["A"; size][..]));
        assert_deterministic(&p, &g, &MatchOptions::optimized());
    }
}

#[test]
fn erdos_renyi_queries_are_deterministic() {
    let g = erdos_renyi(&ErConfig::paper_default(600, 0xD5EED));
    for q in subgraph_queries(&g, 5, 4, 0xD5EED ^ 1) {
        let p = Pattern::structural(q);
        assert_deterministic(&p, &g, &MatchOptions::optimized());
    }
}

#[test]
fn max_matches_cap_is_deterministic_under_parallelism() {
    let g = labeled_clique(&["A"; 8]);
    let p = Pattern::structural(labeled_clique(&["A"; 4]));
    // 8P4 = 1680 embeddings; caps below, at, and above chunk sizes.
    for cap in [1usize, 5, 17, 100, 1680, 5000] {
        let opts = MatchOptions {
            max_matches: cap,
            ..MatchOptions::optimized()
        };
        assert_deterministic(&p, &g, &opts);
        let seq = run(&p, &g, &opts, 1);
        assert_eq!(seq.mappings.len(), cap.min(1680));
    }
}

#[test]
fn first_match_mode_is_deterministic_under_parallelism() {
    let g = labeled_clique(&["A"; 8]);
    let p = Pattern::structural(labeled_clique(&["A"; 4]));
    let opts = MatchOptions {
        exhaustive: false,
        ..MatchOptions::optimized()
    };
    assert_deterministic(&p, &g, &opts);
    assert_eq!(run(&p, &g, &opts, 8).mappings.len(), 1);
}

#[test]
fn deadline_propagates_across_workers() {
    // A worst-case unlabeled clique-in-clique search that cannot finish
    // in the budget: every worker must observe the shared stop flag and
    // return promptly with `timed_out`.
    let g = labeled_clique(&["A"; 24]);
    let p = Pattern::structural(labeled_clique(&["A"; 16]));
    let index = GraphIndex::build(&g);
    let mates = feasible_mates(&p, &g, &index, LocalPruning::NodeAttributes);
    let order: Vec<usize> = (0..p.node_count()).collect();
    for threads in [2, 8] {
        let cfg = SearchConfig {
            deadline: Some(Instant::now() + Duration::from_millis(30)),
            threads,
            ..SearchConfig::default()
        };
        let t = Instant::now();
        let out = search_indexed(&p, &g, Some(&index), &mates, &order, &cfg);
        assert!(out.timed_out, "threads={threads}");
        assert!(
            t.elapsed() < Duration::from_secs(5),
            "stop flag failed to propagate (threads={threads}, took {:?})",
            t.elapsed()
        );
    }
}

#[test]
fn profiled_counters_are_identical_across_thread_counts() {
    // The obs sink records logical pipeline quantities (candidates,
    // rejections, refinement removals, search steps), not timings, so
    // an exhaustive run must produce byte-identical counter tables at
    // any thread count. Histogram (phase) *durations* are wall-clock
    // and excluded; their counts are still deterministic.
    let g = erdos_renyi(&ErConfig::paper_default(600, 0xD5EED));
    let queries = subgraph_queries(&g, 5, 4, 0xD5EED ^ 2);
    let profile = |threads: usize| {
        let obs = gql_core::Obs::new();
        let opts = MatchOptions {
            telemetry: Some(std::sync::Arc::new(
                gql_core::Telemetry::new().with_obs(obs.clone()),
            )),
            ..MatchOptions::optimized()
        };
        for q in &queries {
            let p = Pattern::structural(q.clone());
            run(&p, &g, &opts, threads);
        }
        let report = obs.report();
        let phase_counts: Vec<(String, u64)> = report
            .phases
            .iter()
            .map(|(name, p)| (name.clone(), p.count))
            .collect();
        (report.counters, phase_counts)
    };
    let seq = profile(1);
    assert!(!seq.0.is_empty(), "counters were recorded");
    for threads in THREADS {
        let par = profile(threads);
        assert_eq!(par.0, seq.0, "counters, threads={threads}");
        assert_eq!(par.1, seq.1, "phase counts, threads={threads}");
    }
}

#[test]
fn trace_and_explain_are_deterministic_across_thread_counts() {
    // With tracing and EXPLAIN on, the logical outputs
    // — mappings, steps, backtracks, refine levels, and every
    // cardinality annotated on the operator tree — must match the
    // uninstrumented threads=1 run exactly. Only wall-clock props
    // (which the comparison strips) may differ.
    let g = erdos_renyi(&ErConfig::paper_default(600, 0xD5EED));
    let queries = subgraph_queries(&g, 5, 4, 0xD5EED ^ 3);
    let strip_times = |node: &gql_core::ExplainNode| {
        fn walk(n: &gql_core::ExplainNode, out: &mut Vec<(String, String, String)>) {
            for (k, v) in &n.props {
                if k != "ms" && !k.ends_with("_ms") {
                    out.push((n.label.clone(), k.clone(), format!("{v:?}")));
                }
            }
            for c in &n.children {
                walk(c, out);
            }
        }
        let mut out = Vec::new();
        walk(node, &mut out);
        out
    };
    for q in &queries {
        let p = Pattern::structural(q.clone());
        let plain = run(&p, &g, &MatchOptions::optimized(), 1);
        let mut baseline_tree = None;
        for threads in THREADS {
            let tel = std::sync::Arc::new(gql_core::Telemetry::new().with_tracing().with_explain());
            let opts = MatchOptions {
                telemetry: Some(tel.clone()),
                ..MatchOptions::optimized()
            };
            let rep = run(&p, &g, &opts, threads);
            assert_eq!(rep.mappings, plain.mappings, "mappings, threads={threads}");
            assert_eq!(rep.search_steps, plain.search_steps, "threads={threads}");
            assert_eq!(
                rep.search_backtracks, plain.search_backtracks,
                "threads={threads}"
            );
            assert!(!tel.events().is_empty(), "trace events recorded");
            gql_core::validate_json(&tel.render_chrome_json()).unwrap();
            let tree = strip_times(rep.explain.as_ref().expect("explain tree"));
            match &baseline_tree {
                None => baseline_tree = Some(tree),
                Some(b) => assert_eq!(&tree, b, "explain cardinalities, threads={threads}"),
            }
        }
    }
}

#[test]
fn planner_pipeline_is_deterministic_across_thread_counts() {
    // Plan cache, feedback statistics, and adaptivity all enabled: the
    // repeated-query workload (cold compile, then validated hits, with
    // the auto refinement decision flipping as feedback accumulates)
    // must reproduce the unplanned threads=1 mappings and match order
    // exactly at every thread count — including the planner's own
    // counters, which are logical, not timing-derived.
    let g = erdos_renyi(&ErConfig::paper_default(600, 0xD5EED));
    let queries = subgraph_queries(&g, 5, 4, 0xD5EED ^ 4);
    type Outputs = Vec<(
        Vec<Vec<gql_core::NodeId>>,
        Vec<Vec<gql_core::EdgeId>>,
        Vec<usize>,
    )>;
    let run_sequence = |threads: usize| -> (Outputs, Vec<(String, u64)>) {
        let planner = std::sync::Arc::new(gql_match::Planner::new());
        let obs = gql_core::Obs::new();
        let opts = MatchOptions {
            planner: Some(planner.clone()),
            refine: gql_match::RefineLevel::Auto,
            telemetry: Some(std::sync::Arc::new(
                gql_core::Telemetry::new().with_obs(obs.clone()),
            )),
            ..MatchOptions::optimized()
        };
        let mut outputs = Vec::new();
        for _ in 0..3 {
            for q in &queries {
                let p = Pattern::structural(q.clone());
                let rep = run(&p, &g, &opts, threads);
                outputs.push((rep.mappings, rep.edge_bindings, rep.order));
            }
        }
        let (hits, misses) = planner.cache_stats();
        assert!(hits >= queries.len() as u64, "threads={threads}");
        assert!(misses >= queries.len() as u64, "first pass misses");
        (outputs, obs.report().counters)
    };
    let (seq_out, seq_counters) = run_sequence(1);
    assert!(seq_counters
        .iter()
        .any(|(k, v)| k == "planner.cache.hits" && *v > 0));
    // Correctness: every pass's mapping *set* equals the unplanned
    // run's (the auto refinement decision may legally change the
    // enumeration order between passes; it can never change the set).
    for (i, q) in queries.iter().enumerate() {
        let p = Pattern::structural(q.clone());
        let mut expected = run(&p, &g, &MatchOptions::optimized(), 1).mappings;
        expected.sort();
        for pass in 0..3 {
            let mut got = seq_out[pass * queries.len() + i].0.clone();
            got.sort();
            assert_eq!(got, expected, "mapping set, pass={pass}, query={i}");
        }
    }
    // Determinism: the whole warm-up trajectory — outputs, planner
    // decisions, and every logical counter — is identical at any
    // thread count.
    for threads in THREADS {
        let (par_out, par_counters) = run_sequence(threads);
        assert_eq!(par_out, seq_out, "outputs, threads={threads}");
        assert_eq!(par_counters, seq_counters, "counters, threads={threads}");
    }
}

#[test]
fn raw_search_layer_is_deterministic() {
    // Exercise `search_indexed` directly (bypassing match_pattern) so chunking
    // edge cases — more workers than roots, one root, empty mates —
    // are covered.
    let g = labeled_clique(&["A", "A", "B", "B", "A"]);
    let p = Pattern::structural(labeled_clique(&["A", "B"]));
    let index = GraphIndex::build(&g);
    let mates = feasible_mates(&p, &g, &index, LocalPruning::NodeAttributes);
    let order: Vec<usize> = (0..p.node_count()).collect();
    let seq = search_indexed(
        &p,
        &g,
        Some(&index),
        &mates,
        &order,
        &SearchConfig::default(),
    );
    for threads in [0, 2, 8, 64] {
        let cfg = SearchConfig {
            threads,
            ..SearchConfig::default()
        };
        let par = search_indexed(&p, &g, Some(&index), &mates, &order, &cfg);
        assert_eq!(par.mappings, seq.mappings, "threads={threads}");
        assert_eq!(par.edge_bindings, seq.edge_bindings);
    }
}
