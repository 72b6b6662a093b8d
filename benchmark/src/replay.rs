//! The staged replay that gives `Database::execute` its child spans (see
//! [`crate::trace`]), and the independent re-answer the oracle check
//! uses.

use crate::run::Recorder;
use crate::stats::Digest;
use crate::trace::{SpanId, Tracer};
use gql_algebra::{compile_pattern, ops, CompiledPattern, PatternRegistry};
use gql_core::{Graph, NodeId};
use gql_engine::{Database, ExecOutcome};
use gql_match::{
    decide_refine_level, feasible_mates_access_par, feasible_mates_stats_par, match_pattern,
    optimize_order, refine_search_space_csr, search_indexed, GraphIndex, MatchOptions,
    SearchConfig,
};
use gql_parser::ast::{
    FlwrAst, FlwrBody, GraphPatternAst, GraphTemplateAst, PatternRef, Statement,
};
use gql_parser::parse_program;
use std::sync::Arc;

/// Digest of everything a program returned.
pub fn outcome_digest(out: &ExecOutcome) -> Digest {
    Digest::of_graphs(out.returned.iter().flat_map(|c| c.iter()))
}

/// The single `for graph Q {…} … return graph {…}` statement every
/// benchmark program consists of.
fn flwr_parts(flwr: &FlwrAst) -> (&GraphPatternAst, &GraphTemplateAst) {
    let PatternRef::Inline(pattern) = &flwr.pattern else {
        panic!("benchmark programs use inline patterns");
    };
    let FlwrBody::Return(template) = &flwr.body else {
        panic!("benchmark programs use return bodies");
    };
    (pattern, template)
}

fn only_flwr(src: &str) -> FlwrAst {
    let program = parse_program(src).expect("generated program parses");
    match program.statements.into_iter().next() {
        Some(Statement::Flwr(f)) => f,
        _ => panic!("benchmark programs are one FLWR statement"),
    }
}

/// Answers `src` without `Database::execute`, the snapshot's planner, or
/// any of the optimised phases: node-attribute retrieval, no refinement,
/// declaration-order search (`MatchOptions::baseline()`), against
/// indexes the caller supplies.
pub fn baseline_answer(src: &str, db: &Database) -> Digest {
    let flwr = only_flwr(src);
    let (pattern, template) = flwr_parts(&flwr);
    let compiled = compile_pattern(pattern, &PatternRegistry::default()).expect("pattern compiles");
    let collection = db.collection(&flwr.source).expect("collection exists");
    let snapshot = db
        .snapshot(&flwr.source)
        .expect("warm-up built the snapshot");
    let opts = MatchOptions {
        exhaustive: flwr.exhaustive,
        report_baseline_space: false,
        ..MatchOptions::baseline()
    };
    let matches = ops::select_with_indexes(&compiled, collection, snapshot.indexes(), &opts)
        .expect("baseline select runs");
    let out = ops::compose(template, &matches).expect("template instantiates");
    Digest::of_graphs(out.iter())
}

/// `db.execute(src)` as a timed op; in a traced run, followed by the
/// replays that decompose it.
pub fn execute(
    db: &mut Database,
    src: &str,
    source: &str,
    class: &'static str,
    rec: &mut Recorder,
) -> Option<ExecOutcome> {
    let cache_hit = db.snapshot(source).is_some();
    let (out, span) = rec.op(class, "engine.execute", || db.execute(src));
    if let (Some(tracer), Some((op, exec))) = (rec.tracer.as_mut(), span) {
        tracer.count(
            if cache_hit {
                "engine.execute.index_cache_hits"
            } else {
                "engine.execute.index_cache_misses"
            },
            1,
        );
        replay_children(db, src, cache_hit, tracer, op, exec);
    }
    match out {
        Ok(out) => Some(out),
        Err(e) => {
            rec.check(false, || format!("execute failed: {e}"));
            None
        }
    }
}

/// Replays `execute(src)`'s calls into the layers as children of the
/// span `exec`. `cache_hit`: whether that execute found the collection's
/// indexes built (or adoptable) rather than building them.
pub fn replay_children(
    db: &Database,
    src: &str,
    cache_hit: bool,
    t: &mut Tracer,
    op: u32,
    exec: SpanId,
) {
    let (program, _) = t.span("parser.parse", op, Some(exec), || parse_program(src));
    t.count("parser.parse.bytes", src.len() as u64);
    let Ok(program) = program else { return };
    let Some(Statement::Flwr(flwr)) = program.statements.first() else {
        return;
    };
    let (pattern_ast, template) = flwr_parts(flwr);
    let registry = PatternRegistry::default();
    let (compiled, _) = t.span("algebra.compile", op, Some(exec), || {
        compile_pattern(pattern_ast, &registry)
    });
    t.count("algebra.compile.patterns", 1);
    let Ok(compiled) = compiled else { return };

    let collection = db.collection(&flwr.source).expect("execute succeeded");
    let snapshot = Arc::clone(db.snapshot(&flwr.source).expect("execute built it"));
    let mut opts = db.options.clone();
    opts.exhaustive = flwr.exhaustive;
    if !cache_hit {
        // The execute above built this collection's indexes first.
        t.span("matcher.index_build", op, Some(exec), || {
            ops::build_collection_indexes(collection, &opts)
        });
        t.count("matcher.index_build.graphs", collection.len() as u64);
        t.count("matcher.index_build.nodes", collection.total_nodes() as u64);
    }

    let (matches, select) = t.span("algebra.select", op, Some(exec), || {
        ops::select_with_snapshot(&compiled, collection, &snapshot, &opts)
    });
    let matches = matches.expect("select repeats execute's");
    t.count("algebra.select.graphs_visited", collection.len() as u64);
    t.count("algebra.select.graphs_returned", matches.len() as u64);
    replay_match(
        &compiled,
        collection.iter().collect(),
        &snapshot,
        &opts,
        t,
        op,
        select,
    );

    let (composed, _) = t.span("algebra.compose", op, Some(exec), || {
        ops::compose(template, &matches)
    });
    t.count(
        "algebra.compose.graphs",
        composed.map_or(0, |c| c.len()) as u64,
    );
    // The engine drops the matched graphs (each holding the data graph
    // `select` cloned for it) when the statement ends; not a call into a
    // layer, but time `execute` spends and nothing else accounts for.
    t.span("engine.drop_matches", op, Some(exec), || drop(matches));
}

/// `match_pattern` per data graph under `select`, then its four phases
/// under it. Each phase is one span over all graphs of the collection.
fn replay_match(
    compiled: &CompiledPattern,
    graphs: Vec<&Graph>,
    snapshot: &gql_match::GraphSnapshot,
    opts: &MatchOptions,
    t: &mut Tracer,
    op: u32,
    select: SpanId,
) {
    let pattern = &compiled.pattern;
    let indexes: &[Arc<GraphIndex>] = snapshot.indexes();
    // What `select_with_snapshot` hands each `match_pattern` call.
    let graph_opts: Vec<MatchOptions> = (0..graphs.len())
        .map(|i| MatchOptions {
            planner: snapshot.planner().cloned(),
            plan_graph: i as u64,
            ..opts.clone()
        })
        .collect();
    let (reports, plan) = t.span("matcher.plan", op, Some(select), || {
        graphs
            .iter()
            .zip(indexes)
            .zip(&graph_opts)
            .map(|((g, ix), o)| match_pattern(pattern, g, ix, o))
            .collect::<Vec<_>>()
    });
    let hits = reports
        .iter()
        .filter(|r| r.plan.as_ref().is_some_and(|p| p.cache_hit))
        .count();
    t.count("matcher.plan.cache_hits", hits as u64);
    t.count("matcher.plan.cache_misses", (reports.len() - hits) as u64);
    let own_ns: u128 = reports.iter().map(|r| r.timings.total().as_nanos()).sum();
    t.count("matcher.steptimings_ns", own_ns as u64);

    let (mut mates, retrieve) = t.span("matcher.retrieve", op, Some(plan), || {
        graphs
            .iter()
            .zip(indexes)
            .map(|(g, ix)| feasible_mates_access_par(pattern, g, ix, opts.pruning, opts.threads).0)
            .collect::<Vec<Vec<Vec<NodeId>>>>()
    });
    // Counts come from the stats-collecting kernel, run untimed: the
    // timed call above is the branch-free one `execute` uses.
    for (g, ix) in graphs.iter().zip(indexes) {
        let (_, s) = feasible_mates_stats_par(pattern, g, ix, opts.pruning, opts.threads);
        t.count("matcher.retrieve.scanned", s.candidates);
        t.count("matcher.retrieve.kept", s.kept);
    }

    let (level, _) = decide_refine_level(pattern.node_count(), opts.refine, None);
    let (stats, refine) = t.span("matcher.refine", op, Some(plan), || {
        graphs
            .iter()
            .zip(indexes)
            .zip(mates.iter_mut())
            .map(|((g, ix), m)| {
                refine_search_space_csr(pattern, g, ix.csr(), m, level, opts.threads)
            })
            .collect::<Vec<_>>()
    });
    for s in &stats {
        t.count("matcher.refine.checks", s.bipartite_checks);
        t.count("matcher.refine.removed", s.removed);
    }

    // A validated plan-cache hit reuses the stored order; only misses
    // run the optimiser.
    let (orders, order) = t.span("matcher.order", op, Some(plan), || {
        reports
            .iter()
            .zip(indexes)
            .zip(&mates)
            .map(|((r, ix), m)| {
                if r.plan.as_ref().is_some_and(|p| p.cache_hit) {
                    r.order.clone()
                } else {
                    optimize_order(pattern, m, Some(ix.stats()), opts.gamma).order
                }
            })
            .collect::<Vec<_>>()
    });

    let cfg = SearchConfig {
        exhaustive: opts.exhaustive,
        max_matches: opts.max_matches,
        deadline: None,
        threads: opts.threads,
        trace: None,
    };
    let (outcomes, search) = t.span("matcher.search", op, Some(plan), || {
        graphs
            .iter()
            .zip(indexes)
            .zip(mates.iter().zip(&orders))
            .map(|((g, ix), (m, o))| search_indexed(pattern, g, Some(ix), m, o, &cfg))
            .collect::<Vec<_>>()
    });
    for o in &outcomes {
        t.count("matcher.search.steps", o.steps);
        t.count("matcher.search.backtracks", o.backtracks);
        t.count("matcher.search.matches", o.mappings.len() as u64);
    }
    let phases_ns: u64 = [retrieve, refine, order, search]
        .iter()
        .map(|&id| t.duration_ns(id))
        .sum();
    t.count("matcher.phase_spans_ns", phases_ns);
}
