//! The bulk graph-algebra operators (§3.3): selection, Cartesian
//! product, join, composition, and the set operators.

use crate::compile::CompiledPattern;
use crate::error::Result;
use crate::matched::MatchedGraph;
use crate::template::{instantiate, TemplateEnv};
use gql_core::iso::graph_isomorphic;
use gql_core::{ArgValue, ExplainNode, Graph, GraphCollection, Span};
use gql_match::{match_pattern, GraphIndex, GraphSnapshot, MatchOptions, Planner};
use gql_parser::ast::GraphTemplateAst;
use std::sync::Arc;

/// Selection σ_P(C): matches `pattern` against every graph of `collection`
/// and returns the matched graphs (Definition: `σP(C) = {φP(G) | G ∈ C}`).
///
/// With `opts.exhaustive`, a pattern matching a graph in several places
/// yields several matched graphs, as §3.3 specifies.
///
/// `opts.threads` parallelizes the σ: with several graphs in the
/// collection, one worker per graph (each inner match sequential, to
/// avoid oversubscription); a singleton collection instead spends the
/// whole thread budget inside `match_pattern`. Results come back in
/// collection order either way, so output is identical to a sequential
/// run.
pub fn select(
    pattern: &CompiledPattern,
    collection: &GraphCollection,
    opts: &MatchOptions,
) -> Result<Vec<MatchedGraph>> {
    let indexes = build_collection_indexes(collection, opts);
    select_with_indexes(pattern, collection, &indexes, opts)
}

/// Builds the per-graph [`GraphIndex`]es a σ over `collection` needs
/// (radius-1 profiles, the paper's recommended configuration), using the
/// same worker split as [`select`]. Exposed so the engine can build a
/// collection's indexes once, cache them, and pass them to
/// [`select_with_indexes`] across queries.
///
/// With telemetry in `opts`, runs under an `op.index_build` span and
/// bumps `index.builds` by the number of graphs indexed.
pub fn build_collection_indexes(
    collection: &GraphCollection,
    opts: &MatchOptions,
) -> Vec<Arc<GraphIndex>> {
    let mut span = Span::phase(opts.telemetry.as_deref(), "op.index_build", "algebra");
    let graphs: Vec<&Graph> = collection.iter().collect();
    let workers = gql_core::resolve_threads(opts.threads).min(graphs.len().max(1));
    // Several graphs: one single-threaded build per worker; a singleton
    // collection spends the whole budget inside one parallel build.
    let inner_threads = if workers > 1 { 1 } else { opts.threads };
    let indexes = gql_core::par_map_index(graphs.len(), workers, |i| {
        Arc::new(GraphIndex::build_with_profiles_par(
            graphs[i],
            1,
            inner_threads,
        ))
    });
    span.count("index.builds", indexes.len() as u64);
    span.arg("graphs", ArgValue::UInt(indexes.len() as u64));
    span.finish();
    indexes
}

/// Builds one immutable [`GraphSnapshot`] generation for `collection`:
/// the per-graph indexes of [`build_collection_indexes`] bundled with
/// `planner` and stamped with `generation`. The engine's snapshot cache
/// goes through here; mutations build the *next* generation and swap
/// the `Arc` they hand out, so readers holding the old one keep a
/// consistent view (including any mapped checkpoint pages backing its
/// index slabs).
pub fn build_collection_snapshot(
    collection: &GraphCollection,
    generation: u64,
    planner: Option<Arc<Planner>>,
    opts: &MatchOptions,
) -> Arc<GraphSnapshot> {
    Arc::new(GraphSnapshot::new(
        generation,
        build_collection_indexes(collection, opts),
        planner,
    ))
}

/// σ against an immutable [`GraphSnapshot`]: the snapshot's indexes
/// answer the match and its planner (if any) serves the plan cache —
/// `opts.planner` is ignored in favor of the snapshot's, so every
/// `PlanKey` minted here carries the snapshot's generation. Matches
/// are identical to [`select`]'s.
pub fn select_with_snapshot(
    pattern: &CompiledPattern,
    collection: &GraphCollection,
    snapshot: &GraphSnapshot,
    opts: &MatchOptions,
) -> Result<Vec<MatchedGraph>> {
    let opts = MatchOptions {
        planner: snapshot.planner().cloned(),
        ..opts.clone()
    };
    select_with_indexes(pattern, collection, snapshot.indexes(), &opts)
}

/// [`select`] against prebuilt per-graph indexes (`indexes[i]` built
/// from the i-th graph of `collection` — see
/// [`build_collection_indexes`]). The engine's index cache goes through
/// here; results are identical to [`select`]'s in all configurations.
///
/// With telemetry in `opts` the σ runs under one `op.select` span. With
/// explain on and a [collecting](gql_core::Telemetry::collecting)
/// handle, its `select` tree — one `graph[i]` child per collection
/// member, each carrying that run's `match` tree — is published there
/// for the caller that owns the enclosing span.
pub fn select_with_indexes(
    pattern: &CompiledPattern,
    collection: &GraphCollection,
    indexes: &[Arc<GraphIndex>],
    opts: &MatchOptions,
) -> Result<Vec<MatchedGraph>> {
    let tel = opts.telemetry.as_deref();
    let mut span = Span::phase(tel, "op.select", "algebra");
    let pattern_arc = Arc::new(pattern.clone());
    let graphs: Vec<&Graph> = collection.iter().collect();
    debug_assert_eq!(graphs.len(), indexes.len());
    let workers = gql_core::resolve_threads(opts.threads).min(graphs.len().max(1));
    let inner_opts = if workers > 1 {
        MatchOptions {
            threads: 1,
            ..opts.clone()
        }
    } else {
        opts.clone()
    };
    let mut per_graph: Vec<(Vec<MatchedGraph>, Option<ExplainNode>)> =
        gql_core::par_map_index(graphs.len(), workers, |i| {
            let g = graphs[i];
            // Each graph of the collection gets its own plan-cache /
            // feedback scope: candidate statistics differ per graph, and
            // disjoint scopes keep the concurrent workers' planner
            // traffic deterministic.
            let graph_opts = MatchOptions {
                plan_graph: i as u64,
                ..inner_opts.clone()
            };
            let mut report = match_pattern(&pattern.pattern, g, &indexes[i], &graph_opts);
            let explain = report.explain.take();
            if report.mappings.is_empty() {
                return (Vec::new(), explain);
            }
            let graph_arc = Arc::new(g.clone());
            let matches = report
                .mappings
                .into_iter()
                .zip(report.edge_bindings)
                .map(|(mapping, edges)| MatchedGraph {
                    pattern: Arc::clone(&pattern_arc),
                    graph: Arc::clone(&graph_arc),
                    mapping,
                    edge_mapping: edges,
                })
                .collect();
            (matches, explain)
        });
    if span.recording() {
        let matches: usize = per_graph.iter().map(|(m, _)| m.len()).sum();
        span.arg("graphs", ArgValue::UInt(graphs.len() as u64));
        span.arg("matches", ArgValue::UInt(matches as u64));
    }
    if let Some(t) = tel.filter(|t| t.explains()) {
        for (i, (ms, tree)) in per_graph.iter_mut().enumerate() {
            let mut graph = Span::node(t, "graph").at(i);
            if let Some(name) = graphs[i].name.as_deref() {
                graph.arg("name", ArgValue::Str(name.to_string()));
            }
            graph.arg("matches", ArgValue::UInt(ms.len() as u64));
            graph.child(tree.take());
            span.child(graph.finish());
        }
    }
    let matches = per_graph.into_iter().flat_map(|(m, _)| m).collect();
    span.publish();
    Ok(matches)
}

/// Cartesian product C × D: every output graph is the disjoint union of
/// one graph from each input ("the constituent graphs are unconnected").
pub fn cartesian_product(c: &GraphCollection, d: &GraphCollection) -> GraphCollection {
    let mut out = GraphCollection::new();
    for g1 in c {
        for g2 in d {
            let mut g = g1.clone();
            g.name = None;
            g.append_disjoint(g2);
            out.push(g);
        }
    }
    out
}

/// Valued join C ⋈_P D = σ_P(C × D): product followed by selection on a
/// join pattern (Figure 4.10's `where G1.id = G2.id` shape).
pub fn join(
    c: &GraphCollection,
    d: &GraphCollection,
    pattern: &CompiledPattern,
    opts: &MatchOptions,
) -> Result<Vec<MatchedGraph>> {
    let _span = Span::phase(opts.telemetry.as_deref(), "op.join", "algebra");
    select(pattern, &product(c, d, opts), opts)
}

/// [`cartesian_product`] under an `op.product` span.
pub fn product(c: &GraphCollection, d: &GraphCollection, opts: &MatchOptions) -> GraphCollection {
    let _span = Span::phase(opts.telemetry.as_deref(), "op.product", "algebra");
    cartesian_product(c, d)
}

/// The span ω_T runs under (`op.compose`), for every caller that
/// instantiates templates over σ's matches — algebra expressions and
/// the engine's FLWR bodies alike.
pub fn compose_span(opts: &MatchOptions) -> Span<'_> {
    Span::phase(opts.telemetry.as_deref(), "op.compose", "algebra")
}

/// Primitive composition ω_T(C): instantiates `template` once per
/// matched graph, with the match bound under its pattern's name.
pub fn compose(template: &GraphTemplateAst, matches: &[MatchedGraph]) -> Result<GraphCollection> {
    let mut out = GraphCollection::new();
    for m in matches {
        let name = m.pattern.name.clone().unwrap_or_else(|| "P".to_string());
        let env = TemplateEnv::new().with_param(name, m);
        out.push(instantiate(template, &env)?);
    }
    Ok(out)
}

/// Structural graph equality used by the set operators: exact
/// isomorphism on labels/attributes. (The paper leaves graph identity
/// abstract; isomorphism is the natural set semantics.)
pub fn graph_equal(a: &Graph, b: &Graph) -> bool {
    graph_isomorphic(a, b)
}

/// Union C ∪ D with duplicate elimination by [`graph_equal`].
pub fn union(c: &GraphCollection, d: &GraphCollection) -> GraphCollection {
    let mut out: Vec<Graph> = c.iter().cloned().collect();
    for g in d {
        if !out.iter().any(|h| graph_equal(h, g)) {
            out.push(g.clone());
        }
    }
    // Also dedup within C itself for set semantics.
    let mut dedup: Vec<Graph> = Vec::new();
    for g in out {
        if !dedup.iter().any(|h| graph_equal(h, &g)) {
            dedup.push(g);
        }
    }
    dedup.into()
}

/// Difference C − D.
pub fn difference(c: &GraphCollection, d: &GraphCollection) -> GraphCollection {
    c.iter()
        .filter(|g| !d.iter().any(|h| graph_equal(g, h)))
        .cloned()
        .collect()
}

/// Intersection C ∩ D.
pub fn intersection(c: &GraphCollection, d: &GraphCollection) -> GraphCollection {
    c.iter()
        .filter(|g| d.iter().any(|h| graph_equal(g, h)))
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_pattern_text;
    use gql_core::fixtures::{figure_4_13_dblp, figure_4_16_graph, labeled_path};
    use gql_core::Tuple;

    #[test]
    fn select_over_collection_counts_mappings() {
        let (g, _) = figure_4_16_graph();
        let coll = GraphCollection::from_graph(g);
        let p = compile_pattern_text(
            r#"graph P { node v1 <label="A">; node v2 <label="B">; edge e1 (v1, v2); }"#,
        )
        .unwrap();
        let ms = select(&p, &coll, &MatchOptions::default()).unwrap();
        assert_eq!(ms.len(), 2, "A1-B1 and A2-B2");
        let opts = MatchOptions {
            exhaustive: false,
            ..MatchOptions::default()
        };
        assert_eq!(select(&p, &coll, &opts).unwrap().len(), 1);
    }

    #[test]
    fn select_author_pairs_in_dblp() {
        // The Figure 4.12 pattern finds 1 ordered pair in G1... actually
        // exhaustive selection returns ordered pairs: (A,B),(B,A) in G1
        // and 6 in G2 → 8 total.
        let coll: GraphCollection = figure_4_13_dblp().into();
        let p = compile_pattern_text(
            r#"graph P { node v1 <author>; node v2 <author>; } where P.booktitle="SIGMOD""#,
        )
        .unwrap();
        let ms = select(&p, &coll, &MatchOptions::default()).unwrap();
        assert_eq!(ms.len(), 2 + 6);
    }

    #[test]
    fn parallel_select_is_deterministic() {
        let coll: GraphCollection = figure_4_13_dblp().into();
        let p = compile_pattern_text(
            r#"graph P { node v1 <author>; node v2 <author>; } where P.booktitle="SIGMOD""#,
        )
        .unwrap();
        let seq = select(&p, &coll, &MatchOptions::default()).unwrap();
        assert_eq!(seq.len(), 8);
        for threads in [0, 2, 8] {
            let opts = MatchOptions {
                threads,
                ..MatchOptions::default()
            };
            let par = select(&p, &coll, &opts).unwrap();
            assert_eq!(par.len(), seq.len(), "threads={threads}");
            for (a, b) in par.iter().zip(&seq) {
                assert_eq!(a.mapping, b.mapping);
                assert_eq!(a.edge_mapping, b.edge_mapping);
            }
        }
    }

    /// σ with explain + trace on returns identical matches, publishes a
    /// `select` tree with one `graph[i]` child per collection member to
    /// a collecting handle, and records `op.select` / `op.index_build`
    /// trace events.
    #[test]
    fn select_explain_and_trace_are_equivalent() {
        let coll: GraphCollection = figure_4_13_dblp().into();
        let p = compile_pattern_text(
            r#"graph P { node v1 <author>; node v2 <author>; } where P.booktitle="SIGMOD""#,
        )
        .unwrap();
        let plain = select(&p, &coll, &MatchOptions::default()).unwrap();
        for threads in [1, 2, 8] {
            let tel = gql_core::Telemetry::new().with_tracing().with_explain();
            let tel = Arc::new(tel.collecting());
            let opts = MatchOptions {
                telemetry: Some(Arc::clone(&tel)),
                threads,
                ..MatchOptions::default()
            };
            let indexes = build_collection_indexes(&coll, &opts);
            let ms = select_with_indexes(&p, &coll, &indexes, &opts).unwrap();
            assert_eq!(ms.len(), plain.len(), "threads={threads}");
            for (a, b) in ms.iter().zip(&plain) {
                assert_eq!(a.mapping, b.mapping, "threads={threads}");
            }
            let tree = tel.take_published().expect("explain requested");
            assert_eq!(tree.label, "select");
            assert_eq!(tree.children.len(), coll.len());
            assert!(tree.children.iter().all(|c| c.label.starts_with("graph[")));
            // Each per-graph child carries the match operator subtree.
            assert!(tree.children.iter().all(|c| c.children.len() == 1));
            let names: Vec<String> = tel.events().iter().map(|e| e.name.clone()).collect();
            assert!(names.iter().any(|n| n == "op.select"), "{names:?}");
            assert!(names.iter().any(|n| n == "op.index_build"), "{names:?}");
        }
    }

    /// σ inside a join runs on an ordinary handle: its spans still
    /// record, but no tree is kept for anyone.
    #[test]
    fn join_and_expression_selects_leave_no_tree_behind() {
        let coll: GraphCollection = figure_4_13_dblp().into();
        let p = compile_pattern_text(r#"graph P { node v1 <author>; }"#).unwrap();
        let tel = Arc::new(gql_core::Telemetry::new().with_tracing().with_explain());
        let opts = MatchOptions {
            telemetry: Some(Arc::clone(&tel)),
            ..MatchOptions::default()
        };
        let one: GraphCollection = vec![labeled_path(&["A"])].into();
        assert!(!join(&coll, &one, &p, &opts).unwrap().is_empty());
        assert!(tel.take_published().is_none());
        let names: Vec<String> = tel.events().iter().map(|e| e.name.clone()).collect();
        assert_eq!(names.iter().filter(|n| *n == "op.select").count(), 1);
        assert!(names.iter().any(|n| n == "op.join"), "{names:?}");
    }

    /// σ through a [`GraphSnapshot`] returns the same matches as the
    /// plain path, and the snapshot pins the planner's generation so
    /// plan keys minted against it carry the snapshot epoch.
    #[test]
    fn select_with_snapshot_matches_plain_select() {
        let coll: GraphCollection = figure_4_13_dblp().into();
        let p = compile_pattern_text(
            r#"graph P { node v1 <author>; node v2 <author>; } where P.booktitle="SIGMOD""#,
        )
        .unwrap();
        let opts = MatchOptions::default();
        let plain = select(&p, &coll, &opts).unwrap();
        let planner = Arc::new(Planner::new());
        let snap = build_collection_snapshot(&coll, 3, Some(Arc::clone(&planner)), &opts);
        assert_eq!(snap.generation(), 3);
        assert_eq!(planner.generation(), 3, "snapshot pins the planner epoch");
        let ms = select_with_snapshot(&p, &coll, &snap, &opts).unwrap();
        assert_eq!(ms.len(), plain.len());
        for (a, b) in ms.iter().zip(&plain) {
            assert_eq!(a.mapping, b.mapping);
            assert_eq!(a.edge_mapping, b.edge_mapping);
        }
        assert!(planner.cached_plans() > 0, "σ went through the plan cache");
    }

    #[test]
    fn cartesian_product_shapes() {
        let c: GraphCollection = vec![labeled_path(&["A"]), labeled_path(&["B"])].into();
        let d: GraphCollection = vec![labeled_path(&["C", "D"])].into();
        let prod = cartesian_product(&c, &d);
        assert_eq!(prod.len(), 2);
        let g = prod.get(0).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 1);
        assert!(!g.is_connected());
    }

    #[test]
    fn valued_join_on_graph_attribute() {
        let mut g1 = Graph::named("G1");
        g1.attrs = Tuple::new().with("id", 7);
        g1.add_labeled_node("X");
        let mut g2 = Graph::named("G2");
        g2.attrs = Tuple::new().with("id", 7);
        g2.add_labeled_node("Y");
        let mut g3 = Graph::named("G3");
        g3.attrs = Tuple::new().with("id", 9);
        g3.add_labeled_node("Z");

        // Join condition on the *product* graph's attributes is not
        // expressible through node vars, so use node-level predicates:
        // every node of the pattern binds in the product graph. Here we
        // emulate Figure 4.10 by matching one node from each side with
        // equal `gid` node attributes.
        let mut a = Graph::named("G1");
        a.attrs = Tuple::new().with("id", 7);
        // Instead, test the product+select pipeline over node labels.
        let c: GraphCollection = vec![g1, g3].into();
        let d: GraphCollection = vec![g2].into();
        let p =
            compile_pattern_text(r#"graph J { node a <label="X">; node b <label="Y">; }"#).unwrap();
        let ms = join(&c, &d, &p, &MatchOptions::default()).unwrap();
        assert_eq!(ms.len(), 1, "only G1×G2 contains both X and Y");
    }

    #[test]
    fn set_operators_use_isomorphism() {
        let a = labeled_path(&["A", "B"]);
        let a2 = labeled_path(&["A", "B"]); // isomorphic duplicate
        let b = labeled_path(&["B", "C"]);
        let c: GraphCollection = vec![a.clone(), b.clone()].into();
        let d: GraphCollection = vec![a2.clone()].into();
        assert_eq!(union(&c, &d).len(), 2);
        assert_eq!(difference(&c, &d).len(), 1);
        assert_eq!(intersection(&c, &d).len(), 1);
        assert!(graph_equal(&a, &a2));
        assert!(!graph_equal(&a, &b));
    }

    #[test]
    fn compose_projects_matches() {
        let (g, _) = figure_4_16_graph();
        let coll = GraphCollection::from_graph(g);
        let p = compile_pattern_text(
            r#"graph P { node v1 <label="A">; node v2 <label="B">; edge e1 (v1, v2); }"#,
        )
        .unwrap();
        let ms = select(&p, &coll, &MatchOptions::default()).unwrap();
        let prog = gql_parser::parse_program("T := graph { node n <who=P.v1.label>; };").unwrap();
        let gql_parser::ast::Statement::Assign { template, .. } = &prog.statements[0] else {
            panic!()
        };
        let composed = compose(template, &ms).unwrap();
        assert_eq!(composed.len(), 2);
        for g in &composed {
            assert_eq!(g.node_count(), 1);
        }
    }
}
