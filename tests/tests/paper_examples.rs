//! End-to-end reproductions of every worked example in the paper,
//! spanning parser → algebra → matcher → engine.

use gql_algebra::{compile_pattern_text, ops};
use gql_core::fixtures::*;
use gql_core::{GraphCollection, Value};
use gql_engine::Database;
use gql_match::{feasible_mates, match_pattern, GraphIndex, LocalPruning, MatchOptions, Pattern};
use gql_relational::{graph_to_database, pattern_to_sql, ExecLimits};

/// Figure 4.1 / Figure 4.2: the sample query has exactly one answer,
/// found identically by the graph matcher and the SQL pipeline.
#[test]
fn figure_4_1_sample_query_all_paths_agree() {
    let (g, ids) = figure_4_16_graph();
    let p = Pattern::structural(figure_4_16_pattern());

    let idx = GraphIndex::build_with_profiles(&g, 1);
    let rep = match_pattern(&p, &g, &idx, &MatchOptions::optimized());
    assert_eq!(rep.mappings.len(), 1);
    assert_eq!(rep.mappings[0], vec![ids[0], ids[2], ids[5]]);

    let sql_db = graph_to_database(&g).unwrap();
    let sql = pattern_to_sql(&p.graph);
    let rows = sql_db.query(&sql, &ExecLimits::default()).unwrap().rows;
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0], vec![Value::Int(0), Value::Int(2), Value::Int(5)]);
}

/// §1.2: "nodes A2 and C1 in G can be safely pruned since they have only
/// one neighbor. Node B2 can also be pruned after A2 is pruned."
#[test]
fn section_1_2_pruning_narrative() {
    let (g, ids) = figure_4_16_graph();
    let p = Pattern::structural(figure_4_16_pattern());
    let idx = GraphIndex::build(&g);
    let mut mates = feasible_mates(&p, &g, &idx, LocalPruning::NodeAttributes);
    gql_match::refine_search_space_csr(&p, &g, idx.csr(), &mut mates, p.node_count(), 1);
    assert!(!mates[0].contains(&ids[1]), "A2 pruned");
    assert!(!mates[2].contains(&ids[4]), "C1 pruned");
    assert!(!mates[1].contains(&ids[3]), "B2 pruned after A2");
}

/// Figure 4.8/4.9: pattern-to-graph binding Φ(P.v1) → G.v2,
/// Φ(P.v2) → G.v1.
#[test]
fn figure_4_9_binding_through_selection() {
    let p =
        compile_pattern_text(r#"graph P { node v1; node v2; } where v1.name="A" and v2.year>2000"#)
            .unwrap();
    let coll = GraphCollection::from_graph(figure_4_7_paper());
    let ms = ops::select(&p, &coll, &MatchOptions::optimized()).unwrap();
    assert_eq!(ms.len(), 1);
    assert_eq!(ms[0].node_attr("v1", "name"), Some(&Value::Str("A".into())));
    assert_eq!(ms[0].node_attr("v2", "year"), Some(&Value::Int(2006)));
}

/// Figure 4.13: the executed co-authorship query produces, step by
/// step, the final graph {A,B,C,D} with edges A–B, C–D, C–A, D–A.
#[test]
fn figure_4_13_execution_trace_final_state() {
    let mut db = Database::new();
    db.add_collection("DBLP", figure_4_13_dblp().into());
    db.execute(
        r#"
        graph P { node v1 <author>; node v2 <author>; };
        C := graph {};
        for P exhaustive in doc("DBLP")
        let C := graph {
            graph C;
            node P.v1, P.v2;
            edge e1 (P.v1, P.v2);
            unify P.v1, C.v1 where P.v1.name=C.v1.name;
            unify P.v2, C.v2 where P.v2.name=C.v2.name;
        };
    "#,
    )
    .unwrap();
    let c = db.var("C").unwrap();
    assert_eq!(c.node_count(), 4);
    assert_eq!(c.edge_count(), 4);
    let deg_by_name = |n: &str| {
        let v = c
            .nodes()
            .find(|(_, node)| node.attrs.get("name") == Some(&Value::Str(n.into())))
            .unwrap()
            .0;
        c.degree(v)
    };
    assert_eq!(deg_by_name("A"), 3);
    assert_eq!(deg_by_name("B"), 1);
    assert_eq!(deg_by_name("C"), 2);
    assert_eq!(deg_by_name("D"), 2);
}

/// Figure 4.17: the three retrieval strategies yield exactly the spaces
/// printed in the paper.
#[test]
fn figure_4_17_search_spaces() {
    let (g, ids) = figure_4_16_graph();
    let p = Pattern::structural(figure_4_16_pattern());
    let idx = GraphIndex::build_full(&g, 1);
    let by_nodes = feasible_mates(&p, &g, &idx, LocalPruning::NodeAttributes);
    assert_eq!(by_nodes[0], vec![ids[0], ids[1]]);
    assert_eq!(by_nodes[1], vec![ids[2], ids[3]]);
    assert_eq!(by_nodes[2], vec![ids[4], ids[5]]);
    let by_sub = feasible_mates(&p, &g, &idx, LocalPruning::Subgraphs { radius: 1 });
    assert_eq!(by_sub, vec![vec![ids[0]], vec![ids[2]], vec![ids[5]]]);
    let by_prof = feasible_mates(&p, &g, &idx, LocalPruning::Profiles { radius: 1 });
    assert_eq!(
        by_prof,
        vec![vec![ids[0]], vec![ids[2], ids[3]], vec![ids[5]]]
    );
}

/// Figure 4.19 / §4.4: the cost model prefers (A ⋈ C) ⋈ B.
#[test]
fn figure_4_19_search_order() {
    use gql_core::NodeId;
    use gql_match::{cost_of_order, optimize_order, GammaMode};
    let p = Pattern::structural(figure_4_16_pattern());
    let mates = vec![vec![NodeId(0)], vec![NodeId(2), NodeId(3)], vec![NodeId(5)]];
    let mode = GammaMode::Constant(0.5);
    let acb = cost_of_order(&p, &mates, &[0, 2, 1], None, mode);
    let abc = cost_of_order(&p, &mates, &[0, 1, 2], None, mode);
    assert!(acb < abc);
    let greedy = optimize_order(&p, &mates, None, mode);
    assert_eq!(greedy.order[2], 1, "B last in the greedy plan");
}

/// §3.5 Theorem 4.6 (GraphQL ⊆ Datalog): matcher and Datalog agree on
/// the Figure 4.16 workload.
#[test]
fn theorem_4_6_matcher_datalog_agreement() {
    use gql_datalog::{evaluate, graph_to_facts, pattern_to_program, FactStore};
    let (g, _) = figure_4_16_graph();
    let p = Pattern::structural(figure_4_16_pattern());
    let mut facts = FactStore::new();
    graph_to_facts(&g, &mut facts);
    evaluate(&pattern_to_program(&p), &mut facts);
    let idx = GraphIndex::build(&g);
    let rep = match_pattern(&p, &g, &idx, &MatchOptions::baseline());
    assert_eq!(facts.count("match"), rep.mappings.len());
}

/// Theorem 4.5 (RA ⊆ GraphQL): a relation as single-node graphs;
/// relational selection via a graph pattern; projection via composition.
#[test]
fn theorem_4_5_relational_algebra_embedding() {
    // Relation R(name, year) as a collection of single-node graphs.
    let rows = [("A", 1999i64), ("B", 2005), ("C", 2010)];
    let mut coll = GraphCollection::new();
    for (n, y) in rows {
        let mut g = gql_core::Graph::new();
        g.add_node(gql_core::Tuple::new().with("name", n).with("year", y));
        coll.push(g);
    }
    // σ_{year > 2000}
    let sel = compile_pattern_text("graph P { node t where year > 2000; }").unwrap();
    let selected = ops::select(&sel, &coll, &MatchOptions::optimized()).unwrap();
    assert_eq!(selected.len(), 2);
    // π_{name} via the composition operator.
    let prog = gql_parser::parse_program("T := graph { node n <name=P.t.name>; };").unwrap();
    let gql_parser::ast::Statement::Assign { template, .. } = &prog.statements[0] else {
        unreachable!()
    };
    let projected = ops::compose(template, &selected).unwrap();
    assert_eq!(projected.len(), 2);
    for g in &projected {
        let node = g.node(gql_core::NodeId(0));
        assert_eq!(node.attrs.len(), 1, "only the projected attribute");
        assert!(node.attrs.get("name").is_some());
    }
    // Cartesian product and difference round out the five primitives.
    let prod = ops::cartesian_product(&coll, &coll);
    assert_eq!(prod.len(), 9);
    let diff = ops::difference(&coll, &coll);
    assert!(diff.is_empty());
}
