//! Program-level engine tests beyond the unit suite.

use gql_algebra::AlgebraError;
use gql_core::fixtures::{figure_4_13_dblp, figure_4_16_graph};
use gql_core::{GraphCollection, Value};
use gql_engine::{Database, EngineError};

#[test]
fn multiple_flwr_statements_compose() {
    let mut db = Database::new();
    db.add_collection("DBLP", figure_4_13_dblp().into());
    let out = db
        .execute(
            r#"
            graph A { node a <author name="A">; };
            for A exhaustive in doc("DBLP")
            return graph { node n <t="hasA">; };
            for graph B { node b <author name="D">; } exhaustive in doc("DBLP")
            return graph { node n <t="hasD">; };
        "#,
        )
        .unwrap();
    assert_eq!(out.returned.len(), 2);
    assert_eq!(out.returned[0].len(), 2, "A appears in both papers");
    assert_eq!(out.returned[1].len(), 1, "D appears once");
}

#[test]
fn let_accumulator_persists_across_statements() {
    let mut db = Database::new();
    db.add_collection("DBLP", figure_4_13_dblp().into());
    db.execute("C := graph { node seed <kind=\"root\">; };")
        .unwrap();
    db.execute(
        r#"
        for graph Q { node a <author>; } exhaustive in doc("DBLP")
        let C := graph {
            graph C;
            node Q.a;
            unify Q.a, C.x where Q.a.name = C.x.name;
        };
        "#,
    )
    .unwrap();
    let c = db.var("C").unwrap();
    // seed + distinct authors A, B, C, D.
    assert_eq!(c.node_count(), 5, "{c}");
}

#[test]
fn pattern_redefinition_uses_latest() {
    let mut db = Database::new();
    let (g, _) = figure_4_16_graph();
    db.add_graph("G", g);
    db.execute("graph P { node v <label=\"A\">; };").unwrap();
    let out1 = db
        .execute(r#"for P exhaustive in doc("G") return graph { node n; };"#)
        .unwrap();
    assert_eq!(out1.returned[0].len(), 2);
    db.execute("graph P { node v <label=\"B\">; node w <label=\"C\">; edge e (v, w); };")
        .unwrap();
    let out2 = db
        .execute(r#"for P exhaustive in doc("G") return graph { node n; };"#)
        .unwrap();
    assert_eq!(out2.returned[0].len(), 3, "B1-C1, B1-C2, B2-C2");
}

#[test]
fn for_over_empty_collection_returns_empty() {
    let mut db = Database::new();
    db.add_collection("E", GraphCollection::new());
    let out = db
        .execute(r#"for graph Q { node a; } in doc("E") return graph { node n; };"#)
        .unwrap();
    assert!(out.returned[0].is_empty());
}

#[test]
fn nested_pattern_reference_inside_flwr_pattern() {
    let mut db = Database::new();
    let (g, _) = figure_4_16_graph();
    db.add_graph("G", g);
    let out = db
        .execute(
            r#"
            graph Edge { node x <label="A">; node y <label="B">; edge e (x, y); };
            for graph Two { graph Edge as L; graph Edge as R; unify L.y, R.y; }
                exhaustive in doc("G")
            return graph { node n <hub=Two.L.y.label>; };
            "#,
        )
        .unwrap();
    // L and R must bind *different* A nodes adjacent to the same B; each
    // B in the figure graph has exactly one A neighbor, so no match.
    assert_eq!(out.returned[0].len(), 0);
}

#[test]
fn flwr_where_can_reference_graph_attributes() {
    let mut db = Database::new();
    db.add_collection("DBLP", figure_4_13_dblp().into());
    let out = db
        .execute(
            r#"
            for graph Q { node a <author>; } exhaustive in doc("DBLP")
            where Q.booktitle = "SIGMOD"
            return graph { node n <name=Q.a.name>; };
            "#,
        )
        .unwrap();
    assert_eq!(out.returned[0].len(), 5);
    let names: Vec<Value> = out.returned[0]
        .iter()
        .filter_map(|g| g.node(gql_core::NodeId(0)).attrs.get("name").cloned())
        .collect();
    assert!(names.contains(&Value::Str("A".into())));
}

#[test]
fn engine_error_display_is_informative() {
    let mut db = Database::new();
    let e = db
        .execute(r#"for P in doc("X") return graph {};"#)
        .unwrap_err();
    assert!(e.to_string().contains("unknown pattern"));
    let e2 = db.execute("graph P { node v;").unwrap_err();
    assert!(matches!(e2, EngineError::Parse(_)));
    assert!(e2.to_string().contains("syntax error"));
}

/// Recursive motifs (Definition 4.2), declared with `export` or by a
/// self-reference, are rejected with an error that says they are not
/// evaluated; the database keeps answering afterwards.
#[test]
fn recursive_motifs_are_rejected_not_evaluated() {
    let mut db = Database::new();
    db.add_collection("DBLP", figure_4_13_dblp().into());
    let exported = db
        .execute(
            r#"graph P { node a; export a as x; };
               for P in doc("DBLP") return graph { node n; };"#,
        )
        .unwrap_err();
    assert!(
        matches!(exported, EngineError::Algebra(AlgebraError::Eval { .. })),
        "{exported:?}"
    );
    let self_ref = db
        .execute(
            r#"graph Path { graph Path; node v1; };
               for Path in doc("DBLP") return graph { node n; };"#,
        )
        .unwrap_err();
    assert!(
        matches!(
            self_ref,
            EngineError::Algebra(AlgebraError::RecursivePattern { .. })
        ),
        "{self_ref:?}"
    );
    for e in [&exported, &self_ref] {
        let msg = e.to_string();
        assert!(
            msg.contains("recursive motifs (Definition 4.2) are not evaluated"),
            "{msg}"
        );
    }
    let out = db
        .execute(r#"for graph Q { node a <author>; } in doc("DBLP") return graph { node n; };"#)
        .unwrap();
    assert!(!out.returned[0].is_empty());
}
