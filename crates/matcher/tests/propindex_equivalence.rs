//! Property-index ↔ bucket-scan equivalence suite.
//!
//! The sorted secondary property index is a pure access-method swap:
//! every observable — mappings, edge bindings, search order, step and
//! backtrack counters, refinement stats, search-space accounting, and
//! the deterministic obs counters (minus the access-path tallies the
//! index adds) — must be byte-identical between index-probe retrieval
//! and predicate scans over the label buckets, at any thread count.

use gql_core::Graph;
use gql_core::{NodeId, Obs, Tuple, Value};
use gql_match::{match_pattern, BinOp, Expr, GraphIndex, IndexOptions, MatchOptions, Pattern};

const THREADS: [usize; 3] = [1, 2, 8];

/// Obs counter keys the prop index itself introduces: these tally which
/// access path retrieval took, so they legitimately differ between the
/// indexed and scan configurations and are excluded from the identity
/// check.
const ACCESS_KEYS: [&str; 3] = [
    "retrieve.bucket_scan",
    "retrieve.index_probe",
    "retrieve.residual_scan",
];

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// Mixed-attribute fixture: Person/Org/unlabeled nodes with `age`
/// (int), `score` (int or float, exercising the cross-type total
/// order), and a sparse `vip` flag only some Persons carry.
fn social_fixture() -> Graph {
    let mut g = Graph::new();
    let mut ids = Vec::new();
    for i in 0..240i64 {
        let mut t = Tuple::new();
        match i % 3 {
            0 | 1 => {
                t.set("label", if i % 3 == 0 { "Person" } else { "Org" });
                t.set("age", 20 + (i % 50));
                // Alternate Int and Float scores so probes must honor
                // the cross-type comparison, not a per-type sort.
                if i % 2 == 0 {
                    t.set("score", i % 7);
                } else {
                    t.set("score", (i % 7) as f64 + 0.5);
                }
                if i % 11 == 0 {
                    t.set("vip", true);
                }
            }
            _ => {} // unlabeled, attribute-free
        }
        ids.push(g.add_node(t));
    }
    let mut s = 0x50C1A1;
    for _ in 0..700 {
        let a = ids[(lcg(&mut s) as usize) % ids.len()];
        let b = ids[(lcg(&mut s) as usize) % ids.len()];
        if a != b {
            let _ = g.add_edge(a, b, Tuple::new());
        }
    }
    g
}

/// High-selectivity fixture: every node carries a unique `uid`, so an
/// equality probe narrows a 500-node bucket to a single candidate —
/// the workload where the index pays most.
fn highsel_fixture() -> Graph {
    let mut g = Graph::new();
    let ids: Vec<NodeId> = (0..500i64)
        .map(|i| {
            g.add_node(
                Tuple::new()
                    .with("label", "U")
                    .with("uid", i)
                    .with("grp", i % 5),
            )
        })
        .collect();
    for i in 0..ids.len() {
        let j = (i * 7 + 1) % ids.len();
        if i != j {
            let _ = g.add_edge(ids[i], ids[j], Tuple::new());
        }
    }
    g
}

/// Edge-attribute fixture: a ring of `P` nodes plus random chords,
/// every edge labeled `knows` or `works` with an integer `weight`, and
/// a sparse `since` only some edges carry — the workload for the
/// edge-side predicate pushdown (probe-compiled allowed-edge lists).
fn edge_attr_fixture() -> Graph {
    let mut g = Graph::new();
    let ids: Vec<NodeId> = (0..200i64)
        .map(|i| g.add_node(Tuple::new().with("label", "P").with("uid", i)))
        .collect();
    let connect = |g: &mut Graph, a: NodeId, b: NodeId, k: i64| {
        let mut t = Tuple::new()
            .with("label", if k % 3 == 0 { "works" } else { "knows" })
            .with("weight", k % 17);
        if k % 5 == 0 {
            t.set("since", 2000 + (k % 20));
        }
        let _ = g.add_edge(a, b, t);
    };
    let mut k = 0i64;
    for i in 0..ids.len() {
        connect(&mut g, ids[i], ids[(i + 1) % ids.len()], k);
        k += 1;
    }
    let mut s = 0xED6E;
    for _ in 0..400 {
        let a = ids[(lcg(&mut s) as usize) % ids.len()];
        let b = ids[(lcg(&mut s) as usize) % ids.len()];
        if a != b {
            connect(&mut g, a, b, k);
            k += 1;
        }
    }
    g
}

/// Two-node motif `0 — 1` with the given labels and node predicates.
fn motif(l0: &str, l1: &str, preds: Vec<Expr>) -> Pattern {
    let mut m = Graph::new();
    let a = m.add_node(Tuple::new().with("label", l0));
    let b = m.add_node(Tuple::new().with("label", l1));
    m.add_edge(a, b, Tuple::new()).unwrap();
    Pattern::new(m, preds)
}

fn lit(v: impl Into<Value>) -> Expr {
    Expr::Literal(v.into())
}

fn social_patterns() -> Vec<(&'static str, Pattern)> {
    vec![
        (
            "age-eq",
            motif("Person", "Org", vec![Expr::node_attr_eq(0, "age", 32i64)]),
        ),
        (
            "age-range",
            motif(
                "Person",
                "Org",
                vec![Expr::binary(
                    BinOp::Ge,
                    Expr::node_attr(0, "age"),
                    lit(60i64),
                )],
            ),
        ),
        (
            "mirrored-literal-first",
            motif(
                "Person",
                "Org",
                vec![Expr::binary(
                    BinOp::Gt,
                    lit(40i64),
                    Expr::node_attr(0, "age"),
                )],
            ),
        ),
        (
            "float-int-mix",
            motif(
                "Person",
                "Org",
                vec![
                    Expr::binary(BinOp::Gt, Expr::node_attr(0, "score"), lit(2.5f64)),
                    Expr::binary(BinOp::Le, Expr::node_attr(1, "score"), lit(4i64)),
                ],
            ),
        ),
        (
            "two-conjunct-intersection",
            motif(
                "Person",
                "Org",
                vec![
                    Expr::binary(BinOp::Ge, Expr::node_attr(0, "age"), lit(30i64)),
                    Expr::binary(BinOp::Lt, Expr::node_attr(0, "age"), lit(45i64)),
                ],
            ),
        ),
        (
            "probe-plus-residual",
            motif(
                "Person",
                "Org",
                vec![
                    Expr::binary(BinOp::Ge, Expr::node_attr(0, "age"), lit(25i64)),
                    Expr::binary(BinOp::Ne, Expr::node_attr(0, "score"), lit(3i64)),
                ],
            ),
        ),
        (
            "sparse-attr-eq",
            motif("Person", "Org", vec![Expr::node_attr_eq(0, "vip", true)]),
        ),
        (
            "absent-attr",
            motif(
                "Person",
                "Org",
                vec![Expr::node_attr_eq(0, "nonexistent", 1i64)],
            ),
        ),
    ]
}

/// Two-`P`-node motif whose edge optionally carries a `label`
/// constraint, with the given predicates (edge predicates mentioning
/// only edge 0 are pushed down to it by `Pattern::new`).
fn edge_motif(elabel: Option<&str>, preds: Vec<Expr>) -> Pattern {
    let mut m = Graph::new();
    let a = m.add_node(Tuple::new().with("label", "P"));
    let b = m.add_node(Tuple::new().with("label", "P"));
    let mut t = Tuple::new();
    if let Some(l) = elabel {
        t.set("label", l);
    }
    m.add_edge(a, b, t).unwrap();
    Pattern::new(m, preds)
}

fn edge_patterns() -> Vec<(&'static str, Pattern)> {
    vec![
        (
            "eweight-eq",
            edge_motif(Some("knows"), vec![Expr::edge_attr_eq(0, "weight", 4i64)]),
        ),
        (
            "eweight-range",
            edge_motif(
                Some("knows"),
                vec![Expr::binary(
                    BinOp::Ge,
                    Expr::edge_attr(0, "weight"),
                    lit(10i64),
                )],
            ),
        ),
        (
            "emirrored-literal-first",
            edge_motif(
                Some("works"),
                vec![Expr::binary(
                    BinOp::Gt,
                    lit(6i64),
                    Expr::edge_attr(0, "weight"),
                )],
            ),
        ),
        (
            "etwo-conjunct-intersection",
            edge_motif(
                Some("knows"),
                vec![
                    Expr::binary(BinOp::Ge, Expr::edge_attr(0, "weight"), lit(3i64)),
                    Expr::binary(BinOp::Lt, Expr::edge_attr(0, "weight"), lit(9i64)),
                ],
            ),
        ),
        (
            "esparse-attr-eq",
            edge_motif(Some("works"), vec![Expr::edge_attr_eq(0, "since", 2010i64)]),
        ),
        (
            "eabsent-attr",
            edge_motif(Some("knows"), vec![Expr::edge_attr_eq(0, "nope", 1i64)]),
        ),
        (
            // A non-indexable conjunct (`!=`) keeps the whole edge on
            // the `edge_feasible` scan path — equivalence must hold
            // there too.
            "eprobe-plus-nonindexable",
            edge_motif(
                Some("knows"),
                vec![
                    Expr::binary(BinOp::Ge, Expr::edge_attr(0, "weight"), lit(2i64)),
                    Expr::binary(BinOp::Ne, Expr::edge_attr(0, "weight"), lit(5i64)),
                ],
            ),
        ),
        (
            // No edge label: runs are per-(label, attr), so the probe
            // cannot compile and the scan path must run.
            "eunlabeled-edge",
            edge_motif(None, vec![Expr::edge_attr_eq(0, "weight", 4i64)]),
        ),
        (
            // Node probes and edge probes compile independently.
            "enode-and-edge-probes",
            edge_motif(
                Some("knows"),
                vec![
                    Expr::binary(BinOp::Lt, Expr::node_attr(0, "uid"), lit(120i64)),
                    Expr::edge_attr_eq(0, "weight", 7i64),
                ],
            ),
        ),
    ]
}

fn highsel_patterns() -> Vec<(&'static str, Pattern)> {
    vec![
        (
            "uid-eq",
            motif("U", "U", vec![Expr::node_attr_eq(0, "uid", 123i64)]),
        ),
        (
            "uid-eq-both",
            motif(
                "U",
                "U",
                vec![
                    Expr::node_attr_eq(0, "uid", 42i64),
                    Expr::node_attr_eq(1, "grp", 0i64),
                ],
            ),
        ),
        (
            "uid-range-narrow",
            motif(
                "U",
                "U",
                vec![
                    Expr::binary(BinOp::Ge, Expr::node_attr(0, "uid"), lit(490i64)),
                    Expr::binary(BinOp::Lt, Expr::node_attr(1, "uid"), lit(20i64)),
                ],
            ),
        ),
    ]
}

/// Runs one pattern with and without the property index at threads 1,
/// 2, and 8 and asserts every observable agrees with the scan baseline.
fn assert_equivalent(tagbase: &str, g: &Graph, p: &Pattern) {
    let run = |prop_index: bool, threads: usize| {
        let index = GraphIndex::build_with(
            g,
            &IndexOptions {
                radius: 1,
                profiles: true,
                subgraphs: false,
                threads,
                prop_index,
            },
        );
        let obs = Obs::new();
        let opts = MatchOptions {
            threads,
            telemetry: Some(std::sync::Arc::new(
                gql_core::Telemetry::new().with_obs(obs.clone()),
            )),
            ..MatchOptions::optimized()
        };
        let rep = match_pattern(p, g, &index, &opts);
        let mut counters = obs.report().counters;
        counters.retain(|(k, _)| !ACCESS_KEYS.contains(&k.as_str()));
        (rep, counters)
    };
    let (want, want_obs) = run(false, 1);
    for threads in THREADS {
        for prop_index in [true, false] {
            let (got, got_obs) = run(prop_index, threads);
            let tag = format!("{tagbase} prop={prop_index} t={threads}");
            assert_eq!(got.mappings, want.mappings, "{tag}: mappings");
            assert_eq!(got.edge_bindings, want.edge_bindings, "{tag}: edges");
            assert_eq!(got.order, want.order, "{tag}: search order");
            assert_eq!(got.search_steps, want.search_steps, "{tag}: steps");
            assert_eq!(
                got.search_backtracks, want.search_backtracks,
                "{tag}: backtracks"
            );
            assert_eq!(got.refine_stats, want.refine_stats, "{tag}: refine");
            assert_eq!(
                got.spaces.baseline_ln.to_bits(),
                want.spaces.baseline_ln.to_bits(),
                "{tag}: baseline space"
            );
            assert_eq!(
                got.spaces.local_ln.to_bits(),
                want.spaces.local_ln.to_bits(),
                "{tag}: local space"
            );
            assert_eq!(
                got.spaces.refined_ln.to_bits(),
                want.spaces.refined_ln.to_bits(),
                "{tag}: refined space"
            );
            assert_eq!(got_obs, want_obs, "{tag}: obs counters");
        }
    }
}

#[test]
fn social_patterns_identical_indexed_vs_scan() {
    let g = social_fixture();
    let mut matched = 0;
    for (name, p) in social_patterns() {
        assert_equivalent(&format!("social/{name}"), &g, &p);
        let idx = GraphIndex::build_with_profiles(&g, 1);
        let rep = match_pattern(&p, &g, &idx, &MatchOptions::optimized());
        matched += usize::from(!rep.mappings.is_empty());
    }
    // The fixture is built so most patterns actually match — an
    // all-empty suite would vacuously pass.
    assert!(matched >= 5, "only {matched} social patterns matched");
}

/// Edge predicates answered by probe-compiled allowed-edge lists agree
/// with `edge_feasible` scans on every observable, at every thread
/// count — including the fallback cases (non-indexable conjunct,
/// unlabeled motif edge) that must stay on the scan path.
#[test]
fn edge_predicate_patterns_identical_indexed_vs_scan() {
    let g = edge_attr_fixture();
    let mut matched = 0;
    for (name, p) in edge_patterns() {
        assert_equivalent(&format!("edge/{name}"), &g, &p);
        let idx = GraphIndex::build_with_profiles(&g, 1);
        let rep = match_pattern(&p, &g, &idx, &MatchOptions::optimized());
        matched += usize::from(!rep.mappings.is_empty());
    }
    // The fixture is built so most edge patterns actually match — an
    // all-empty suite would vacuously pass.
    assert!(matched >= 6, "only {matched} edge patterns matched");
}

#[test]
fn high_selectivity_patterns_identical_indexed_vs_scan() {
    let g = highsel_fixture();
    for (name, p) in highsel_patterns() {
        assert_equivalent(&format!("highsel/{name}"), &g, &p);
    }
    // And the headline case really is selective: one candidate for the
    // uid-constrained node.
    let idx = GraphIndex::build_with_profiles(&g, 1);
    let (_, p) = &highsel_patterns()[0];
    let rep = match_pattern(p, &g, &idx, &MatchOptions::optimized());
    assert!(!rep.mappings.is_empty());
    assert!(rep.mappings.iter().all(|m| m[0] == NodeId(123)));
}
