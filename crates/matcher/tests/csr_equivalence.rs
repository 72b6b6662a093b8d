//! CSR snapshot ↔ `Graph` adjacency equivalence suite.
//!
//! The CSR snapshot ([`gql_core::CsrGraph`]) is the only adjacency the
//! matcher kernels read; every observable it serves — adjacency rows,
//! edge probes, BFS layers, neighborhood profiles — must be
//! byte-identical to the `Graph` it was built from, and the retrieval
//! and refinement kernels that run on it must agree with the
//! `Graph`-reading reference kernels in `support`, at any thread count.
//! These tests pin that contract on a zoo of fixtures: Erdős–Rényi,
//! directed, clique-heavy, and mixed-label (some nodes unlabeled)
//! graphs.

mod support;

use gql_core::fixtures::{figure_4_16_graph, figure_4_16_pattern, labeled_path};
use gql_core::{CsrGraph, Graph, LabelInterner, NodeId, Profile, Tuple, NO_LABEL};
use gql_datagen::{erdos_renyi, subgraph_queries, ErConfig};
use gql_match::{
    feasible_mates, feasible_mates_access_par, feasible_mates_stats_par, refine_search_space_csr,
    GraphIndex, LocalPruning, Pattern,
};
use std::collections::VecDeque;
use support::{feasible_mates_reference, refine_search_space_reference};

const THREADS: [usize; 3] = [1, 2, 8];

/// Interns every node label, mirroring what `GraphIndex` feeds into
/// `CsrGraph::build`.
fn label_table(g: &Graph) -> Vec<u32> {
    let mut interner = LabelInterner::new();
    g.node_ids()
        .map(|v| match g.node_label(v) {
            Some(l) => interner.intern(l),
            None => NO_LABEL,
        })
        .collect()
}

/// Deterministic LCG so fixtures need no rng dependency.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

fn er_fixture() -> Graph {
    erdos_renyi(&ErConfig {
        nodes: 300,
        edges: 900,
        labels: 7,
        seed: 0xC5A1,
    })
}

fn directed_fixture() -> Graph {
    let mut g = Graph::new_directed();
    let labels = ["A", "B", "C", "D"];
    let ids: Vec<NodeId> = (0..120)
        .map(|i| g.add_labeled_node(labels[i % labels.len()]))
        .collect();
    let mut s = 0xD15EA5E;
    for _ in 0..360 {
        let a = ids[(lcg(&mut s) as usize) % ids.len()];
        let b = ids[(lcg(&mut s) as usize) % ids.len()];
        if a != b {
            // Parallel a→b edges are rejected; that's fine.
            let _ = g.add_edge(a, b, Tuple::new());
        }
    }
    g
}

fn clique_fixture() -> Graph {
    let mut g = Graph::new();
    let labels = ["X", "Y", "Z"];
    for c in 0..6 {
        let ids: Vec<NodeId> = (0..6)
            .map(|i| g.add_labeled_node(labels[(c + i) % labels.len()]))
            .collect();
        for i in 0..ids.len() {
            for j in (i + 1)..ids.len() {
                g.add_edge(ids[i], ids[j], Tuple::new()).unwrap();
            }
        }
        // Bridge consecutive cliques so queries can span them.
        if c > 0 {
            let prev = NodeId((c as u32 - 1) * 6);
            g.add_edge(prev, ids[0], Tuple::new()).unwrap();
        }
    }
    g
}

fn mixed_label_fixture() -> Graph {
    let mut g = Graph::new();
    let mut ids = Vec::new();
    for i in 0..80 {
        ids.push(match i % 3 {
            0 => g.add_labeled_node("L"),
            1 => g.add_labeled_node("M"),
            // Every third node is unlabeled (NO_LABEL in the CSR rows).
            _ => g.add_node(Tuple::new()),
        });
    }
    let mut s = 0xBEEF;
    for _ in 0..200 {
        let a = ids[(lcg(&mut s) as usize) % ids.len()];
        let b = ids[(lcg(&mut s) as usize) % ids.len()];
        if a != b {
            let _ = g.add_edge(a, b, Tuple::new());
        }
    }
    g
}

fn fixtures() -> Vec<(&'static str, Graph)> {
    vec![
        ("er", er_fixture()),
        ("directed", directed_fixture()),
        ("clique", clique_fixture()),
        ("mixed-label", mixed_label_fixture()),
    ]
}

/// CSR rows carry exactly the `Vec`-adjacency edges (as multisets; CSR
/// rows are (label, node, edge)-sorted), and the degree accessors
/// agree.
#[test]
fn adjacency_rows_match_vec_adjacency() {
    for (name, g) in fixtures() {
        let labels = label_table(&g);
        for threads in THREADS {
            let csr = CsrGraph::build(&g, &labels, threads);
            assert_eq!(csr.is_directed(), g.is_directed(), "{name}");
            assert_eq!(csr.node_count(), g.node_count(), "{name}");
            for v in g.node_ids() {
                let sorted = |row: &[(NodeId, gql_core::EdgeId)]| {
                    let mut t: Vec<(u32, u32, u32)> = row
                        .iter()
                        .map(|&(w, e)| (labels[w.index()], w.0, e.0))
                        .collect();
                    t.sort_unstable();
                    t
                };
                let as_triples = |row: &[gql_core::CsrEntry]| {
                    row.iter()
                        .map(|e| (e.label, e.node, e.edge))
                        .collect::<Vec<_>>()
                };
                assert_eq!(
                    as_triples(csr.neighbors(v)),
                    sorted(g.neighbors(v)),
                    "{name}/{threads}: out-row of {v:?}"
                );
                assert_eq!(
                    as_triples(csr.in_neighbors(v)),
                    sorted(g.in_neighbors(v)),
                    "{name}/{threads}: in-row of {v:?}"
                );
                let mut incident = g
                    .incident(v)
                    .map(|(w, e)| (labels[w.index()], w.0, e.0))
                    .collect::<Vec<_>>();
                incident.sort_unstable();
                assert_eq!(
                    as_triples(csr.incident(v)),
                    incident,
                    "{name}/{threads}: incident row of {v:?}"
                );
                assert_eq!(csr.degree(v), g.degree(v), "{name}/{threads}");
                assert_eq!(
                    csr.incident_degree(v),
                    g.incident_degree(v),
                    "{name}/{threads}"
                );
            }
        }
    }
}

/// `CsrGraph::edge_between` (binary search) agrees with the hash probe
/// of `Graph::edge_between` on every ordered node pair, and the
/// label-range slices agree with a linear filter of the row.
#[test]
fn edge_probes_and_label_ranges_match() {
    for (name, g) in fixtures() {
        let labels = label_table(&g);
        let csr = CsrGraph::build(&g, &labels, 1);
        let ids: Vec<NodeId> = g.node_ids().collect();
        for &a in &ids {
            for &b in &ids {
                assert_eq!(
                    csr.edge_between(a, b),
                    g.edge_between(a, b),
                    "{name}: probe {a:?}→{b:?}"
                );
            }
            let mut label_ids: Vec<u32> = csr.neighbors(a).iter().map(|e| e.label).collect();
            label_ids.push(NO_LABEL); // also probe a label absent from most rows
            label_ids.dedup();
            for l in label_ids {
                let want: Vec<_> = csr
                    .neighbors(a)
                    .iter()
                    .filter(|e| e.label == l)
                    .copied()
                    .collect();
                assert_eq!(
                    csr.neighbors_with_label(a, l),
                    &want[..],
                    "{name}: label range {l} of {a:?}"
                );
            }
        }
    }
}

/// BFS over the CSR incident rows visits nodes at the same hop distance
/// as BFS over the `Graph` adjacency (the traversal the profile builder
/// and `neighborhood_subgraph` both rely on).
#[test]
fn bfs_distances_match() {
    fn bfs(n: usize, start: NodeId, mut row: impl FnMut(u32) -> Vec<u32>) -> Vec<usize> {
        let mut dist = vec![usize::MAX; n];
        dist[start.index()] = 0;
        let mut q = VecDeque::from([start.0]);
        while let Some(u) = q.pop_front() {
            for w in row(u) {
                if dist[w as usize] == usize::MAX {
                    dist[w as usize] = dist[u as usize] + 1;
                    q.push_back(w);
                }
            }
        }
        dist
    }
    for (name, g) in fixtures() {
        let labels = label_table(&g);
        let csr = CsrGraph::build(&g, &labels, 2);
        for start in g.node_ids().step_by(7) {
            let via_graph = bfs(g.node_count(), start, |u| {
                g.incident(NodeId(u)).map(|(w, _)| w.0).collect()
            });
            let via_csr = bfs(g.node_count(), start, |u| {
                csr.incident(NodeId(u)).iter().map(|e| e.node).collect()
            });
            assert_eq!(via_graph, via_csr, "{name}: BFS from {start:?}");
        }
    }
}

/// Index profiles built from the CSR snapshot's BFS are byte-identical
/// to the encoded `Profile::of_neighborhood` walk over the `Graph`, at
/// radius 1 and 2.
#[test]
fn index_profiles_match_graph_path() {
    for (name, g) in fixtures() {
        for radius in [1, 2] {
            for threads in THREADS {
                let index = GraphIndex::build_with_profiles_par(&g, radius, threads);
                for v in g.node_ids() {
                    let want = Profile::of_neighborhood(&g, v, radius);
                    assert_eq!(
                        Some(index.id_profile(v)),
                        index.interner().encode_profile(&want).as_ref(),
                        "{name}/r{radius}/t{threads}: id profile of {v:?}"
                    );
                }
            }
        }
    }
}

fn queries_for(name: &str, g: &Graph) -> Vec<Graph> {
    match name {
        // Extracted connected subgraphs always have at least one match.
        "er" => subgraph_queries(g, 6, 2, 0x51),
        "clique" => subgraph_queries(g, 4, 2, 0x52),
        "mixed-label" => subgraph_queries(g, 4, 2, 0x53),
        "directed" => {
            // A→B→C path; matched against the directed fixture.
            let mut q = Graph::new_directed();
            let a = q.add_labeled_node("A");
            let b = q.add_labeled_node("B");
            let c = q.add_labeled_node("C");
            q.add_edge(a, b, Tuple::new()).unwrap();
            q.add_edge(b, c, Tuple::new()).unwrap();
            vec![q]
        }
        other => unreachable!("unknown fixture {other}"),
    }
}

const PRUNINGS: [LocalPruning; 4] = [
    LocalPruning::NodeAttributes,
    LocalPruning::Profiles { radius: 1 },
    LocalPruning::Profiles { radius: 2 },
    LocalPruning::Subgraphs { radius: 1 },
];

/// The un-instrumented kernel, the counting kernel, and the
/// `Value`-typed reference agree on `Φ`, and the counters are exact and
/// identical at every thread count.
fn assert_retrieval_agrees(p: &Pattern, g: &Graph, index: &GraphIndex, tag: &str) {
    let entering: u64 = feasible_mates(p, g, index, LocalPruning::NodeAttributes)
        .iter()
        .map(|m| m.len() as u64)
        .sum();
    for pruning in PRUNINGS {
        let tag = format!("{tag} {pruning:?}");
        let want = feasible_mates_reference(p, g, index, pruning);
        let (_, want_stats) = feasible_mates_stats_par(p, g, index, pruning, 1);
        assert_eq!(want_stats.candidates, entering, "{tag}: candidates");
        assert_eq!(
            want_stats.candidates,
            want_stats.sig_rejected + want_stats.exact_rejected + want_stats.kept,
            "{tag}: counters add up: {want_stats:?}"
        );
        assert_eq!(
            want_stats.kept,
            want.iter().map(|m| m.len() as u64).sum::<u64>(),
            "{tag}: kept"
        );
        // Only precomputed radius-r profiles carry signatures; without
        // them every rejection is charged to the exact test.
        let precomputed = matches!(pruning, LocalPruning::Profiles { radius }
            if index.has_profiles() && index.radius() == radius);
        if !precomputed {
            assert_eq!(want_stats.sig_rejected, 0, "{tag}: no signature screen");
        }
        for threads in THREADS {
            let (plain, access) = feasible_mates_access_par(p, g, index, pruning, threads);
            let (counted, stats) = feasible_mates_stats_par(p, g, index, pruning, threads);
            assert_eq!(plain, want, "{tag} t={threads}: access_par vs reference");
            assert_eq!(counted, want, "{tag} t={threads}: stats_par vs reference");
            assert_eq!(stats, want_stats, "{tag} t={threads}: stats");
            assert_eq!(access.len(), p.node_count(), "{tag} t={threads}");
        }
    }
}

/// `feasible_mates_access_par` ≡ `feasible_mates_stats_par` ≡ the
/// relocated reference over the fixture zoo, with and without
/// precomputed profiles (the latter takes the on-the-fly pruning arms).
#[test]
fn retrieval_kernels_agree_with_reference() {
    for (name, g) in fixtures() {
        let with_profiles = GraphIndex::build_with_profiles(&g, 1);
        let plain = GraphIndex::build(&g);
        for (qi, q) in queries_for(name, &g).into_iter().enumerate() {
            let p = Pattern::structural(q);
            assert_retrieval_agrees(&p, &g, &with_profiles, &format!("{name} q{qi} profiles"));
            assert_retrieval_agrees(&p, &g, &plain, &format!("{name} q{qi} plain"));
        }
    }
    // Materialized neighborhoods take the precomputed-subgraph arm.
    let (g, _) = figure_4_16_graph();
    let full = GraphIndex::build_full(&g, 1);
    let p = Pattern::structural(figure_4_16_pattern());
    assert_retrieval_agrees(&p, &g, &full, "figure 4.16 full");
    // A pattern label absent from the data graph makes the pattern
    // profile unencodable: the space empties and the whole base is
    // charged to the signature screen.
    let zp = Pattern::structural(labeled_path(&["A", "Z"]));
    assert_retrieval_agrees(&zp, &g, &full, "unknown label");
    let pruning = LocalPruning::Profiles { radius: 1 };
    let (zm, zs) = feasible_mates_stats_par(&zp, &g, &full, pruning, 1);
    assert!(zm.iter().all(|m| m.is_empty()));
    assert_eq!(zs.candidates, zs.sig_rejected);
}

/// The CSR-row bitset kernel and the seed's hashtable kernel over the
/// `Graph` adjacency agree on the refined space *and* the statistics,
/// at several levels and thread counts.
#[test]
fn refine_kernel_matches_reference() {
    for (name, g) in fixtures() {
        let index = GraphIndex::build(&g);
        for (qi, q) in queries_for(name, &g).into_iter().enumerate() {
            let p = Pattern::structural(q);
            let base = feasible_mates(&p, &g, &index, LocalPruning::NodeAttributes);
            for level in [1, 2, 4, 8] {
                let mut want = base.clone();
                let want_stats = refine_search_space_reference(&p, &g, &mut want, level);
                for threads in THREADS {
                    let mut got = base.clone();
                    let stats =
                        refine_search_space_csr(&p, &g, index.csr(), &mut got, level, threads);
                    let tag = format!("{name} q{qi} level={level} t={threads}");
                    assert_eq!(got, want, "{tag}: refined space");
                    assert_eq!(stats, want_stats, "{tag}: stats");
                }
            }
        }
    }
}
