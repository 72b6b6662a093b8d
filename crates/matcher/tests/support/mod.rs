//! Reference (oracle) implementations of the retrieval and refinement
//! phases: the seed's `Value`-typed / hashtable kernels, kept verbatim so
//! the interned bitset kernels in `gql_match` can be checked for
//! observable equivalence. Shared by the equivalence suites via
//! `mod support;`.

#![allow(dead_code)] // each suite uses the subset it needs

use gql_core::iso::subgraph_isomorphic_anchored;
use gql_core::{neighborhood_subgraph, EdgeId, Graph, NodeId, Profile};
use gql_match::bipartite::Bipartite;
use gql_match::{feasible_mates, GraphIndex, LocalPruning, Pattern, RefineStats};
use rustc_hash::{FxHashMap, FxHashSet};

/// Reference (oracle) implementation of `feasible_mates`: the
/// `Value`-typed §4.2 local-pruning kernel over the attribute-retrieved
/// base (`LocalPruning::NodeAttributes`, which prunes nothing). Profile
/// pruning computes every data profile from the `Graph` itself, never
/// from the index under test.
pub fn feasible_mates_reference(
    pattern: &Pattern,
    g: &Graph,
    index: &GraphIndex,
    pruning: LocalPruning,
) -> Vec<Vec<NodeId>> {
    let bases = feasible_mates(pattern, g, index, LocalPruning::NodeAttributes);
    pattern
        .graph
        .node_ids()
        .zip(bases)
        .map(|(u, base)| match pruning {
            LocalPruning::NodeAttributes => base,
            LocalPruning::Profiles { radius } => {
                let pu = Profile::of_neighborhood(&pattern.graph, u, radius);
                base.into_iter()
                    .filter(|&v| pu.subsumed_by(&Profile::of_neighborhood(g, v, radius)))
                    .collect()
            }
            // Subgraph pruning never touched the interned tables;
            // the fast path is the reference.
            LocalPruning::Subgraphs { radius } => {
                let mut base = base;
                let nu = neighborhood_subgraph(&pattern.graph, u, radius);
                base.retain(|&v| {
                    if index.has_neighborhoods() && index.radius() == radius {
                        let nv = index.neighborhood(v);
                        subgraph_isomorphic_anchored(&nu.graph, &nv.graph, (nu.center, nv.center))
                    } else {
                        let nv = neighborhood_subgraph(g, v, radius);
                        subgraph_isomorphic_anchored(&nu.graph, &nv.graph, (nu.center, nv.center))
                    }
                });
                base
            }
        })
        .collect()
}

/// Reference (oracle) implementation: the seed's `FxHashMap`/`FxHashSet`
/// kernel, kept verbatim so the bitset fast path can be checked for
/// observable equivalence ([`RefineStats`] included).
pub fn refine_search_space_reference(
    pattern: &Pattern,
    g: &Graph,
    mates: &mut [Vec<NodeId>],
    level: usize,
) -> RefineStats {
    /// Incident data-graph neighbors regardless of direction.
    fn data_neighbors(g: &Graph, v: NodeId) -> Vec<(NodeId, EdgeId)> {
        g.incident(v).collect()
    }

    let k = pattern.node_count();
    debug_assert_eq!(k, mates.len());
    let mut stats = RefineStats::default();
    if k == 0 || level == 0 {
        return stats;
    }

    // Hashtable representation of Φ for O(1) membership (improvement 2).
    let mut feasible: Vec<FxHashSet<u32>> = mates
        .iter()
        .map(|m| m.iter().map(|v| v.0).collect())
        .collect();

    // Mark every pair ⟨u, v⟩ (Algorithm 4.2, line 2).
    let mut marked: FxHashSet<(u32, u32)> = FxHashSet::default();
    for (u, m) in mates.iter().enumerate() {
        for v in m {
            marked.insert((u as u32, v.0));
        }
    }

    for _ in 0..level {
        if marked.is_empty() {
            break; // line 19
        }
        stats.iterations += 1;
        let worklist: Vec<(u32, u32)> = marked.drain().collect();
        let mut removals: Vec<(u32, u32)> = Vec::new();
        for (u, v) in worklist {
            let np = pattern.incident(NodeId(u));
            let ng = data_neighbors(g, NodeId(v));
            // Build B(u,v) (lines 5–9) against the level-(i−1) space.
            let mut right_ids: FxHashMap<u32, usize> = FxHashMap::default();
            for (i, &(w, _)) in ng.iter().enumerate() {
                right_ids.insert(w.0, i);
            }
            let mut b = Bipartite::new(np.len(), ng.len());
            for (li, &(pu, _)) in np.iter().enumerate() {
                for (&gw, &ri) in right_ids.iter() {
                    if feasible[pu.index()].contains(&gw) {
                        b.add_edge(li, ri);
                    }
                }
            }
            stats.bipartite_checks += 1;
            if !b.has_semi_perfect_matching() {
                removals.push((u, v)); // line 13, deferred to level end
            }
            // else: unmarked (lines 10–11) — pair was drained already.
        }
        stats.removed_per_level.push(removals.len() as u64);
        if removals.is_empty() {
            break; // space stable: further levels cannot change it
        }
        // Apply removals, then re-mark affected neighbor pairs
        // (lines 14–15).
        for &(u, v) in &removals {
            feasible[u as usize].remove(&v);
            stats.removed += 1;
        }
        for (u, v) in removals {
            for &(pu, _) in pattern.incident(NodeId(u)) {
                for (gw, _) in data_neighbors(g, NodeId(v)) {
                    if feasible[pu.index()].contains(&gw.0) {
                        marked.insert((pu.0, gw.0));
                    }
                }
            }
        }
    }

    // Write the reduced space back, preserving the original order.
    for (u, m) in mates.iter_mut().enumerate() {
        m.retain(|v| feasible[u].contains(&v.0));
    }
    stats
}
