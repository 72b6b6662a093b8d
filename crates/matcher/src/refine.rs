//! Joint (global) reduction of the search space — Algorithm 4.2,
//! *pseudo subgraph isomorphism* refinement (§4.3).
//!
//! For each pattern node `u` and feasible mate `v`, a bipartite graph
//! `B(u,v)` is built between the neighbors of `u` and of `v`, with an
//! edge `(u', v')` iff `v' ∈ Φ(u')`. If `B(u,v)` has no semi-perfect
//! matching (one saturating all of `N(u)`), `v` is removed from `Φ(u)`.
//!
//! Levels are synchronous, matching the recursive definition of pseudo
//! sub-isomorphism (level-l checks use the level-(l−1) space) and the
//! worked trace of Figure 4.18: removals discovered during level `i` take
//! effect only after the level completes. Both implementation
//! improvements of the paper are included: the marked-pair worklist that
//! avoids unnecessary matchings, and a compact representation of the
//! pairs.
//!
//! # Fast-path data layout
//!
//! The kernel ([`refine_search_space_csr`]) keeps `Φ` as one
//! dense **bitset per pattern node** (`Vec<u64>` over data-node ids), so
//! the inner `v' ∈ Φ(u')` probe of the bipartite build is a single
//! shift-and-mask. The mark table is a flat `Vec<bool>` over
//! `(pattern, data)` pairs, and each worker reuses one
//! `RefineScratch` (bipartite adjacency, Hopcroft–Karp arrays,
//! neighbor-position table), so steady-state levels allocate nothing
//! per pair. Within a level every check reads only the level-(l−1)
//! bitsets, so the per-level worklist can fan out across
//! `gql_core::par` workers while keeping the output byte-identical at
//! any thread count. The seed's hashtable kernel lives on as the
//! equivalence oracle in `tests/support`.
//!
//! The data-side neighbor scans — the bipartite right side and the
//! re-mark fan-out — walk contiguous [`CsrGraph`] rows. Better: rows
//! are label-sorted, and when all
//! candidates of a pattern node share one interned label (the common
//! case — labeled pattern nodes only admit same-label mates), the scan
//! narrows to that label's sub-row; every skipped neighbor would have
//! failed the `feasible` probe that follows. Neighbors are therefore
//! *enumerated* in a different order and number than insertion order;
//! that cannot change any observable: a pair's verdict is the existence
//! of a semi-perfect matching (order-free, and right vertices without
//! edges never matter), levels are synchronous, the mark table dedupes
//! the worklist into a set, and every statistic is a count over those
//! sets.

use crate::bipartite::{Bipartite, MatchingScratch};
use crate::pattern::Pattern;
use gql_core::{CsrEntry, CsrGraph, Graph, NodeId};

/// Counters reported by a refinement run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RefineStats {
    /// Levels actually performed (≤ requested level).
    pub iterations: usize,
    /// Semi-perfect-matching tests executed.
    pub bipartite_checks: u64,
    /// Candidate pairs removed from the search space.
    pub removed: u64,
    /// Pairs removed at each performed level, `removed_per_level[l]`
    /// being level `l+1`'s removals (sums to `removed`; a trailing
    /// stable level that removed nothing still records a `0`).
    pub removed_per_level: Vec<u64>,
}

/// Dense bitset over data-node ids.
#[derive(Debug, Clone)]
struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    fn new(n: usize) -> Self {
        BitSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    #[inline]
    fn set(&mut self, i: u32) {
        self.words[(i >> 6) as usize] |= 1u64 << (i & 63);
    }

    #[inline]
    fn unset(&mut self, i: u32) {
        self.words[(i >> 6) as usize] &= !(1u64 << (i & 63));
    }

    #[inline]
    fn contains(&self, i: u32) -> bool {
        (self.words[(i >> 6) as usize] >> (i & 63)) & 1 != 0
    }
}

/// The incident row of data node `v` that can hold feasible mates of
/// pattern node `pu`. `labels[pu]` is `Some(l)` when every current
/// candidate of `pu` carries interned label `l`; since `feasible[pu]`
/// only shrinks, a scan feeding a `feasible[pu]` membership probe may
/// then walk just the label-`l` sub-row — every skipped entry would
/// have failed the probe anyway. Directed rows can list a node twice
/// (in + out edge); duplicates are adjacent in the (label, node)-sorted
/// row.
#[inline]
fn candidate_row<'a>(
    csr: &'a CsrGraph,
    labels: &[Option<u32>],
    v: u32,
    pu: usize,
) -> &'a [CsrEntry] {
    match labels[pu] {
        Some(l) => csr.incident_with_label(NodeId(v), l),
        None => csr.incident(NodeId(v)),
    }
}

/// Per-worker reusable buffers: the bipartite graph `B(u,v)`, the
/// Hopcroft–Karp state, and the dense neighbor-position table used to
/// deduplicate `N(v)` without a hash map.
struct RefineScratch {
    bip: Bipartite,
    matching: MatchingScratch,
    /// `right_pos[w] == u32::MAX` ⇔ data node `w` not yet seen as a
    /// neighbor of the current `v`; else its right-side index.
    right_pos: Vec<u32>,
    /// Distinct neighbors of the current `v`, in first-seen order.
    right_nodes: Vec<u32>,
    /// `(left, right)` edge buffer: the right-side size is known only
    /// after scanning the label sub-rows.
    edges: Vec<(u32, u32)>,
}

impl RefineScratch {
    fn new(n: usize) -> Self {
        RefineScratch {
            bip: Bipartite::default(),
            matching: MatchingScratch::default(),
            right_pos: vec![u32::MAX; n],
            right_nodes: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Does `B(u,v)` lack a semi-perfect matching against the
    /// level-(l−1) space in `feasible`? (True ⇒ remove the pair.)
    ///
    /// Per left vertex, only the CSR sub-row that can contain its
    /// feasible mates is scanned, and the per-left structure admits two
    /// verdict-preserving short-circuits: a left vertex with no
    /// feasible mate fails the pair outright (no saturating matching
    /// can exist), and a single left vertex is saturated by its first
    /// feasible mate (no matching run needed). [`RefineStats`] counts
    /// pairs, not probes, so the statistics are unaffected.
    fn pair_fails(
        &mut self,
        pattern: &Pattern,
        csr: &CsrGraph,
        labels: &[Option<u32>],
        feasible: &[BitSet],
        u: u32,
        v: u32,
    ) -> bool {
        let np = pattern.incident(NodeId(u));
        let row = |pu: usize| candidate_row(csr, labels, v, pu);
        // Single left vertex: semi-perfect ⇔ any feasible mate exists
        // (duplicates in a full directed row don't matter to `any`).
        if let [(pu, _)] = np {
            let fs = &feasible[pu.index()];
            return !row(pu.index()).iter().any(|e| fs.contains(e.node));
        }
        self.right_nodes.clear();
        self.edges.clear();
        for (li, &(pu, _)) in np.iter().enumerate() {
            let fs = &feasible[pu.index()];
            let before = self.edges.len();
            let mut prev = u32::MAX;
            for e in row(pu.index()) {
                if e.node == prev || !fs.contains(e.node) {
                    continue;
                }
                prev = e.node;
                // Right vertices are assigned indices lazily on the
                // first feasible sighting; rights without edges cannot
                // affect a semi-perfect matching.
                let slot = &mut self.right_pos[e.node as usize];
                if *slot == u32::MAX {
                    *slot = self.right_nodes.len() as u32;
                    self.right_nodes.push(e.node);
                }
                self.edges.push((li as u32, *slot));
            }
            if self.edges.len() == before {
                // Left vertex li has no feasible mate: B(u,v) cannot
                // saturate it (the matching's quick-reject would say
                // the same after a full build).
                for &gw in &self.right_nodes {
                    self.right_pos[gw as usize] = u32::MAX;
                }
                return true;
            }
        }
        // Matching-free verdicts: a matching saturating all lefts needs
        // at least as many distinct rights as lefts; conversely, every
        // left holding exactly one edge with all rights distinct (one
        // edge per right) is itself a saturating matching.
        if self.right_nodes.len() < np.len() {
            for &gw in &self.right_nodes {
                self.right_pos[gw as usize] = u32::MAX;
            }
            return true;
        }
        if self.edges.len() == np.len() && self.right_nodes.len() == np.len() {
            for &gw in &self.right_nodes {
                self.right_pos[gw as usize] = u32::MAX;
            }
            return false;
        }
        self.bip.clear(np.len(), self.right_nodes.len());
        for &(li, ri) in &self.edges {
            self.bip.add_edge(li as usize, ri as usize);
        }
        for &gw in &self.right_nodes {
            self.right_pos[gw as usize] = u32::MAX;
        }
        !self.bip.has_semi_perfect_matching_with(&mut self.matching)
    }
}

/// Runs Algorithm 4.2 over `csr`, the snapshot of `g`'s adjacency:
/// refines `mates` in place for up to `level` synchronous iterations,
/// returning statistics. Each level's worklist is spread across
/// `threads` workers (`0` = available cores, `1` = sequential); every
/// check reads the level-(l−1) space, so the refined space and all
/// statistics are identical for every thread count.
pub fn refine_search_space_csr(
    pattern: &Pattern,
    g: &Graph,
    csr: &CsrGraph,
    mates: &mut [Vec<NodeId>],
    level: usize,
    threads: usize,
) -> RefineStats {
    debug_assert_eq!(
        csr.node_count(),
        g.node_count(),
        "snapshot of another graph?"
    );
    refine_levels(pattern, csr, mates, level, threads, |_| |_, _| None::<()>).0
}

/// Algorithm 4.2's level loop, the one copy of it. `around(l)` runs just
/// before level `l` and returns what observes its `(pairs checked,
/// pairs removed)` (the matcher's per-level span lives there); the
/// observations that are `Some` come back in level order.
pub(crate) fn refine_levels<W, T>(
    pattern: &Pattern,
    csr: &CsrGraph,
    mates: &mut [Vec<NodeId>],
    level: usize,
    threads: usize,
    around: impl Fn(usize) -> W,
) -> (RefineStats, Vec<T>)
where
    W: FnOnce(u64, u64) -> Option<T>,
{
    let k = pattern.node_count();
    debug_assert_eq!(k, mates.len());
    let mut stats = RefineStats::default();
    let mut seen = Vec::new();
    if k == 0 || level == 0 {
        return (stats, seen);
    }
    // Per pattern node: the one interned label all its current
    // candidates share, if any (`IMPOSSIBLE_LABEL` for an empty
    // candidate set — no data node carries it, so label sub-rows come
    // back empty, exactly like probing an empty `feasible` set). Mixed
    // labels fall back to full-row scans (`None`).
    let labels: Vec<Option<u32>> = mates
        .iter()
        .map(|m| match m.split_first() {
            None => Some(gql_core::IMPOSSIBLE_LABEL),
            Some((first, rest)) => {
                let l = csr.node_label(*first);
                rest.iter().all(|v| csr.node_label(*v) == l).then_some(l)
            }
        })
        .collect();
    let labels = labels.as_slice();
    let n = csr.node_count();

    // Φ as one dense bitset per pattern node: O(1) membership probes
    // for the bipartite builds, O(k·n/64) words total.
    let mut feasible: Vec<BitSet> = mates
        .iter()
        .map(|m| {
            let mut b = BitSet::new(n);
            for v in m {
                b.set(v.0);
            }
            b
        })
        .collect();

    // Mark every pair ⟨u, v⟩ (Algorithm 4.2, line 2). The mark table is
    // a flat Vec<bool>; the worklist keeps the pairs themselves.
    let mut marked = vec![false; k * n];
    let mut worklist: Vec<(u32, u32)> = Vec::new();
    for (u, m) in mates.iter().enumerate() {
        for v in m {
            marked[u * n + v.index()] = true;
            worklist.push((u as u32, v.0));
        }
    }

    let workers = gql_core::resolve_threads(threads);
    let mut scratch = RefineScratch::new(n);

    for l in 1..=level {
        if worklist.is_empty() {
            break; // line 19
        }
        let observe = around(l);
        let checks = worklist.len() as u64;
        stats.iterations += 1;
        stats.bipartite_checks += checks;
        // Drain the marks of every pair being checked this level.
        for &(u, v) in &worklist {
            marked[u as usize * n + v as usize] = false;
        }
        // Check all pairs against the immutable level-(l−1) space; the
        // worklist fans out across workers in contiguous chunks, and
        // verdicts come back in worklist order, so the level is
        // deterministic at any worker count.
        let removals: Vec<(u32, u32)> = if workers <= 1 || worklist.len() < 2 {
            worklist
                .iter()
                .copied()
                .filter(|&(u, v)| scratch.pair_fails(pattern, csr, labels, &feasible, u, v))
                .collect()
        } else {
            check_level_parallel(pattern, csr, labels, &feasible, &worklist, workers)
        };
        stats.removed_per_level.push(removals.len() as u64);
        seen.extend(observe(checks, removals.len() as u64));
        if removals.is_empty() {
            break; // space stable: further levels cannot change it
        }
        // Apply removals (line 13, deferred to level end), then re-mark
        // affected neighbor pairs (lines 14–15).
        for &(u, v) in &removals {
            feasible[u as usize].unset(v);
            stats.removed += 1;
        }
        worklist.clear();
        for &(u, v) in &removals {
            for &(pu, _) in pattern.incident(NodeId(u)) {
                for e in candidate_row(csr, labels, v, pu.index()) {
                    // The mark table dedupes repeated row entries.
                    let slot = pu.index() * n + e.node as usize;
                    if feasible[pu.index()].contains(e.node) && !marked[slot] {
                        marked[slot] = true;
                        worklist.push((pu.0, e.node));
                    }
                }
            }
        }
    }

    // Write the reduced space back, preserving the original order.
    for (u, m) in mates.iter_mut().enumerate() {
        m.retain(|v| feasible[u].contains(v.0));
    }
    (stats, seen)
}

/// One level's checks across `workers` scoped threads. Each worker owns
/// a [`RefineScratch`] and processes a contiguous chunk; chunk results
/// are concatenated in order, so the removal list equals the sequential
/// one.
fn check_level_parallel(
    pattern: &Pattern,
    csr: &CsrGraph,
    labels: &[Option<u32>],
    feasible: &[BitSet],
    worklist: &[(u32, u32)],
    workers: usize,
) -> Vec<(u32, u32)> {
    let workers = workers.min(worklist.len());
    let chunk = worklist.len().div_ceil(workers);
    let parts: Vec<Vec<(u32, u32)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                // div_ceil chunks can overshoot: with 9 items over 8
                // workers (chunk = 2) worker 5 starts past the end.
                let lo = (w * chunk).min(worklist.len());
                let hi = ((w + 1) * chunk).min(worklist.len());
                let slice = &worklist[lo..hi];
                s.spawn(move || {
                    let mut scratch = RefineScratch::new(csr.node_count());
                    slice
                        .iter()
                        .copied()
                        .filter(|&(u, v)| scratch.pair_fails(pattern, csr, labels, feasible, u, v))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("refine worker panicked"))
            .collect()
    });
    parts.into_iter().flatten().collect()
}

/// Upper-bound estimate of the bipartite-check work `level` refinement
/// iterations can spend on the current space: each iteration checks at
/// most every surviving ⟨u, v⟩ pair, and each check costs on the order
/// of `deg(u) · |Φ|`-ish matching work — we report the pair-count bound
/// `Σ_u |Φ(u)| × level`, which is what the planner's refine-or-not
/// decision and EXPLAIN's `est_checks` annotation need (relative
/// magnitude, not an exact model).
pub fn estimated_refine_cost(mates: &[Vec<NodeId>], level: usize) -> f64 {
    let pairs: u64 = mates.iter().map(|m| m.len() as u64).sum();
    pairs as f64 * level as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feasible::{feasible_mates, LocalPruning};
    use crate::index::GraphIndex;
    use gql_core::fixtures::{
        figure_4_16_graph, figure_4_16_pattern, labeled_clique, labeled_path,
    };

    fn names(g: &Graph, vs: &[NodeId]) -> Vec<String> {
        vs.iter()
            .map(|&v| g.node(v).name.clone().unwrap())
            .collect()
    }

    /// Figure 4.18: starting from {A1,A2}×{B1,B2}×{C1,C2}, level 1
    /// removes A2 and C1; level 2 removes B2; the output is
    /// {A1}×{B1}×{C2}.
    #[test]
    fn figure_4_18_refinement_trace() {
        let (g, _) = figure_4_16_graph();
        let p = Pattern::structural(figure_4_16_pattern());
        let idx = GraphIndex::build(&g);
        let mut mates = feasible_mates(&p, &g, &idx, LocalPruning::NodeAttributes);

        // Level 1 only: A2 and C1 go, B2 survives (synchronous levels).
        let mut lvl1 = mates.clone();
        refine_search_space_csr(&p, &g, idx.csr(), &mut lvl1, 1, 1);
        assert_eq!(names(&g, &lvl1[0]), ["A1"], "A2 removed at level 1");
        assert_eq!(names(&g, &lvl1[1]), ["B1", "B2"]);
        assert_eq!(names(&g, &lvl1[2]), ["C2"], "C1 removed at level 1");

        // Level 2 removes B2.
        let stats = refine_search_space_csr(&p, &g, idx.csr(), &mut mates, 2, 1);
        assert_eq!(names(&g, &mates[0]), ["A1"]);
        assert_eq!(names(&g, &mates[1]), ["B1"]);
        assert_eq!(names(&g, &mates[2]), ["C2"]);
        assert_eq!(stats.removed, 3);
        assert!(stats.bipartite_checks > 0);
        assert_eq!(stats.iterations, 2);
    }

    #[test]
    fn refinement_is_sound_never_removes_real_matches() {
        // On a graph that *contains* the pattern, refinement must keep at
        // least one candidate per node.
        let g = labeled_clique(&["A", "B", "C", "D"]);
        let p = Pattern::structural(labeled_clique(&["A", "B", "C"]));
        let idx = GraphIndex::build(&g);
        let mut mates = feasible_mates(&p, &g, &idx, LocalPruning::NodeAttributes);
        refine_search_space_csr(&p, &g, idx.csr(), &mut mates, 10, 1);
        assert!(mates.iter().all(|m| m.len() == 1));
    }

    #[test]
    fn refinement_empties_space_for_absent_pattern() {
        // Path graph cannot contain a triangle: pseudo-iso refinement
        // should wipe the candidates.
        let g = labeled_path(&["A", "B", "C", "A", "B", "C"]);
        let p = Pattern::structural(labeled_clique(&["A", "B", "C"]));
        let idx = GraphIndex::build(&g);
        let mut mates = feasible_mates(&p, &g, &idx, LocalPruning::NodeAttributes);
        refine_search_space_csr(&p, &g, idx.csr(), &mut mates, 6, 1);
        assert!(
            mates.iter().any(|m| m.is_empty()),
            "triangle must be refuted on a path: {mates:?}"
        );
    }

    #[test]
    fn level_zero_is_identity() {
        let (g, _) = figure_4_16_graph();
        let p = Pattern::structural(figure_4_16_pattern());
        let idx = GraphIndex::build(&g);
        let mut mates = feasible_mates(&p, &g, &idx, LocalPruning::NodeAttributes);
        let before = mates.clone();
        let stats = refine_search_space_csr(&p, &g, idx.csr(), &mut mates, 0, 1);
        assert_eq!(mates, before);
        assert_eq!(stats, RefineStats::default());
    }

    #[test]
    fn worklist_terminates_early_when_stable() {
        let g = labeled_clique(&["A", "B", "C"]);
        let p = Pattern::structural(labeled_clique(&["A", "B", "C"]));
        let idx = GraphIndex::build(&g);
        let mut mates = feasible_mates(&p, &g, &idx, LocalPruning::NodeAttributes);
        let stats = refine_search_space_csr(&p, &g, idx.csr(), &mut mates, 100, 1);
        assert!(
            stats.iterations <= 2,
            "stable space should break out early, ran {}",
            stats.iterations
        );
    }

    #[test]
    fn directed_pattern_refinement_sees_in_edges() {
        // Directed chain A→B→C as data; pattern A→B→C must survive
        // refinement, pattern with reversed middle edge must be wiped.
        let mk = |rev: bool| {
            let mut g = Graph::new_directed();
            let a = g.add_labeled_node("A");
            let b = g.add_labeled_node("B");
            let c = g.add_labeled_node("C");
            g.add_edge(a, b, gql_core::Tuple::new()).unwrap();
            if rev {
                g.add_edge(c, b, gql_core::Tuple::new()).unwrap();
            } else {
                g.add_edge(b, c, gql_core::Tuple::new()).unwrap();
            }
            g
        };
        let data = mk(false);
        let idx = GraphIndex::build(&data);
        let p = Pattern::structural(mk(false));
        let mut mates = feasible_mates(&p, &data, &idx, LocalPruning::NodeAttributes);
        refine_search_space_csr(&p, &data, idx.csr(), &mut mates, 3, 1);
        assert!(mates.iter().all(|m| m.len() == 1));
    }

    /// Refinement with a span around each level (as the traced matcher
    /// runs it) changes nothing observable and records one
    /// `refine.level` event per performed iteration.
    #[test]
    fn traced_refinement_is_equivalent_and_records_levels() {
        let (g, _) = figure_4_16_graph();
        let p = Pattern::structural(figure_4_16_pattern());
        let idx = GraphIndex::build(&g);
        let base = feasible_mates(&p, &g, &idx, LocalPruning::NodeAttributes);
        let mut plain = base.clone();
        let plain_stats = refine_search_space_csr(&p, &g, idx.csr(), &mut plain, 4, 1);
        for threads in [1, 2, 8] {
            let tel = gql_core::Telemetry::new().with_tracing();
            let mut traced = base.clone();
            let (stats, levels) = refine_levels(&p, idx.csr(), &mut traced, 4, threads, |l| {
                let span = gql_core::Span::phase(Some(&tel), "refine.level", "match").at(l);
                move |_, removed| {
                    span.finish();
                    Some((l, removed))
                }
            });
            assert_eq!(levels.len(), stats.iterations, "threads={threads}");
            assert!(levels.iter().map(|&(l, _)| l).eq(1..=stats.iterations));
            assert_eq!(traced, plain, "threads={threads}");
            assert_eq!(stats, plain_stats, "threads={threads}");
            assert_eq!(
                tel.events().len(),
                stats.iterations,
                "one event per level, threads={threads}"
            );
        }
    }
}
