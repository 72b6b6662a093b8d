//! Retrieval and local pruning of feasible mates (§4.2, Definition 4.8).
//!
//! `Φ(u) = { v ∈ V(G) | F_u(v) }`, optionally tightened by requiring the
//! pattern node's radius-r neighborhood to be sub-isomorphic to the data
//! node's (retrieve-by-subgraphs), or the cheaper profile-subsequence
//! condition (retrieve-by-profiles). Figure 4.17 is reproduced in the
//! tests.
//!
//! Profile pruning runs on *interned* profiles only: the pattern profile
//! is encoded once as an [`gql_core::IdProfile`] and each candidate is
//! first screened by the O(1) 64-bit signature test against its
//! precomputed profile, then by the exact id-multiset containment — no
//! `Value` comparisons and no per-candidate profile clones. An index
//! without radius-r profiles computes each candidate's interned profile
//! from the CSR snapshot instead. The `Value`-typed kernel lives on as
//! the equivalence oracle in `tests/support`.

use crate::expr::{EvalCtx, Expr};
use crate::index::GraphIndex;
use crate::pattern::Pattern;
use gql_core::iso::subgraph_isomorphic_anchored;
use gql_core::{neighborhood_subgraph, Graph, NodeId, ProbeOp, Profile, ProfileScratch, Value};

/// Local pruning strategy for feasible-mate retrieval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LocalPruning {
    /// Node attributes only (the baseline of Figure 4.17, top row).
    #[default]
    NodeAttributes,
    /// Profiles of radius-r neighborhoods: multiset containment of label
    /// sequences. Low overhead, good pruning.
    Profiles {
        /// Neighborhood radius (the paper stores radius-1).
        radius: usize,
    },
    /// Full neighborhood subgraphs: anchored sub-isomorphism between
    /// r-balls. Strongest local pruning, highest overhead.
    Subgraphs {
        /// Neighborhood radius.
        radius: usize,
    },
}

/// Counters from a stats-collecting retrieval pass
/// ([`feasible_mates_stats_par`]). All quantities are logical (not
/// timing-dependent), so they are identical at every thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetrieveStats {
    /// Candidates surviving attribute retrieval and entering local
    /// pruning (summed over pattern nodes).
    pub candidates: u64,
    /// Candidates rejected by the O(1) profile length/signature screen.
    pub sig_rejected: u64,
    /// Candidates rejected by the exact containment / sub-isomorphism
    /// test after passing (or lacking) the signature screen.
    pub exact_rejected: u64,
    /// Candidates kept in `Φ` (`candidates - sig_rejected -
    /// exact_rejected`).
    pub kept: u64,
}

impl RetrieveStats {
    /// Folds another node's counters into this aggregate.
    pub fn absorb(&mut self, other: &RetrieveStats) {
        self.candidates += other.candidates;
        self.sig_rejected += other.sig_rejected;
        self.exact_rejected += other.exact_rejected;
        self.kept += other.kept;
    }
}

/// How retrieval produced one pattern node's candidate set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AccessPath {
    /// Label bucket (or full node table) scanned with per-candidate
    /// feasibility checks — the only path before property indexes.
    #[default]
    BucketScan,
    /// Sorted-run probes answered the node completely; no per-candidate
    /// predicate evaluation ran.
    IndexProbe,
    /// Probes narrowed the bucket, then the non-indexable residue of
    /// `F_u` was evaluated over the (much smaller) probe result.
    ProbeResidual,
}

impl AccessPath {
    /// Stable lower-case name used in EXPLAIN trees and plan dumps.
    pub fn name(self) -> &'static str {
        match self {
            AccessPath::BucketScan => "bucket_scan",
            AccessPath::IndexProbe => "index_probe",
            AccessPath::ProbeResidual => "probe_residual",
        }
    }
}

/// Per-pattern-node record of the retrieval access decision. Purely
/// observational: the candidate set is byte-identical whichever path ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetrieveAccess {
    /// The path retrieval took.
    pub path: AccessPath,
    /// Label-bucket size (full node count for unlabeled motif nodes).
    pub bucket: u64,
    /// Candidates that survived the index probes and entered the
    /// residual filter (equals `bucket` on the scan path).
    pub probed: u64,
}

/// Decomposes a pushed-down predicate into `(attr, op, key)` when a
/// sorted run can answer it: a comparison between this node's attribute
/// and a literal, in either orientation. Anything else (arithmetic,
/// `!=`, attr-vs-attr) stays on the scan side.
fn indexable_probe(pred: &Expr, u: NodeId) -> Option<(&str, ProbeOp, &Value)> {
    let Expr::Binary { op, lhs, rhs } = pred else {
        return None;
    };
    let op = ProbeOp::from_binop(*op)?;
    match (lhs.as_ref(), rhs.as_ref()) {
        (Expr::NodeAttr { node, attr }, Expr::Literal(key)) if *node == u.index() => {
            Some((attr.as_str(), op, key))
        }
        (Expr::Literal(key), Expr::NodeAttr { node, attr }) if *node == u.index() => {
            Some((attr.as_str(), op.flip(), key))
        }
        _ => None,
    }
}

/// Intersection of two ascending id lists, ascending. Shared with the
/// search phase's edge-probe compiler.
pub(crate) fn intersect_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Indexed retrieval when the motif pins the label, else a scan.
///
/// With a property index present, equality/range predicates against
/// literals are answered by sorted-run probes intersected in id order;
/// the non-indexable residue (and any extra structural attributes) is
/// then evaluated only over the probe survivors. Every path yields the
/// same candidates in the same (ascending node) order — the access
/// record reports which one ran and how much it narrowed.
fn retrieve(
    pattern: &Pattern,
    g: &Graph,
    index: &GraphIndex,
    u: NodeId,
) -> (Vec<NodeId>, RetrieveAccess) {
    let attrs = &pattern.graph.node(u).attrs;
    let Some(label) = attrs.get("label") else {
        let n = g.node_count() as u64;
        let mates = g
            .node_ids()
            .filter(|&v| pattern.node_feasible(u, g, v))
            .collect();
        return (
            mates,
            RetrieveAccess {
                path: AccessPath::BucketScan,
                bucket: n,
                probed: n,
            },
        );
    };
    let bucket = index.nodes_with_label(label);
    let scan_access = RetrieveAccess {
        path: AccessPath::BucketScan,
        bucket: bucket.len() as u64,
        probed: bucket.len() as u64,
    };
    // When the motif constrains exactly `{label}` with no tag, every
    // bucket member satisfies the structural part of `F_u` by
    // construction of the label index.
    let structural_only = attrs.len() == 1 && attrs.tag().is_none();
    let preds = &pattern.node_preds[u.index()];
    if structural_only && preds.is_empty() {
        return (bucket.to_vec(), scan_access);
    }
    if let (Some(pi), Some(lid)) = (index.prop(), index.interner().lookup(label)) {
        let mut residual: Vec<&Expr> = Vec::new();
        let mut merged: Option<Vec<u32>> = None;
        let mut absent_run = false;
        for pred in preds {
            match indexable_probe(pred, u) {
                Some((attr, op, key)) => {
                    if absent_run {
                        continue;
                    }
                    match pi.probe_nodes(lid, attr, op, key) {
                        // No node of this label carries the attribute:
                        // the predicate is Undefined for the whole
                        // bucket, so the candidate set is empty.
                        None => absent_run = true,
                        Some(ids) => {
                            merged = Some(match merged {
                                None => ids,
                                Some(prev) => intersect_sorted(&prev, &ids),
                            });
                        }
                    }
                }
                None => residual.push(pred),
            }
        }
        if absent_run {
            return (
                Vec::new(),
                RetrieveAccess {
                    path: AccessPath::IndexProbe,
                    bucket: bucket.len() as u64,
                    probed: 0,
                },
            );
        }
        if let Some(ids) = merged {
            let probed = ids.len() as u64;
            // Fully answered by probes: the ids are exactly the bucket
            // members satisfying `F_u`, already ascending.
            if structural_only && residual.is_empty() {
                return (
                    ids.into_iter().map(NodeId).collect(),
                    RetrieveAccess {
                        path: AccessPath::IndexProbe,
                        bucket: bucket.len() as u64,
                        probed,
                    },
                );
            }
            // Evaluate only the residue over the probe survivors; the
            // probed conjuncts are already satisfied. One bind vector
            // per pattern node instead of one per candidate.
            let mut binds = vec![None; pattern.node_count()];
            let mut mates = Vec::with_capacity(ids.len());
            for id in ids {
                let v = NodeId(id);
                if !structural_only && !attrs.subsumes(&g.node(v).attrs) {
                    continue;
                }
                binds[u.index()] = Some(v);
                let ctx = EvalCtx {
                    graph: g,
                    node_bind: &binds,
                    edge_bind: &[],
                };
                if residual.iter().all(|p| p.holds(&ctx)) {
                    mates.push(v);
                }
            }
            return (
                mates,
                RetrieveAccess {
                    path: AccessPath::ProbeResidual,
                    bucket: bucket.len() as u64,
                    probed,
                },
            );
        }
    }
    let mates = bucket
        .iter()
        .copied()
        .filter(|&v| pattern.node_feasible(u, g, v))
        .collect();
    (mates, scan_access)
}

/// Planner-facing estimate of how many candidates the access path will
/// keep for pattern node `u`, from the recorded run summaries: equality
/// probes estimate `entries / distinct` (uniform values), range probes
/// half the run, scans the label frequency (or the node count when
/// unlabeled). Advisory only — execution never branches on it.
pub fn estimated_access(pattern: &Pattern, index: &GraphIndex, u: NodeId) -> u64 {
    let stats = index.stats();
    let Some(label) = pattern.graph.node(u).attrs.get("label") else {
        return stats.node_count();
    };
    let mut est = stats.node_label_freq(label) as f64;
    if let (true, Some(lid)) = (index.prop().is_some(), index.interner().lookup(label)) {
        for pred in &pattern.node_preds[u.index()] {
            let Some((attr, op, _)) = indexable_probe(pred, u) else {
                continue;
            };
            let Some((len, distinct)) = stats.prop_run(lid, attr) else {
                return 0; // no run: no node of the label has the attr
            };
            let probe_est = match op {
                ProbeOp::Eq => len as f64 / distinct.max(1) as f64,
                _ => len as f64 / 2.0,
            };
            est = est.min(probe_est);
        }
    }
    est.ceil() as u64
}

/// Where local pruning reports the candidates it rejects. Statically
/// dispatched: [`mates_for`] is monomorphised once over [`NoStats`] —
/// whose calls compile to nothing, so the un-instrumented candidate loop
/// stays branch-free — and once over the counting [`RetrieveStats`].
trait RejectSink {
    /// `n` candidates failed the O(1) profile length/signature screen.
    fn sig_rejected(&mut self, n: u64);
    /// `n` candidates failed the exact containment / sub-isomorphism test.
    fn exact_rejected(&mut self, n: u64);
}

/// The zero-sized no-op sink of the un-instrumented kernel.
struct NoStats;

impl RejectSink for NoStats {
    #[inline(always)]
    fn sig_rejected(&mut self, _: u64) {}
    #[inline(always)]
    fn exact_rejected(&mut self, _: u64) {}
}

impl RejectSink for RetrieveStats {
    #[inline]
    fn sig_rejected(&mut self, n: u64) {
        self.sig_rejected += n;
    }
    #[inline]
    fn exact_rejected(&mut self, n: u64) {
        self.exact_rejected += n;
    }
}

/// Computes `Φ(u)` for one pattern node: retrieval, then local pruning
/// with every rejected candidate attributed to `sink`.
fn mates_for<S: RejectSink>(
    pattern: &Pattern,
    g: &Graph,
    index: &GraphIndex,
    pruning: LocalPruning,
    u: NodeId,
    sink: &mut S,
) -> (Vec<NodeId>, RetrieveAccess) {
    let (mut base, access) = retrieve(pattern, g, index, u);
    match pruning {
        LocalPruning::NodeAttributes => {}
        LocalPruning::Profiles { radius } => {
            let precomputed = index.has_profiles() && index.radius() == radius;
            let pu = Profile::of_neighborhood(&pattern.graph, u, radius);
            // Encode the pattern profile once.
            match index.interner().encode_profile(&pu) {
                None => {
                    // An unencodable profile contains a label absent from
                    // the data graph, so nothing can subsume it: the whole
                    // base is rejected, by the (vacuous) signature screen
                    // when the index carries the profiles.
                    let n = base.len() as u64;
                    if precomputed {
                        sink.sig_rejected(n);
                    } else {
                        sink.exact_rejected(n);
                    }
                    base.clear();
                }
                Some(pid) if precomputed => base.retain(|&v| {
                    let pv = index.id_profile(v);
                    if pid.signature_rejects(pv) {
                        sink.sig_rejected(1);
                        false
                    } else if !pid.contained_exact(pv) {
                        sink.exact_rejected(1);
                        false
                    } else {
                        true
                    }
                }),
                Some(pid) => {
                    // Index lacks radius-`radius` profiles: compute each
                    // candidate's with the build's BFS over the CSR.
                    let mut scratch = ProfileScratch::new();
                    base.retain(|&v| {
                        let pv = index.csr().id_profile(v, radius, &mut scratch);
                        let keep = pid.contained_exact(&pv);
                        if !keep {
                            sink.exact_rejected(1);
                        }
                        keep
                    });
                }
            }
        }
        LocalPruning::Subgraphs { radius } => {
            let nu = neighborhood_subgraph(&pattern.graph, u, radius);
            base.retain(|&v| {
                let keep = if index.has_neighborhoods() && index.radius() == radius {
                    let nv = index.neighborhood(v);
                    subgraph_isomorphic_anchored(&nu.graph, &nv.graph, (nu.center, nv.center))
                } else {
                    let nv = neighborhood_subgraph(g, v, radius);
                    subgraph_isomorphic_anchored(&nu.graph, &nv.graph, (nu.center, nv.center))
                };
                if !keep {
                    sink.exact_rejected(1);
                }
                keep
            });
        }
    }
    (base, access)
}

/// Computes feasible mates `Φ(u)` for every pattern node.
///
/// Retrieval is by indexed access when the pattern node constrains the
/// `label` attribute ("indexed access to the node attributes, followed by
/// pruning using neighborhood subgraphs or profiles"), else by a scan.
pub fn feasible_mates(
    pattern: &Pattern,
    g: &Graph,
    index: &GraphIndex,
    pruning: LocalPruning,
) -> Vec<Vec<NodeId>> {
    feasible_mates_access_par(pattern, g, index, pruning, 1).0
}

/// [`feasible_mates`] with the per-pattern-node work spread across
/// `threads` workers (`0` = available cores; each `Φ(u)` is independent,
/// so the result is identical for every thread count), additionally
/// reporting the per-pattern-node [`RetrieveAccess`] decision (which
/// access path ran and how much it narrowed).
pub fn feasible_mates_access_par(
    pattern: &Pattern,
    g: &Graph,
    index: &GraphIndex,
    pruning: LocalPruning,
    threads: usize,
) -> (Vec<Vec<NodeId>>, Vec<RetrieveAccess>) {
    let ids: Vec<NodeId> = pattern.graph.node_ids().collect();
    let pairs = gql_core::par_map_slice(&ids, threads, |&u| {
        mates_for(pattern, g, index, pruning, u, &mut NoStats)
    });
    pairs.into_iter().unzip()
}

/// [`feasible_mates_access_par`]'s mates plus [`RetrieveStats`]
/// attributing pruned candidates to the signature screen vs. the exact
/// test. The stats are identical at every thread count.
pub fn feasible_mates_stats_par(
    pattern: &Pattern,
    g: &Graph,
    index: &GraphIndex,
    pruning: LocalPruning,
    threads: usize,
) -> (Vec<Vec<NodeId>>, RetrieveStats) {
    let (mates, _, stats, _) = retrieve_nodes(pattern, g, index, pruning, threads, |_| |_: &_| ());
    (mates, stats)
}

/// One pattern node's retrieval: `Φ(u)`, its [`RetrieveStats`], and
/// its [`RetrieveAccess`] decision.
pub(crate) type NodeMates = (Vec<NodeId>, RetrieveStats, RetrieveAccess);

/// The stats-collecting retrieval, one pattern node per work item on
/// `threads` workers. `around(u)` runs on the worker just before node
/// `u`'s retrieval and returns what observes its result (the matcher's
/// per-node span lives there). Returns the mates, the access records,
/// the aggregate stats, and the observations, all in node order.
pub(crate) fn retrieve_nodes<W, T>(
    pattern: &Pattern,
    g: &Graph,
    index: &GraphIndex,
    pruning: LocalPruning,
    threads: usize,
    around: impl Fn(NodeId) -> W + Sync,
) -> (Vec<Vec<NodeId>>, Vec<RetrieveAccess>, RetrieveStats, Vec<T>)
where
    W: FnOnce(&NodeMates) -> T,
    T: Send,
{
    let ids: Vec<NodeId> = pattern.graph.node_ids().collect();
    let per_node = gql_core::par_map_slice(&ids, threads, |&u| {
        let observe = around(u);
        let mut s = RetrieveStats::default();
        let (m, a) = mates_for(pattern, g, index, pruning, u, &mut s);
        // Every candidate entering local pruning is either kept or
        // charged to exactly one of the two reject counters.
        s.kept = m.len() as u64;
        s.candidates = s.kept + s.sig_rejected + s.exact_rejected;
        let node = (m, s, a);
        let seen = observe(&node);
        (node, seen)
    });
    let mut stats = RetrieveStats::default();
    let (mut mates, mut access, mut seen) = (Vec::new(), Vec::new(), Vec::new());
    for ((m, s, a), t) in per_node {
        stats.absorb(&s);
        mates.push(m);
        access.push(a);
        seen.push(t);
    }
    (mates, access, stats, seen)
}

/// Natural log of the search-space size `|Φ(u1)| × .. × |Φ(uk)|`
/// (Definition 4.9), in log-space because Figures 4.20/4.22 report
/// ratios down to 1e-40. Empty feasible sets yield `f64::NEG_INFINITY`.
pub fn search_space_ln(mates: &[Vec<NodeId>]) -> f64 {
    mates
        .iter()
        .map(|m| {
            if m.is_empty() {
                f64::NEG_INFINITY
            } else {
                (m.len() as f64).ln()
            }
        })
        .sum()
}

/// The reduction ratio of Definition in §5.1:
/// `(|Φ|...)/(|Φ0|...)` computed from the two log-space sizes.
pub fn reduction_ratio(space_ln: f64, baseline_ln: f64) -> f64 {
    if baseline_ln == f64::NEG_INFINITY {
        return 1.0; // baseline already empty: nothing to reduce
    }
    (space_ln - baseline_ln).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gql_core::fixtures::{figure_4_16_graph, figure_4_16_pattern};

    fn setup() -> (Pattern, Graph, GraphIndex) {
        let (g, _) = figure_4_16_graph();
        let p = Pattern::structural(figure_4_16_pattern());
        let idx = GraphIndex::build_full(&g, 1);
        (p, g, idx)
    }

    fn names(g: &Graph, vs: &[NodeId]) -> Vec<String> {
        vs.iter()
            .map(|&v| g.node(v).name.clone().unwrap())
            .collect()
    }

    /// Figure 4.17, top: retrieve by nodes gives
    /// {A1,A2} × {B1,B2} × {C1,C2}.
    #[test]
    fn retrieve_by_node_attributes() {
        let (p, g, idx) = setup();
        let m = feasible_mates(&p, &g, &idx, LocalPruning::NodeAttributes);
        assert_eq!(names(&g, &m[0]), ["A1", "A2"]);
        assert_eq!(names(&g, &m[1]), ["B1", "B2"]);
        assert_eq!(names(&g, &m[2]), ["C1", "C2"]);
        assert!((search_space_ln(&m) - (8f64).ln()).abs() < 1e-12);
    }

    /// Figure 4.17, middle: retrieve by neighborhood subgraphs gives
    /// {A1} × {B1} × {C2}.
    #[test]
    fn retrieve_by_subgraphs() {
        let (p, g, idx) = setup();
        let m = feasible_mates(&p, &g, &idx, LocalPruning::Subgraphs { radius: 1 });
        assert_eq!(names(&g, &m[0]), ["A1"]);
        assert_eq!(names(&g, &m[1]), ["B1"]);
        assert_eq!(names(&g, &m[2]), ["C2"]);
    }

    /// Figure 4.17, bottom: retrieve by profiles gives
    /// {A1} × {B1,B2} × {C2}.
    #[test]
    fn retrieve_by_profiles() {
        let (p, g, idx) = setup();
        let m = feasible_mates(&p, &g, &idx, LocalPruning::Profiles { radius: 1 });
        assert_eq!(names(&g, &m[0]), ["A1"]);
        assert_eq!(names(&g, &m[1]), ["B1", "B2"]);
        assert_eq!(names(&g, &m[2]), ["C2"]);
    }

    /// Profiles computed on the fly (index without precomputation) agree
    /// with the precomputed path.
    #[test]
    fn profile_pruning_without_precomputation() {
        let (p, g, _) = setup();
        let plain = GraphIndex::build(&g);
        let m = feasible_mates(&p, &g, &plain, LocalPruning::Profiles { radius: 1 });
        assert_eq!(names(&g, &m[0]), ["A1"]);
        assert_eq!(names(&g, &m[1]), ["B1", "B2"]);
        assert_eq!(names(&g, &m[2]), ["C2"]);
        // Without precomputed profiles there is no signature screen: a
        // pattern label absent from the data charges the whole base to
        // the exact test.
        let zp = Pattern::structural(gql_core::fixtures::labeled_path(&["A", "Z"]));
        let pruning = LocalPruning::Profiles { radius: 1 };
        let (zm, zs) = feasible_mates_stats_par(&zp, &g, &plain, pruning, 1);
        assert!(zm.iter().all(|m| m.is_empty()));
        assert_eq!((zs.sig_rejected, zs.exact_rejected), (0, zs.candidates));
        assert!(zs.candidates > 0);
    }

    /// The per-node stats observed through `retrieve_nodes` return the
    /// same mates as the plain kernel, sum to the aggregate, and a
    /// traced match records one retrieval event per pattern node.
    #[test]
    fn per_node_stats_agree_with_aggregate_and_trace_records() {
        let (p, g, idx) = setup();
        let pruning = LocalPruning::Profiles { radius: 1 };
        let (mates, agg) = feasible_mates_stats_par(&p, &g, &idx, pruning, 1);
        assert_eq!(mates, feasible_mates(&p, &g, &idx, pruning));
        let observed = |u: NodeId| move |n: &NodeMates| (u, n.0.clone(), n.1);
        let (_, _, _, per_node) = retrieve_nodes(&p, &g, &idx, pruning, 2, observed);
        let mut sum = RetrieveStats::default();
        for (u, m, s) in per_node {
            assert_eq!(m, mates[u.index()]);
            sum.absorb(&s);
        }
        assert_eq!(sum, agg);
        for threads in [1, 2, 8] {
            assert_eq!(
                feasible_mates_stats_par(&p, &g, &idx, pruning, threads),
                (mates.clone(), agg),
                "threads={threads}"
            );
            let tel = std::sync::Arc::new(gql_core::Telemetry::new().with_tracing());
            let opts = crate::MatchOptions {
                pruning,
                threads,
                telemetry: Some(std::sync::Arc::clone(&tel)),
                ..crate::MatchOptions::default()
            };
            crate::match_pattern(&p, &g, &idx, &opts);
            let per_node = tel
                .events()
                .iter()
                .filter(|e| e.name.starts_with("retrieve.node["))
                .count();
            assert_eq!(per_node, p.node_count(), "one event per pattern node");
        }
    }

    /// A graph where every node carries a `year` attribute, for probe
    /// tests: labels A/B alternate, years cycle 2000..2010.
    fn attr_graph() -> Graph {
        let mut g = Graph::new();
        for i in 0..60i64 {
            let label = if i % 2 == 0 { "A" } else { "B" };
            let mut t = gql_core::Tuple::new()
                .with("label", label)
                .with("year", 2000 + (i % 10));
            if i % 5 == 0 {
                t.set("flag", i % 3);
            }
            g.add_node(t);
        }
        for i in 0..59u32 {
            g.add_edge(NodeId(i), NodeId(i + 1), gql_core::Tuple::new())
                .unwrap();
        }
        g
    }

    fn probe_pattern(preds: Vec<crate::expr::Expr>) -> Pattern {
        let mut motif = Graph::new();
        let a = motif.add_node(gql_core::Tuple::new().with("label", "A"));
        let b = motif.add_node(gql_core::Tuple::new().with("label", "B"));
        motif.add_edge(a, b, gql_core::Tuple::new()).unwrap();
        Pattern::new(motif, preds)
    }

    /// Probe retrieval and scan retrieval produce byte-identical mates
    /// for equality, ranges, mirrored orientation, and conjunctions,
    /// and the access record names the path that ran.
    #[test]
    fn probe_paths_match_scan_paths() {
        use crate::expr::{BinOp, Expr};
        let g = attr_graph();
        let indexed = GraphIndex::build_with_profiles(&g, 1);
        let scan_only = GraphIndex::build_with(
            &g,
            &crate::index::IndexOptions {
                prop_index: false,
                ..Default::default()
            },
        );
        assert!(indexed.prop().is_some());
        assert!(scan_only.prop().is_none());
        let cases: Vec<(Vec<Expr>, AccessPath)> = vec![
            // Single fully-indexed equality: probe answers directly.
            (
                vec![Expr::node_attr_eq(0, "year", 2004)],
                AccessPath::IndexProbe,
            ),
            // Range predicate.
            (
                vec![Expr::binary(
                    BinOp::Ge,
                    Expr::node_attr(0, "year"),
                    Expr::Literal(2007.into()),
                )],
                AccessPath::IndexProbe,
            ),
            // Mirrored orientation: `2007 > year` is `year < 2007`.
            (
                vec![Expr::binary(
                    BinOp::Gt,
                    Expr::Literal(2007.into()),
                    Expr::node_attr(0, "year"),
                )],
                AccessPath::IndexProbe,
            ),
            // Two indexable conjuncts intersect.
            (
                vec![
                    Expr::binary(
                        BinOp::Ge,
                        Expr::node_attr(0, "year"),
                        Expr::Literal(2003.into()),
                    ),
                    Expr::binary(
                        BinOp::Le,
                        Expr::node_attr(0, "year"),
                        Expr::Literal(2006.into()),
                    ),
                ],
                AccessPath::IndexProbe,
            ),
            // Indexable + non-indexable (`!=`): probe then residual.
            (
                vec![
                    Expr::node_attr_eq(0, "year", 2004),
                    Expr::binary(
                        BinOp::Ne,
                        Expr::node_attr(0, "flag"),
                        Expr::Literal(1.into()),
                    ),
                ],
                AccessPath::ProbeResidual,
            ),
            // Attribute carried by only some nodes.
            (
                vec![Expr::node_attr_eq(0, "flag", 0)],
                AccessPath::IndexProbe,
            ),
            // Attribute carried by no node: absent-run short-circuit.
            (
                vec![Expr::node_attr_eq(0, "nope", 1)],
                AccessPath::IndexProbe,
            ),
            // Non-indexable only: falls back to the scan.
            (
                vec![Expr::binary(
                    BinOp::Ne,
                    Expr::node_attr(0, "year"),
                    Expr::Literal(2004.into()),
                )],
                AccessPath::BucketScan,
            ),
        ];
        for (preds, want_path) in cases {
            let p = probe_pattern(preds.clone());
            for pruning in [
                LocalPruning::NodeAttributes,
                LocalPruning::Profiles { radius: 1 },
            ] {
                let (probed, access) = feasible_mates_access_par(&p, &g, &indexed, pruning, 1);
                let (scanned, scan_access) =
                    feasible_mates_access_par(&p, &g, &scan_only, pruning, 1);
                assert_eq!(probed, scanned, "{preds:?} {pruning:?}");
                assert_eq!(access[0].path, want_path, "{preds:?}");
                assert_eq!(scan_access[0].path, AccessPath::BucketScan, "{preds:?}");
                // Node 1 has no predicate: plain bucket fast path.
                assert_eq!(access[1].path, AccessPath::BucketScan);
                for threads in [2, 8] {
                    assert_eq!(
                        feasible_mates_access_par(&p, &g, &indexed, pruning, threads).0,
                        probed,
                        "{preds:?} threads={threads}"
                    );
                }
                // Stats path agrees and counts candidates post-retrieve.
                let (sm, ss) = feasible_mates_stats_par(&p, &g, &indexed, pruning, 1);
                let (cm, cs) = feasible_mates_stats_par(&p, &g, &scan_only, pruning, 1);
                assert_eq!(sm, cm, "{preds:?} {pruning:?}");
                assert_eq!(ss, cs, "{preds:?} {pruning:?}");
            }
        }
    }

    /// The access record's probed count narrows with selectivity and the
    /// estimate helper tracks run summaries.
    #[test]
    fn access_records_and_estimates() {
        use crate::expr::Expr;
        let g = attr_graph();
        let idx = GraphIndex::build(&g);
        let p = probe_pattern(vec![Expr::node_attr_eq(0, "year", 2004)]);
        let (mates, access) =
            feasible_mates_access_par(&p, &g, &idx, LocalPruning::NodeAttributes, 1);
        assert_eq!(access[0].bucket, 30);
        assert_eq!(access[0].probed, mates[0].len() as u64);
        assert!(access[0].probed < access[0].bucket);
        // A-nodes are even ids, so `year = 2000 + (i % 10)` takes the 5
        // even offsets: eq estimate = 30 / 5 = 6.
        assert_eq!(estimated_access(&p, &idx, NodeId(0)), 6);
        // Unconstrained node: label frequency.
        assert_eq!(estimated_access(&p, &idx, NodeId(1)), 30);
        // Without the prop index the estimate is the label frequency.
        let scan_only = GraphIndex::build_with(
            &g,
            &crate::index::IndexOptions {
                prop_index: false,
                ..Default::default()
            },
        );
        assert_eq!(estimated_access(&p, &scan_only, NodeId(0)), 30);
    }

    #[test]
    fn reduction_ratio_matches_hand_computation() {
        let (p, g, idx) = setup();
        let base = feasible_mates(&p, &g, &idx, LocalPruning::NodeAttributes);
        let prof = feasible_mates(&p, &g, &idx, LocalPruning::Profiles { radius: 1 });
        let r = reduction_ratio(search_space_ln(&prof), search_space_ln(&base));
        assert!((r - 2.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn empty_space_is_neg_infinity() {
        let (p, g, idx) = setup();
        let mut m = feasible_mates(&p, &g, &idx, LocalPruning::NodeAttributes);
        m[1].clear();
        assert_eq!(search_space_ln(&m), f64::NEG_INFINITY);
        assert_eq!(reduction_ratio(f64::NEG_INFINITY, f64::NEG_INFINITY), 1.0);
    }
}
