//! Feedback-driven query planner: compiled-plan cache + statistics.
//!
//! [`match_pattern`](crate::match_pattern) re-derives its greedy join
//! order, γ estimates, refinement decision, and per-edge check plans on
//! every call. For hot (repeated) queries that work is pure overhead:
//! the inputs — the pattern, the graph generation, and the candidate
//! sets — are the same every time. This module memoizes the compiled
//! artifacts behind a [`Planner`] handle:
//!
//! - **Keys** ([`plan_key`]): a renaming-invariant *shape* hash
//!   ([`gql_core::shape_key`] over label/predicate seeds) groups
//!   isomorphic motifs for feedback sharing, while an exact *instance*
//!   fingerprint (variable order kept, planning-relevant options folded
//!   in) keeps symmetric renamings from swapping plans. Keys carry the
//!   graph scope (σ matches a collection's graphs concurrently) and the
//!   cache generation (bumped on mutation, mirroring the engine index
//!   cache).
//! - **Feedback** ([`gql_core::ShapeFeedback`]): each run records its
//!   candidate space, pruning yield, and cardinality per (shape, graph
//!   scope); later plannings consult the slot to decide whether
//!   refinement pays ([`decide_refine_level`]) and to correct the
//!   expected-cardinality annotations in EXPLAIN. Feedback lives in
//!   memory only, beside the plan cache: a reopened database starts
//!   from none.
//!
//! **Determinism contract.** A cached plan is *validated, then reused*:
//! on a hit the matcher compares the stored post-refinement candidate
//! sizes against the run's actual ones, and any mismatch recomputes the
//! order from the actuals — which is exactly the computation the
//! unplanned path would do. Since the §4.4 optimizer is a pure function
//! of (pattern, candidate sizes, static stats), results stay
//! byte-identical to the unplanned path in every case; the cache can
//! only skip work, never change answers. Feedback likewise only drives
//! result-preserving decisions (refinement removes no answers, so
//! skipping it is safe) and annotations.

use crate::matcher::{MatchOptions, RefineLevel};
use crate::pattern::Pattern;
use crate::search::EdgeChecks;
use gql_core::plan::{PlanCache, PlanKey, ShapeDesc, ShapeFeedback};
use gql_core::{shape_key, Value};
use rustc_hash::FxHashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

/// A motif's compiled execution artifacts, valid for one (pattern
/// instance, graph generation, planning options) combination.
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    /// The §4.4 search order chosen when the plan was compiled.
    pub order: Vec<usize>,
    /// Estimated `Cost(Γ)` of that order.
    pub estimated_cost: f64,
    /// Estimated partial-mapping cardinality after each join of
    /// `order` (Definition 4.12's `Size(i)` sequence).
    pub est_join_sizes: Vec<f64>,
    /// The resolved refinement level (the [`RefineLevel::Auto`]
    /// decision is cached with the plan).
    pub refine_level: usize,
    /// True when [`RefineLevel::Auto`] decided refinement doesn't pay.
    pub refine_skipped: bool,
    /// Post-refinement candidate-set sizes observed at compile time —
    /// the expectations a later hit is validated against.
    pub refined_sizes: Vec<u32>,
    /// Per-pattern-node retrieval access path the compile-time run
    /// chose. Advisory: execution re-decides from the live index (the
    /// decision is a pure function of pattern and index, so it can't
    /// drift); this is kept so EXPLAIN and tooling can show what the
    /// plan did without re-running retrieval.
    pub access_paths: Vec<crate::feasible::AccessPath>,
    /// Precompiled per-pattern-edge label checks for the search phase.
    pub checks: EdgeChecks,
}

#[derive(Debug, Default)]
struct PlannerState {
    cache: PlanCache<Arc<CompiledPlan>>,
    /// Last run's feedback per `(shape, graph scope)`.
    shapes: FxHashMap<(u64, u64), ShapeFeedback>,
}

/// Shared planning state for one graph collection: the compiled-plan
/// cache plus the per-shape feedback slots, both invalidated together
/// when the underlying graphs mutate. Cheap to share across threads
/// (σ's per-graph workers hit disjoint key scopes).
#[derive(Debug, Default)]
pub struct Planner {
    inner: Mutex<PlannerState>,
}

impl Planner {
    /// Creates an empty planner at generation 0.
    pub fn new() -> Self {
        Planner::default()
    }

    /// Current cache generation; bumped by [`Planner::invalidate`].
    pub fn generation(&self) -> u64 {
        self.inner.lock().unwrap().cache.generation()
    }

    /// Drops every cached plan and all feedback and bumps the
    /// generation — call whenever the underlying graphs mutate.
    pub fn invalidate(&self) {
        let mut s = self.inner.lock().unwrap();
        s.cache.invalidate();
        s.shapes.clear();
    }

    /// Raises the plan-cache generation to `generation` (no-op when
    /// already at or past it). The engine calls this when it builds a
    /// `GraphSnapshot`, so `PlanKey::generation` and the snapshot
    /// generation agree; feedback is kept — it describes the same
    /// data, only the epoch label changes.
    pub fn advance_generation(&self, generation: u64) {
        self.inner.lock().unwrap().cache.advance_to(generation);
    }

    /// Cached plan for `key`, if compiled this generation.
    pub fn lookup(&self, key: &PlanKey) -> Option<Arc<CompiledPlan>> {
        self.inner.lock().unwrap().cache.lookup(key).cloned()
    }

    /// Stores a freshly compiled (or adapted) plan.
    pub fn insert(&self, key: PlanKey, plan: Arc<CompiledPlan>) {
        self.inner.lock().unwrap().cache.insert(key, plan);
    }

    /// Last recorded feedback for `(shape, scope)`.
    pub fn shape_feedback(&self, shape: u64, scope: u64) -> Option<ShapeFeedback> {
        self.inner
            .lock()
            .unwrap()
            .shapes
            .get(&(shape, scope))
            .copied()
    }

    /// Records one run's shape feedback: the last-run fields replace the
    /// slot's, `runs` counts the runs recorded so far.
    pub fn record_shape(&self, shape: u64, scope: u64, mut fb: ShapeFeedback) {
        let mut s = self.inner.lock().unwrap();
        let slot = s.shapes.entry((shape, scope)).or_default();
        fb.runs = slot.runs + 1;
        *slot = fb;
    }

    /// `(hits, misses)` of the plan cache so far.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.inner.lock().unwrap().cache.stats()
    }

    /// Number of live cached plans.
    pub fn cached_plans(&self) -> usize {
        self.inner.lock().unwrap().cache.len()
    }
}

/// Sentinel substituted for a predicate's own node/edge index so that
/// renamed-but-isomorphic motifs produce identical seeds.
const OWN: u64 = u64::MAX;

fn hash_value(h: &mut rustc_hash::FxHasher, v: &Value) {
    v.hash(h);
}

fn hash_tuple(h: &mut rustc_hash::FxHasher, t: &gql_core::Tuple) {
    match t.tag() {
        Some(tag) => {
            h.write_u8(1);
            tag.hash(h);
        }
        None => h.write_u8(0),
    }
    for (k, v) in t.iter() {
        k.hash(h);
        hash_value(h, v);
    }
}

/// Structural fingerprint of a predicate expression with the owning
/// node/edge index masked out (so `a.w > 3` on node 0 and the renamed
/// `b.w > 3` on node 2 hash identically).
fn hash_expr(
    h: &mut rustc_hash::FxHasher,
    e: &crate::expr::Expr,
    own_node: Option<usize>,
    own_edge: Option<usize>,
) {
    use crate::expr::Expr;
    match e {
        Expr::Literal(v) => {
            h.write_u8(1);
            hash_value(h, v);
        }
        Expr::NodeAttr { node, attr } => {
            h.write_u8(2);
            h.write_u64(if own_node == Some(*node) {
                OWN
            } else {
                *node as u64
            });
            attr.hash(h);
        }
        Expr::EdgeAttr { edge, attr } => {
            h.write_u8(3);
            h.write_u64(if own_edge == Some(*edge) {
                OWN
            } else {
                *edge as u64
            });
            attr.hash(h);
        }
        Expr::GraphAttr { attr } => {
            h.write_u8(4);
            attr.hash(h);
        }
        Expr::Binary { op, lhs, rhs } => {
            h.write_u8(5);
            format!("{op:?}").hash(h);
            hash_expr(h, lhs, own_node, own_edge);
            hash_expr(h, rhs, own_node, own_edge);
        }
    }
}

fn expr_fp(e: &crate::expr::Expr, own_node: Option<usize>, own_edge: Option<usize>) -> u64 {
    let mut h = rustc_hash::FxHasher::default();
    hash_expr(&mut h, e, own_node, own_edge);
    h.finish()
}

/// Seed for one pattern node: its structural tuple constraints plus the
/// sorted multiset of its pushed-down predicate fingerprints.
fn node_seed(pattern: &Pattern, u: usize) -> u64 {
    let mut h = rustc_hash::FxHasher::default();
    hash_tuple(
        &mut h,
        &pattern.graph.node(gql_core::NodeId(u as u32)).attrs,
    );
    let mut preds: Vec<u64> = pattern.node_preds[u]
        .iter()
        .map(|p| expr_fp(p, Some(u), None))
        .collect();
    preds.sort_unstable();
    for p in preds {
        h.write_u64(p);
    }
    h.finish()
}

/// Seed for one pattern edge, mirroring [`node_seed`].
fn edge_seed(pattern: &Pattern, e: usize, attrs: &gql_core::Tuple) -> u64 {
    let mut h = rustc_hash::FxHasher::default();
    hash_tuple(&mut h, attrs);
    let mut preds: Vec<u64> = pattern.edge_preds[e]
        .iter()
        .map(|p| expr_fp(p, None, Some(e)))
        .collect();
    preds.sort_unstable();
    for p in preds {
        h.write_u64(p);
    }
    h.finish()
}

/// The renaming-invariant [`ShapeDesc`] of a pattern: node and edge
/// seeds from labels/attributes/pushed-down predicates, global
/// predicates folded (conservatively, with their raw node indices — a
/// renamed global predicate changes the key and merely costs a cache
/// slot, never a wrong share).
pub fn pattern_shape(pattern: &Pattern) -> ShapeDesc {
    let node_seeds: Vec<u64> = (0..pattern.node_count())
        .map(|u| node_seed(pattern, u))
        .collect();
    let edges: Vec<(u32, u32, u64)> = pattern
        .graph
        .edges()
        .map(|(eid, e)| (e.src.0, e.dst.0, edge_seed(pattern, eid.index(), &e.attrs)))
        .collect();
    let mut globals: Vec<u64> = pattern
        .global_preds
        .iter()
        .map(|p| expr_fp(p, None, None))
        .collect();
    globals.sort_unstable();
    let mut h = rustc_hash::FxHasher::default();
    for gfp in globals {
        h.write_u64(gfp);
    }
    ShapeDesc {
        directed: pattern.graph.is_directed(),
        node_seeds,
        edges,
        global_seed: h.finish(),
    }
}

/// Fingerprint of the planning-relevant options: a plan compiled under
/// one ordering/γ/refinement configuration must not serve another.
pub fn options_fingerprint(opts: &MatchOptions) -> u64 {
    let mut h = rustc_hash::FxHasher::default();
    h.write_u8(u8::from(opts.optimize_order));
    match opts.gamma {
        crate::order::GammaMode::Constant(c) => {
            h.write_u8(1);
            h.write_u64(c.to_bits());
        }
        crate::order::GammaMode::EdgeProbability { fallback } => {
            h.write_u8(2);
            h.write_u64(fallback.to_bits());
        }
    }
    match opts.refine {
        RefineLevel::Off => h.write_u8(0),
        RefineLevel::Fixed(l) => {
            h.write_u8(1);
            h.write_u64(l as u64);
        }
        RefineLevel::QuerySize => h.write_u8(2),
        RefineLevel::Auto => h.write_u8(3),
    }
    h.finish()
}

/// Exact fingerprint of a motif *instance*: like the shape but with the
/// declaration order kept and the planning options folded in, so two
/// symmetric renamings sharing a shape slot still get their own plans
/// (plans store per-variable-index orders).
fn instance_fingerprint(desc: &ShapeDesc, options_fp: u64) -> u64 {
    let mut h = rustc_hash::FxHasher::default();
    h.write_u64(options_fp);
    h.write_u8(u8::from(desc.directed));
    for &s in &desc.node_seeds {
        h.write_u64(s);
    }
    for &(a, b, s) in &desc.edges {
        h.write_u64(a as u64);
        h.write_u64(b as u64);
        h.write_u64(s);
    }
    h.write_u64(desc.global_seed);
    h.finish()
}

/// Builds the full cache key for a pattern under the given options,
/// graph scope, and cache generation.
pub fn plan_key(pattern: &Pattern, opts: &MatchOptions, generation: u64) -> PlanKey {
    let desc = pattern_shape(pattern);
    let options_fp = options_fingerprint(opts);
    PlanKey {
        shape: shape_key(&desc),
        instance: instance_fingerprint(&desc, options_fp),
        graph_scope: opts.plan_graph,
        generation,
    }
}

/// A cached plan whose expected candidate size is off from the observed
/// one by more than this factor, in either direction, is re-planned from
/// the observed sizes.
pub const REPLAN_DIVERGENCE: f64 = 4.0;

/// True when any observed candidate size is off from the plan's stored
/// expectation by more than [`REPLAN_DIVERGENCE`] in either direction
/// (sizes clamped to 1 so empty sets compare sanely). Also true on a
/// length mismatch, which would mean the key collided across different
/// motifs — treat as maximally diverged rather than trusting the plan.
pub fn diverges(expected: &[u32], observed: &[u32]) -> bool {
    if expected.len() != observed.len() {
        return true;
    }
    expected.iter().zip(observed).any(|(&e, &o)| {
        let (e, o) = (f64::from(e.max(1)), f64::from(o.max(1)));
        e / o > REPLAN_DIVERGENCE || o / e > REPLAN_DIVERGENCE
    })
}

/// Below this fraction of removed candidates, the last run's refinement
/// was spending bipartite checks for (almost) nothing; `Auto` skips it.
pub const REFINE_SKIP_YIELD: f64 = 0.02;

/// Resolves a [`RefineLevel`] to a concrete iteration count, consulting
/// feedback for [`RefineLevel::Auto`]. Returns `(level, skipped)`;
/// `skipped` is true only when `Auto` *had* feedback and decided the
/// pruning yield was too small to pay for the checks. With no feedback
/// (cold query), `Auto` behaves like the paper's default `QuerySize` —
/// refinement is result-preserving either way, so this decision can
/// never change answers, only effort.
pub fn decide_refine_level(
    query_size: usize,
    requested: RefineLevel,
    feedback: Option<&ShapeFeedback>,
) -> (usize, bool) {
    match requested {
        RefineLevel::Off => (0, false),
        RefineLevel::Fixed(l) => (l, false),
        RefineLevel::QuerySize => (query_size, false),
        RefineLevel::Auto => match feedback.and_then(|f| f.refine_yield()) {
            Some(y) if y < REFINE_SKIP_YIELD => (0, true),
            _ => (query_size, false),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinOp, Expr};
    use gql_core::fixtures::{figure_4_16_pattern, labeled_clique};
    use gql_core::{Graph, Tuple};

    fn key_of(p: &Pattern) -> PlanKey {
        plan_key(p, &MatchOptions::default(), 0)
    }

    /// Builds the figure 4.16 triangle motif with its three nodes
    /// declared in the given label order.
    fn triangle(labels: [&str; 3]) -> Pattern {
        let mut g = Graph::new();
        let ids: Vec<_> = labels.iter().map(|l| g.add_labeled_node(*l)).collect();
        g.add_edge(ids[0], ids[1], Tuple::new()).unwrap();
        g.add_edge(ids[1], ids[2], Tuple::new()).unwrap();
        g.add_edge(ids[2], ids[0], Tuple::new()).unwrap();
        Pattern::structural(g)
    }

    #[test]
    fn renamed_motifs_share_a_shape() {
        // A-B-C triangle declared in three rotations: same shape key,
        // distinct instance fingerprints (plans keep variable indices).
        let a = triangle(["A", "B", "C"]);
        let b = triangle(["B", "C", "A"]);
        let c = triangle(["C", "A", "B"]);
        assert_eq!(key_of(&a).shape, key_of(&b).shape);
        assert_eq!(key_of(&b).shape, key_of(&c).shape);
        assert_ne!(key_of(&a).instance, key_of(&b).instance);
    }

    #[test]
    fn labels_and_structure_change_the_shape() {
        let abc = triangle(["A", "B", "C"]);
        let abd = triangle(["A", "B", "D"]);
        assert_ne!(key_of(&abc).shape, key_of(&abd).shape);
        // Path A-B-C vs the triangle: different structure.
        let mut g = Graph::new();
        let a = g.add_labeled_node("A");
        let b = g.add_labeled_node("B");
        let c = g.add_labeled_node("C");
        g.add_edge(a, b, Tuple::new()).unwrap();
        g.add_edge(b, c, Tuple::new()).unwrap();
        let path = Pattern::structural(g);
        assert_ne!(key_of(&abc).shape, key_of(&path).shape);
    }

    #[test]
    fn predicates_change_the_shape() {
        let motif = figure_4_16_pattern();
        let plain = Pattern::structural(motif.clone());
        let pred = Pattern::new(motif.clone(), vec![Expr::node_attr_eq(0, "w", 3)]);
        assert_ne!(key_of(&plain).shape, key_of(&pred).shape);
        // The *same* predicate on a renamed node keeps the shape: the
        // owning index is masked out of the fingerprint.
        let renamed = Pattern::new(
            {
                // Rebuild the motif with nodes rotated B,C,A.
                let mut g = Graph::new();
                let b = g.add_labeled_node("B");
                let c = g.add_labeled_node("C");
                let a = g.add_labeled_node("A");
                g.add_edge(b, c, Tuple::new()).unwrap();
                g.add_edge(c, a, Tuple::new()).unwrap();
                g.add_edge(a, b, Tuple::new()).unwrap();
                g
            },
            vec![Expr::node_attr_eq(2, "w", 3)],
        );
        assert_eq!(key_of(&pred).shape, key_of(&renamed).shape);
        // A different predicate constant must not collide.
        let other = Pattern::new(motif, vec![Expr::node_attr_eq(0, "w", 4)]);
        assert_ne!(key_of(&pred).shape, key_of(&other).shape);
    }

    #[test]
    fn edge_predicates_and_labels_change_the_shape() {
        let base = triangle(["A", "B", "C"]);
        let mut g = Graph::new();
        let a = g.add_labeled_node("A");
        let b = g.add_labeled_node("B");
        let c = g.add_labeled_node("C");
        g.add_edge(a, b, Tuple::new().with("label", "x")).unwrap();
        g.add_edge(b, c, Tuple::new()).unwrap();
        g.add_edge(c, a, Tuple::new()).unwrap();
        let labeled_edge = Pattern::structural(g);
        assert_ne!(key_of(&base).shape, key_of(&labeled_edge).shape);
        let epred = Pattern::new(
            triangle(["A", "B", "C"]).graph,
            vec![Expr::binary(
                BinOp::Gt,
                Expr::EdgeAttr {
                    edge: 0,
                    attr: "w".into(),
                },
                Expr::Literal(1.into()),
            )],
        );
        assert_ne!(key_of(&base).shape, key_of(&epred).shape);
    }

    #[test]
    fn options_partition_the_key() {
        let p = triangle(["A", "B", "C"]);
        let default = plan_key(&p, &MatchOptions::default(), 0);
        let unordered = plan_key(
            &p,
            &MatchOptions {
                optimize_order: false,
                ..MatchOptions::default()
            },
            0,
        );
        assert_eq!(default.shape, unordered.shape, "shape ignores options");
        assert_ne!(default.instance, unordered.instance);
        let scoped = plan_key(
            &p,
            &MatchOptions {
                plan_graph: 3,
                ..MatchOptions::default()
            },
            0,
        );
        assert_ne!(default, scoped);
    }

    #[test]
    fn clique_renamings_are_symmetric_but_instance_exact() {
        // All-A cliques are fully symmetric: every renaming is the same
        // instance, so both hashes agree.
        let p4 = Pattern::structural(labeled_clique(&["A"; 4]));
        let q4 = Pattern::structural(labeled_clique(&["A"; 4]));
        assert_eq!(key_of(&p4), key_of(&q4));
        let p5 = Pattern::structural(labeled_clique(&["A"; 5]));
        assert_ne!(key_of(&p4).shape, key_of(&p5).shape);
    }

    #[test]
    fn refine_decision_uses_feedback() {
        let fb_low = ShapeFeedback {
            runs: 1,
            candidate_space: 1000,
            refine_removed: 1,
            ..ShapeFeedback::default()
        };
        let fb_high = ShapeFeedback {
            runs: 1,
            candidate_space: 1000,
            refine_removed: 500,
            ..ShapeFeedback::default()
        };
        assert_eq!(
            decide_refine_level(5, RefineLevel::Auto, Some(&fb_low)),
            (0, true)
        );
        assert_eq!(
            decide_refine_level(5, RefineLevel::Auto, Some(&fb_high)),
            (5, false)
        );
        assert_eq!(decide_refine_level(5, RefineLevel::Auto, None), (5, false));
        assert_eq!(
            decide_refine_level(5, RefineLevel::QuerySize, Some(&fb_low)),
            (5, false),
            "explicit levels ignore feedback"
        );
        assert_eq!(
            decide_refine_level(5, RefineLevel::Off, Some(&fb_high)),
            (0, false)
        );
    }

    #[test]
    fn divergence_is_two_sided_and_clamped() {
        assert!(!diverges(&[4, 8], &[4, 8]));
        assert!(!diverges(&[4], &[16]), "exactly the factor is tolerated");
        assert!(diverges(&[4], &[17]));
        assert!(diverges(&[17], &[4]));
        assert!(!diverges(&[0], &[4]), "empty sets compare as size 1");
        assert!(diverges(&[0], &[5]));
        assert!(diverges(&[1, 1], &[1]), "length mismatch never trusts");
    }

    #[test]
    fn planner_roundtrip_and_invalidation() {
        let pl = Planner::new();
        let p = triangle(["A", "B", "C"]);
        let key = plan_key(&p, &MatchOptions::default(), pl.generation());
        assert!(pl.lookup(&key).is_none());
        pl.insert(
            key,
            Arc::new(CompiledPlan {
                order: vec![0, 2, 1],
                estimated_cost: 1.0,
                est_join_sizes: vec![1.0, 1.0, 2.0],
                refine_level: 3,
                refine_skipped: false,
                refined_sizes: vec![1, 2, 1],
                access_paths: vec![crate::feasible::AccessPath::BucketScan; 3],
                checks: EdgeChecks::empty(),
            }),
        );
        assert_eq!(pl.cached_plans(), 1);
        assert_eq!(pl.lookup(&key).unwrap().order, vec![0, 2, 1]);
        pl.record_shape(key.shape, 0, ShapeFeedback::default());
        pl.record_shape(key.shape, 0, ShapeFeedback::default());
        assert_eq!(pl.shape_feedback(key.shape, 0).unwrap().runs, 2);
        assert!(
            pl.shape_feedback(key.shape, 1).is_none(),
            "scopes are disjoint"
        );
        pl.invalidate();
        assert!(pl.lookup(&key).is_none(), "generation bump evicts");
        assert!(pl.shape_feedback(key.shape, 0).is_none());
        assert_eq!(pl.cached_plans(), 0);
    }
}
