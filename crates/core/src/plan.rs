//! Plan-cache keys and the feedback record of the query planner.
//!
//! The §4.4 optimizer derives a join order from *static* label
//! frequencies ([`crate::stats::GraphStats`]). This module supplies the
//! ingredients the matcher's planner builds on:
//!
//! 1. **Shape keys** ([`shape_key`]): a renaming-invariant hash of a
//!    query motif, computed by Weisfeiler–Leman color refinement over
//!    per-node/per-edge *seeds* (label + predicate fingerprints supplied
//!    by the caller). Two motifs that are isomorphic up to variable
//!    renaming hash to the same key; motifs differing in labels or
//!    predicates get different seeds and therefore (modulo hash
//!    collisions) different keys.
//! 2. **Shape feedback** ([`ShapeFeedback`]): what the last run of a
//!    motif observed — its refinement yield and its cardinality against
//!    the estimate. The planner keeps one slot per (shape, graph scope)
//!    in memory, beside its plan cache.
//!
//! [`PlanCache`] is the generation-stamped memo map plans are keyed
//! into; it mirrors the engine's index-cache lifecycle (entries are
//! invalidated wholesale when the underlying graphs mutate).

use rustc_hash::FxHashMap;
use std::hash::Hasher;

/// Seeds describing a query motif for [`shape_key`]: everything that
/// distinguishes two pattern nodes/edges *except* their variable names
/// and declaration order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShapeDesc {
    /// Whether the pattern graph is directed.
    pub directed: bool,
    /// One seed per pattern node: a hash of its label/attribute
    /// constraints and attached predicates (with the node's own index
    /// masked out so renamings agree).
    pub node_seeds: Vec<u64>,
    /// One entry per pattern edge `(src, dst, seed)`; the seed hashes
    /// the edge's constraints the same way.
    pub edges: Vec<(u32, u32, u64)>,
    /// Hash of whole-pattern context that is not attached to a single
    /// node or edge (e.g. global predicates).
    pub global_seed: u64,
}

fn mix(h: &mut rustc_hash::FxHasher, x: u64) {
    h.write_u64(x);
}

fn hash_of(parts: &[u64]) -> u64 {
    let mut h = rustc_hash::FxHasher::default();
    for &p in parts {
        mix(&mut h, p);
    }
    h.finish()
}

/// Renaming-invariant hash of a motif: 1-dimensional Weisfeiler–Leman
/// color refinement run for `|V|` rounds, folded together with the
/// sorted multiset of edge colors and the global seed.
///
/// WL refinement is a sound but incomplete isomorphism test: motifs
/// isomorphic up to renaming *always* collide (the guarantee the plan
/// cache needs — a cached plan slot is shared), while distinct motifs
/// collide only in the rare WL-equivalent case, which costs a stale
/// estimate, never a wrong answer (plans are validated per instance).
pub fn shape_key(desc: &ShapeDesc) -> u64 {
    let n = desc.node_seeds.len();
    let mut colors: Vec<u64> = desc.node_seeds.clone();
    let mut next: Vec<u64> = vec![0; n];
    for _round in 0..n {
        for (v, slot) in next.iter_mut().enumerate() {
            // Gather the multiset of (edge seed, neighbor color,
            // direction) signals incident to v and fold it in sorted
            // order so neighbor enumeration order is irrelevant.
            let mut sig: Vec<u64> = Vec::new();
            for &(a, b, es) in &desc.edges {
                let (a, b) = (a as usize, b as usize);
                if a == v {
                    sig.push(hash_of(&[es, colors[b], u64::from(desc.directed)]));
                } else if b == v {
                    sig.push(hash_of(&[es, colors[a], 2 * u64::from(desc.directed)]));
                }
            }
            sig.sort_unstable();
            let mut parts = vec![colors[v]];
            parts.extend(sig);
            *slot = hash_of(&parts);
        }
        std::mem::swap(&mut colors, &mut next);
    }
    let mut edge_part: Vec<u64> = desc
        .edges
        .iter()
        .map(|&(a, b, es)| {
            let (ca, cb) = (colors[a as usize], colors[b as usize]);
            let (lo, hi) = if desc.directed || ca <= cb {
                (ca, cb)
            } else {
                (cb, ca)
            };
            hash_of(&[es, lo, hi])
        })
        .collect();
    edge_part.sort_unstable();
    let mut node_part = colors;
    node_part.sort_unstable();
    let mut parts = vec![u64::from(desc.directed), desc.global_seed, n as u64];
    parts.extend(node_part);
    parts.extend(edge_part);
    hash_of(&parts)
}

/// Cache key for one compiled plan: the renaming-invariant shape, an
/// exact instance fingerprint (so symmetric renamings that share a
/// shape slot never swap plans), the graph scope the plan was compiled
/// against, and the cache generation at compile time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// [`shape_key`] of the motif.
    pub shape: u64,
    /// Exact fingerprint of this motif instance (variable order kept).
    pub instance: u64,
    /// Which graph of a collection the plan targets (σ evaluates
    /// graphs of a collection concurrently; their statistics differ).
    pub graph_scope: u64,
    /// Generation of the owning [`PlanCache`] when compiled.
    pub generation: u64,
}

/// Generation-stamped plan memo map, mirroring the engine index cache:
/// `invalidate` bumps the generation and drops every entry, so plans
/// compiled against a mutated graph can never be returned.
#[derive(Debug, Clone)]
pub struct PlanCache<P> {
    generation: u64,
    map: FxHashMap<PlanKey, P>,
    hits: u64,
    misses: u64,
}

impl<P> Default for PlanCache<P> {
    fn default() -> Self {
        PlanCache::new()
    }
}

impl<P> PlanCache<P> {
    /// Creates an empty cache at generation 0.
    pub fn new() -> Self {
        PlanCache {
            generation: 0,
            map: FxHashMap::default(),
            hits: 0,
            misses: 0,
        }
    }

    /// Current generation; keys built against older generations miss.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Drops all entries and bumps the generation (graph mutated).
    pub fn invalidate(&mut self) {
        self.generation += 1;
        self.map.clear();
    }

    /// Raises the generation to `generation` (no-op when already
    /// there or past it), dropping entries on an actual advance. Used
    /// to pin plan-cache keys to an externally allocated snapshot
    /// epoch, so `PlanKey::generation` and the `GraphSnapshot`
    /// generation the engine hands out agree.
    pub fn advance_to(&mut self, generation: u64) {
        if generation > self.generation {
            self.generation = generation;
            self.map.clear();
        }
    }

    /// Looks up a compiled plan, counting the hit or miss.
    pub fn lookup(&mut self, key: &PlanKey) -> Option<&P> {
        if key.generation != self.generation {
            self.misses += 1;
            return None;
        }
        match self.map.get(key) {
            Some(p) => {
                self.hits += 1;
                Some(p)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts (or replaces) the plan for `key`; stale-generation keys
    /// are ignored.
    pub fn insert(&mut self, key: PlanKey, plan: P) {
        if key.generation == self.generation {
            self.map.insert(key, plan);
        }
    }

    /// (hits, misses) observed so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no plans are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Observed execution feedback for one motif shape on one graph scope.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShapeFeedback {
    /// Number of recorded runs.
    pub runs: u64,
    /// Sum of pre-refinement candidate-set sizes (last run).
    pub candidate_space: u64,
    /// Candidates removed by refinement (last run).
    pub refine_removed: u64,
    /// Matches produced (last run).
    pub matches: u64,
    /// The optimizer's estimated final cardinality for the run, kept so
    /// later plannings can report (and correct for) estimate error.
    pub estimated_size: f64,
}

impl ShapeFeedback {
    /// Fraction of the candidate space refinement removed in the last
    /// run; `None` until a run with a non-empty space is recorded.
    pub fn refine_yield(&self) -> Option<f64> {
        if self.candidate_space == 0 {
            return None;
        }
        Some(self.refine_removed as f64 / self.candidate_space as f64)
    }

    /// Observed-vs-estimated cardinality ratio of the last run, clamped
    /// away from zero so callers can divide by it.
    pub fn cardinality_error(&self) -> Option<f64> {
        if self.runs == 0 || self.estimated_size <= 0.0 {
            return None;
        }
        Some((self.matches as f64).max(1e-9) / self.estimated_size.max(1e-9))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc(nodes: &[u64], edges: &[(u32, u32, u64)]) -> ShapeDesc {
        ShapeDesc {
            directed: false,
            node_seeds: nodes.to_vec(),
            edges: edges.to_vec(),
            global_seed: 0,
        }
    }

    #[test]
    fn renaming_invariance_triangle() {
        // Same labeled triangle, nodes declared in two different orders.
        let a = desc(&[1, 2, 3], &[(0, 1, 9), (1, 2, 9), (2, 0, 9)]);
        let b = desc(&[3, 1, 2], &[(1, 2, 9), (2, 0, 9), (0, 1, 9)]);
        assert_eq!(shape_key(&a), shape_key(&b));
    }

    #[test]
    fn label_changes_key() {
        let a = desc(&[1, 2, 3], &[(0, 1, 9), (1, 2, 9)]);
        let b = desc(&[1, 2, 4], &[(0, 1, 9), (1, 2, 9)]);
        assert_ne!(shape_key(&a), shape_key(&b));
    }

    #[test]
    fn structure_changes_key() {
        let path = desc(&[1, 1, 1], &[(0, 1, 9), (1, 2, 9)]);
        let tri = desc(&[1, 1, 1], &[(0, 1, 9), (1, 2, 9), (2, 0, 9)]);
        assert_ne!(shape_key(&path), shape_key(&tri));
    }

    #[test]
    fn direction_changes_key() {
        let und = desc(&[1, 2], &[(0, 1, 9)]);
        let dir = ShapeDesc {
            directed: true,
            ..und.clone()
        };
        assert_ne!(shape_key(&und), shape_key(&dir));
    }

    #[test]
    fn cache_generation_invalidates() {
        let mut c: PlanCache<u32> = PlanCache::new();
        let key = PlanKey {
            shape: 1,
            instance: 2,
            graph_scope: 0,
            generation: c.generation(),
        };
        assert!(c.lookup(&key).is_none());
        c.insert(key, 7);
        assert_eq!(c.lookup(&key).copied(), Some(7));
        c.invalidate();
        assert!(c.lookup(&key).is_none(), "stale generation must miss");
        assert!(c.is_empty());
        assert_eq!(c.stats(), (1, 2));
    }

    #[test]
    fn feedback_ratios() {
        let fb = ShapeFeedback {
            runs: 1,
            candidate_space: 100,
            refine_removed: 1,
            estimated_size: 8.0,
            matches: 4,
        };
        assert!((fb.refine_yield().unwrap() - 0.01).abs() < 1e-12);
        assert!((fb.cardinality_error().unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(ShapeFeedback::default().refine_yield(), None);
        assert_eq!(ShapeFeedback::default().cardinality_error(), None);
    }
}
