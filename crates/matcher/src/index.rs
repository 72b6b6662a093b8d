//! Data-graph indexes for feasible-mate retrieval (§4.2).
//!
//! "Node attributes can be indexed directly using traditional index
//! structures such as B-trees. ... If the node attributes are selective
//! ... one can index the node attributes using a B-tree or hashtable, and
//! store the neighborhood subgraphs or profiles as well."
//!
//! Every index *interns* the label domain: each distinct node or edge
//! `label` value gets a dense `u32` id, the per-node ids live in the
//! [`CsrGraph`] snapshot and the per-edge ids in a flat array,
//! `by_label` is keyed by label id, and each node's radius-r profile is
//! one sorted id sequence with a 64-bit signature ([`IdProfile`]) — the
//! only profile representation an index holds. Interning is a bijection
//! on the graph's labels, so every lookup through these tables is
//! observably equivalent to one over the `Value` data; it just makes the
//! §4.2/§4.3 kernels integer-compare-and-bitset cheap.

use gql_core::{
    neighborhood_subgraph, CsrGraph, CsrParts, EdgeId, Graph, GraphStats, IdProfile, LabelInterner,
    NeighborhoodSubgraph, NodeId, ProfileScratch, PropIndex, Slab, Value, NO_LABEL,
};

/// What a [`GraphIndex::build_with`] call should materialize.
#[derive(Debug, Clone)]
pub struct IndexOptions {
    /// Radius for profiles/neighborhood subgraphs.
    pub radius: usize,
    /// Precompute per-node profiles (the paper's recommended setup).
    pub profiles: bool,
    /// Materialize neighborhood subgraphs too (heavier).
    pub subgraphs: bool,
    /// Worker count for the parallel build phases (`0` = cores).
    pub threads: usize,
    /// Build the sorted secondary property index. Every production
    /// builder does; `false` makes retrieval evaluate every attribute
    /// predicate by scanning the label bucket — the reference the
    /// probe-vs-scan equivalence suites compare against.
    pub prop_index: bool,
}

impl Default for IndexOptions {
    fn default() -> Self {
        IndexOptions {
            radius: 1,
            profiles: true,
            subgraphs: false,
            threads: 1,
            prop_index: true,
        }
    }
}

/// The raw persisted state of one [`GraphIndex`]: exactly the pieces
/// whose construction dominates index-build time (interner table,
/// label-id arrays, CSR arrays, interned profiles). Produced by
/// [`GraphIndex::to_parts`] for checkpointing and consumed by
/// [`GraphIndex::from_parts`] at reopen. Every array rides a [`Slab`],
/// so a memory-mapped segment reader can hand these out as zero-copy
/// views into the checkpoint file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IndexParts {
    /// The interner's value table in id order (id `i` = `values[i]`).
    pub interner_values: Vec<Value>,
    /// Per-node label ids in node order. The index itself keeps them
    /// only in its CSR snapshot; the copy persisted here lets
    /// [`GraphIndex::from_parts`] cross-check the two arrays read back.
    pub node_label_ids: Slab<u32>,
    /// Per-edge label ids in edge order.
    pub edge_label_ids: Slab<u32>,
    /// Raw CSR arrays. Every index carries a snapshot; `None` only
    /// decodes from checkpoints written without one, which
    /// [`GraphIndex::from_parts`] rejects.
    pub csr: Option<CsrParts>,
    /// Flattened per-node interned profile multisets: node `v`'s sorted
    /// ids are `profile_ids[profile_offsets[v]..profile_offsets[v+1]]`.
    /// `profile_offsets` has `n + 1` entries, or is empty (with
    /// `profile_ids` empty too) when the index was built without
    /// profiles.
    pub profile_offsets: Slab<u32>,
    /// The concatenated profile id arrays behind `profile_offsets`.
    pub profile_ids: Slab<u32>,
    /// Radius the profiles were computed at.
    pub radius: usize,
    /// Whether the index carried a property index (rebuilt at reopen —
    /// its runs are cheap to re-derive relative to their size on disk).
    pub prop_index: bool,
}

/// Per-graph index: label-id table over the `label` attribute plus
/// optional precomputed radius-`r` interned profiles and neighborhood
/// subgraphs, and the cache-contiguous [`CsrGraph`] snapshot the
/// search/refine/profile kernels run on (which also holds the per-node
/// label ids).
#[derive(Debug, Default)]
pub struct GraphIndex {
    interner: std::sync::Arc<LabelInterner>,
    /// Edge label ids in edge order ([`NO_LABEL`] for unlabeled edges).
    edge_label_ids: Slab<u32>,
    /// Nodes per label, indexed by label id (node order within each).
    by_label: Vec<Vec<NodeId>>,
    /// Interned radius-`radius` profile per node, or empty when the
    /// index was built without profiles.
    id_profiles: Vec<IdProfile>,
    neighborhoods: Vec<NeighborhoodSubgraph>,
    csr: CsrGraph,
    /// Sorted per-(label, attribute) value runs, unless built with
    /// `prop_index: false`.
    prop: Option<PropIndex>,
    radius: usize,
    stats: GraphStats,
}

impl GraphIndex {
    /// Builds the label index and statistics only (no neighborhood data).
    pub fn build(g: &Graph) -> Self {
        Self::build_inner(g, 0, false, false, 1, true)
    }

    /// Builds the label index plus radius-`r` profiles (the practical
    /// combination recommended by the paper's §5 summary).
    pub fn build_with_profiles(g: &Graph, radius: usize) -> Self {
        Self::build_inner(g, radius, true, false, 1, true)
    }

    /// [`GraphIndex::build_with_profiles`] with per-node profile
    /// computation spread across `threads` workers (`0` = available
    /// cores). The resulting index is identical.
    pub fn build_with_profiles_par(g: &Graph, radius: usize, threads: usize) -> Self {
        Self::build_inner(g, radius, true, false, threads, true)
    }

    /// Builds label index, profiles, *and* materialized neighborhood
    /// subgraphs of radius `r` (heavier; used by retrieve-by-subgraphs).
    pub fn build_full(g: &Graph, radius: usize) -> Self {
        Self::build_inner(g, radius, true, true, 1, true)
    }

    /// Builds exactly what `opts` asks for — the one constructor that
    /// can skip the property index (`prop_index: false`). Index contents
    /// other than that structure are identical either way.
    pub fn build_with(g: &Graph, opts: &IndexOptions) -> Self {
        Self::build_inner(
            g,
            opts.radius,
            opts.profiles,
            opts.subgraphs,
            opts.threads,
            opts.prop_index,
        )
    }

    fn build_inner(
        g: &Graph,
        radius: usize,
        profiles: bool,
        subgraphs: bool,
        threads: usize,
        prop_index: bool,
    ) -> Self {
        // Intern the label domain and build the id-keyed label table in
        // one node scan; ids are dense and assigned in first-seen order.
        let mut interner = LabelInterner::new();
        let mut node_label_ids = Vec::with_capacity(g.node_count());
        let mut by_label: Vec<Vec<NodeId>> = Vec::new();
        for (id, n) in g.nodes() {
            let lid = match n.attrs.get("label") {
                Some(l) => {
                    let lid = interner.intern(l);
                    if lid as usize == by_label.len() {
                        by_label.push(Vec::new());
                    }
                    by_label[lid as usize].push(id);
                    lid
                }
                None => NO_LABEL,
            };
            node_label_ids.push(lid);
        }
        let edge_label_ids: Vec<u32> = g
            .edges()
            .map(|(_, e)| {
                e.attrs
                    .get("label")
                    .map_or(NO_LABEL, |l| interner.intern(l))
            })
            .collect();
        // The dictionary is complete; freeze it so the statistics can
        // share it (and the ids already computed) instead of rescanning
        // and re-cloning every label `Value`.
        let interner = std::sync::Arc::new(interner);
        let mut stats =
            GraphStats::from_interned(std::sync::Arc::clone(&interner), g, &node_label_ids);
        let csr = CsrGraph::build(g, &node_label_ids, threads);
        // Sorted property runs over the same label-id tables; run
        // summaries feed the planner's selectivity estimates.
        let prop = prop_index.then(|| {
            let pi = PropIndex::build(g, &node_label_ids, &edge_label_ids);
            for (lid, attr, run) in pi.node_run_summaries() {
                stats.record_prop_run(lid, attr, run.len() as u64, run.distinct() as u64);
            }
            pi
        });
        // Per-node profiles and neighborhood balls are independent; fan
        // them out across workers in node order. The interned profiles
        // come straight from the snapshot's zero-allocation BFS.
        let ids: Vec<NodeId> = g.node_ids().collect();
        let id_profiles = if profiles {
            gql_core::par_map_index_with(ids.len(), threads, ProfileScratch::new, |scratch, i| {
                csr.id_profile(ids[i], radius, scratch)
            })
        } else {
            Vec::new()
        };
        let neighborhoods = if subgraphs {
            gql_core::par_map_slice(&ids, threads, |&v| neighborhood_subgraph(g, v, radius))
        } else {
            Vec::new()
        };
        GraphIndex {
            interner,
            edge_label_ids: edge_label_ids.into(),
            by_label,
            id_profiles,
            neighborhoods,
            csr,
            prop,
            radius,
            stats,
        }
    }

    /// Extracts the expensive derived state for checkpointing: the
    /// interned-label table, both label-id arrays, the raw CSR arrays,
    /// and the interned profile id multisets. Everything else the index
    /// holds (`by_label`, statistics, property runs) is cheap to
    /// re-derive at reopen and is therefore *not* persisted.
    pub fn to_parts(&self) -> IndexParts {
        // Flatten the per-node profiles into one offsets + ids pair —
        // the layout a mapped segment serves back as two plain slabs.
        let (profile_offsets, profile_ids) = if self.id_profiles.is_empty() {
            (Slab::default(), Slab::default())
        } else {
            let mut offsets = Vec::with_capacity(self.id_profiles.len() + 1);
            let total: usize = self.id_profiles.iter().map(IdProfile::len).sum();
            let mut ids = Vec::with_capacity(total);
            offsets.push(0u32);
            for p in &self.id_profiles {
                ids.extend_from_slice(p.ids());
                offsets.push(ids.len() as u32);
            }
            (offsets.into(), ids.into())
        };
        let csr = self.csr.to_parts();
        IndexParts {
            interner_values: (0..self.interner.len() as u32)
                .map(|id| self.interner.resolve(id).clone())
                .collect(),
            node_label_ids: csr.node_labels.clone(),
            edge_label_ids: self.edge_label_ids.clone(),
            csr: Some(csr),
            profile_offsets,
            profile_ids,
            radius: self.radius,
            prop_index: self.prop.is_some(),
        }
    }

    /// Rebuilds an index from checkpointed parts, skipping the two
    /// expensive build phases — the CSR per-row sorts and the per-node
    /// profile BFS — while re-deriving (and thereby *verifying*) the
    /// label-id arrays against the live graph, so a segment paired with
    /// the wrong graph is rejected instead of silently adopted. The
    /// result is observably identical to [`GraphIndex::build_with`] over
    /// the same graph and options.
    pub fn from_parts(g: &Graph, parts: IndexParts) -> Result<GraphIndex, &'static str> {
        // Re-intern the persisted value table in order; dense sequential
        // ids are an interner invariant, so any duplicate (or any drift
        // in Value equality) shows up as a length mismatch.
        let mut interner = LabelInterner::new();
        for v in &parts.interner_values {
            interner.intern(v);
        }
        if interner.len() != parts.interner_values.len() {
            return Err("interner table has duplicate values");
        }
        if parts.node_label_ids.len() != g.node_count()
            || parts.edge_label_ids.len() != g.edge_count()
        {
            return Err("label-id arrays do not match the graph");
        }
        // Verify the persisted id arrays against the graph's own labels
        // (also rebuilding `by_label`, which falls out of the scan).
        let mut by_label: Vec<Vec<NodeId>> = vec![Vec::new(); interner.len()];
        for (id, n) in g.nodes() {
            let want = match n.attrs.get("label") {
                Some(l) => interner.lookup(l).ok_or("node label missing from table")?,
                None => NO_LABEL,
            };
            if parts.node_label_ids[id.index()] != want {
                return Err("node label ids do not match the graph");
            }
            if want != NO_LABEL {
                by_label[want as usize].push(id);
            }
        }
        for (id, e) in g.edges() {
            let want = match e.attrs.get("label") {
                Some(l) => interner.lookup(l).ok_or("edge label missing from table")?,
                None => NO_LABEL,
            };
            if parts.edge_label_ids[id.index()] != want {
                return Err("edge label ids do not match the graph");
            }
        }
        let interner = std::sync::Arc::new(interner);
        let csr = {
            let raw = parts.csr.ok_or("index parts carry no csr snapshot")?;
            if raw.node_labels != parts.node_label_ids {
                return Err("csr label table does not match the index");
            }
            if raw.directed != g.is_directed() {
                return Err("csr direction does not match the graph");
            }
            let csr = CsrGraph::from_parts(raw)?;
            // Entry counts must cover the graph exactly; a pruned or
            // padded entry slab would pass row-local validation.
            let expect: usize = g.node_ids().map(|v| g.degree(v)).sum();
            if csr.node_count() != g.node_count()
                || g.node_ids().map(|v| csr.degree(v)).sum::<usize>() != expect
            {
                return Err("csr does not cover the graph");
            }
            // Per-entry endpoint verification against the live
            // graph: every row entry must name a real edge that
            // connects the row's node to the entry's neighbor, and
            // carry the neighbor's label id. This pins the adopted
            // arrays semantically — a bit flip in a mapped entry
            // (or in an offset that shifts row boundaries) is
            // caught here even when section checksums are skipped
            // on the lazy-verification open path. O(E) with
            // array-indexed lookups; no hashing, no sorting.
            let check_entry = |v: NodeId, e: &gql_core::CsrEntry, need_src: Option<bool>| {
                if e.edge as usize >= g.edge_count() {
                    return Err("csr entry edge out of range");
                }
                let edge = g.edge(EdgeId(e.edge));
                let w = NodeId(e.node);
                let connects = match need_src {
                    // Directed out-row: v must be the source.
                    Some(true) => edge.src == v && edge.dst == w,
                    // Directed in-row: v must be the target.
                    Some(false) => edge.src == w && edge.dst == v,
                    // Either orientation (undirected, or `all`).
                    None => (edge.src == v && edge.dst == w) || (edge.src == w && edge.dst == v),
                };
                if !connects {
                    return Err("csr entry does not match a graph edge");
                }
                if e.label != parts.node_label_ids[w.index()] {
                    return Err("csr entry label does not match the neighbor");
                }
                Ok(())
            };
            let directed = g.is_directed();
            for v in g.node_ids() {
                for e in csr.neighbors(v) {
                    check_entry(v, e, directed.then_some(true))?;
                }
                if directed {
                    for e in csr.in_neighbors(v) {
                        check_entry(v, e, Some(false))?;
                    }
                    if csr.in_neighbors(v).len() != g.in_neighbors(v).len()
                        || csr.incident_degree(v) != g.incident_degree(v)
                    {
                        return Err("csr reverse rows do not cover the graph");
                    }
                    for e in csr.incident(v) {
                        check_entry(v, e, None)?;
                    }
                }
            }
            csr
        };
        // Rebuild the interned profiles as zero-copy sub-slabs of the
        // flattened id array, validating the offsets table and each
        // profile's sortedness (`from_sorted`) so corrupted profile
        // bytes fail the adoption instead of corrupting containment
        // merges.
        let n = g.node_count();
        let offs = &parts.profile_offsets;
        if offs.is_empty() && !parts.profile_ids.is_empty() {
            return Err("profile ids without offsets");
        }
        if !offs.is_empty() {
            if offs.len() != n + 1 {
                return Err("profile count does not match the graph");
            }
            if offs[0] != 0 || offs[n] as usize != parts.profile_ids.len() {
                return Err("profile offsets bounds");
            }
            if offs.windows(2).any(|w| w[0] > w[1]) {
                return Err("profile offsets not monotonic");
            }
            if parts
                .profile_ids
                .iter()
                .any(|&id| id as usize >= interner.len())
            {
                return Err("profile id out of range");
            }
        }
        let id_profiles: Vec<IdProfile> = if offs.is_empty() {
            Vec::new()
        } else {
            let mut out = Vec::with_capacity(n);
            for v in 0..n {
                let range = offs[v] as usize..offs[v + 1] as usize;
                out.push(IdProfile::from_sorted(parts.profile_ids.slice(range))?);
            }
            out
        };
        let mut stats =
            GraphStats::from_interned(std::sync::Arc::clone(&interner), g, &parts.node_label_ids);
        let prop = parts.prop_index.then(|| {
            let pi = PropIndex::build(g, &parts.node_label_ids, &parts.edge_label_ids);
            for (lid, attr, run) in pi.node_run_summaries() {
                stats.record_prop_run(lid, attr, run.len() as u64, run.distinct() as u64);
            }
            pi
        });
        Ok(GraphIndex {
            interner,
            edge_label_ids: parts.edge_label_ids,
            by_label,
            id_profiles,
            neighborhoods: Vec::new(),
            csr,
            prop,
            radius: parts.radius,
            stats,
        })
    }

    /// Nodes carrying `label`, or an empty slice.
    pub fn nodes_with_label(&self, label: &Value) -> &[NodeId] {
        self.interner
            .lookup(label)
            .map_or(&[], |id| self.nodes_with_label_id(id))
    }

    /// Nodes carrying the label with interned id `id`, or an empty
    /// slice (also for the [`NO_LABEL`]/impossible sentinels).
    pub fn nodes_with_label_id(&self, id: u32) -> &[NodeId] {
        self.by_label.get(id as usize).map_or(&[], |v| v.as_slice())
    }

    /// The label dictionary built over this graph's node and edge
    /// `label` attributes.
    pub fn interner(&self) -> &LabelInterner {
        &self.interner
    }

    /// Label id of node `v` ([`NO_LABEL`] if unlabeled).
    #[inline]
    pub fn node_label_id(&self, v: NodeId) -> u32 {
        self.csr.node_label(v)
    }

    /// Per-node label ids in node order.
    pub fn node_label_ids(&self) -> &[u32] {
        self.csr.node_labels()
    }

    /// Per-edge label ids in edge order ([`NO_LABEL`] if unlabeled).
    pub fn edge_label_ids(&self) -> &[u32] {
        &self.edge_label_ids
    }

    /// Precomputed radius used for profiles/neighborhoods.
    pub fn radius(&self) -> usize {
        self.radius
    }

    /// Precomputed interned profile of `v` (panics if profiles were not
    /// built).
    #[inline]
    pub fn id_profile(&self, v: NodeId) -> &IdProfile {
        &self.id_profiles[v.index()]
    }

    /// Whether profiles were materialized.
    pub fn has_profiles(&self) -> bool {
        !self.id_profiles.is_empty()
    }

    /// Precomputed neighborhood subgraph of `v` (panics if not built).
    pub fn neighborhood(&self, v: NodeId) -> &NeighborhoodSubgraph {
        &self.neighborhoods[v.index()]
    }

    /// Whether neighborhood subgraphs were materialized.
    pub fn has_neighborhoods(&self) -> bool {
        !self.neighborhoods.is_empty()
    }

    /// The CSR adjacency snapshot the refine and search kernels read.
    #[inline]
    pub fn csr(&self) -> &CsrGraph {
        &self.csr
    }

    /// The sorted secondary property index, unless the index was built
    /// with `prop_index: false` ([`IndexOptions`]). Retrieval treats
    /// `None` as "scan the label bucket" and produces identical results
    /// either way.
    #[inline]
    pub fn prop(&self) -> Option<&PropIndex> {
        self.prop.as_ref()
    }

    /// Label statistics for the cost model.
    pub fn stats(&self) -> &GraphStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gql_core::fixtures::figure_4_16_graph;

    /// Oracle for `idx.id_profile(v)` independent of the CSR: the
    /// interned labels of `v`'s radius-`r` ball as extracted from the
    /// `Graph` adjacency.
    fn graph_profile(idx: &GraphIndex, g: &Graph, v: NodeId, r: usize) -> IdProfile {
        let ball = neighborhood_subgraph(g, v, r).graph;
        IdProfile::from_ids(
            ball.node_ids()
                .filter_map(|w| ball.node_label(w))
                .map(|l| idx.interner().lookup(l).unwrap())
                .collect(),
        )
    }

    #[test]
    fn label_lookup() {
        let (g, ids) = figure_4_16_graph();
        let idx = GraphIndex::build(&g);
        assert_eq!(idx.nodes_with_label(&"A".into()), &[ids[0], ids[1]]);
        assert_eq!(idx.nodes_with_label(&"Z".into()), &[] as &[NodeId]);
        assert!(!idx.has_profiles());
        assert!(!idx.has_neighborhoods());
        assert_eq!(idx.stats().distinct_labels(), 3);
    }

    #[test]
    fn profiles_and_neighborhoods_materialize() {
        let (g, ids) = figure_4_16_graph();
        let idx = GraphIndex::build_full(&g, 1);
        assert!(idx.has_profiles());
        assert!(idx.has_neighborhoods());
        assert_eq!(idx.radius(), 1);
        // A2's r=1 profile is {A, B}.
        assert_eq!(idx.id_profile(ids[1]).len(), 2);
        // A1's r=1 neighborhood is the triangle.
        assert_eq!(idx.neighborhood(ids[0]).graph.node_count(), 3);
        assert_eq!(idx.neighborhood(ids[0]).graph.edge_count(), 3);
    }

    #[test]
    fn interned_tables_mirror_value_data() {
        let (g, ids) = figure_4_16_graph();
        let idx = GraphIndex::build_with_profiles(&g, 1);
        // Every node's id resolves back to its label value.
        for v in g.node_ids() {
            let lid = idx.node_label_id(v);
            assert_eq!(idx.interner().resolve(lid), g.node_label(v).unwrap());
        }
        // Id-keyed retrieval agrees with Value-keyed retrieval.
        for label in ["A", "B", "C"] {
            let value: Value = label.into();
            let lid = idx.interner().lookup(&value).unwrap();
            assert_eq!(idx.nodes_with_label_id(lid), idx.nodes_with_label(&value));
        }
        assert_eq!(
            idx.nodes_with_label_id(gql_core::NO_LABEL),
            &[] as &[NodeId]
        );
        // Id profiles encode the graph's own neighborhood profiles.
        for v in g.node_ids() {
            assert_eq!(idx.id_profile(v), &graph_profile(&idx, &g, v, 1));
        }
        // A2 ⊆ A1 as profiles (AB ⊆ ABC).
        assert!(idx.id_profile(ids[1]).subsumed_by(idx.id_profile(ids[0])));
    }

    #[test]
    fn prop_index_builds_by_default_and_gates_off() {
        let (g, _) = figure_4_16_graph();
        let idx = GraphIndex::build(&g);
        let pi = idx.prop().expect("prop index is on by default");
        let lid = idx.interner().lookup(&"A".into()).unwrap();
        // Every labeled node carries at least its `label` attribute.
        assert!(pi.node_run(lid, "label").is_some());
        assert_eq!(idx.stats().prop_run(lid, "label"), Some((2, 1)));
        let without = GraphIndex::build_with(
            &g,
            &IndexOptions {
                prop_index: false,
                ..Default::default()
            },
        );
        assert!(without.prop().is_none());
        assert_eq!(without.stats().prop_run(lid, "label"), None);
    }

    #[test]
    fn stats_share_the_index_dictionary() {
        let (g, _) = figure_4_16_graph();
        let idx = GraphIndex::build(&g);
        assert!(
            std::ptr::eq(idx.interner(), idx.stats().interner()),
            "stats reuse the index interner instead of re-interning"
        );
        assert_eq!(idx.stats().distinct_labels(), 3);
    }

    #[test]
    fn parts_round_trip_matches_fresh_build() {
        let (g, _) = figure_4_16_graph();
        let idx = GraphIndex::build_with_profiles(&g, 1);
        let back = GraphIndex::from_parts(&g, idx.to_parts()).unwrap();
        assert_eq!(back.node_label_ids(), idx.node_label_ids());
        assert_eq!(back.edge_label_ids(), idx.edge_label_ids());
        assert_eq!(back.interner().len(), idx.interner().len());
        assert_eq!(back.radius(), idx.radius());
        for v in g.node_ids() {
            assert_eq!(back.id_profile(v), &graph_profile(&back, &g, v, 1));
            assert_eq!(back.id_profile(v), idx.id_profile(v));
        }
        for label in ["A", "B", "C"] {
            assert_eq!(
                back.nodes_with_label(&label.into()),
                idx.nodes_with_label(&label.into())
            );
        }
        for a in g.node_ids() {
            for b in g.node_ids() {
                assert_eq!(back.csr().edge_between(a, b), idx.csr().edge_between(a, b));
            }
        }
        assert!(back.prop().is_some());
        let lid = back.interner().lookup(&"A".into()).unwrap();
        assert_eq!(back.stats().prop_run(lid, "label"), Some((2, 1)));

        // A segment paired with the wrong graph is rejected.
        let (mut other, _) = figure_4_16_graph();
        let v = other.add_labeled_node("Z");
        let _ = v;
        assert!(GraphIndex::from_parts(&other, idx.to_parts()).is_err());
        let mut bad = idx.to_parts();
        let mut ids = bad.node_label_ids.to_vec();
        ids[0] = 1;
        bad.node_label_ids = ids.into();
        assert!(GraphIndex::from_parts(&g, bad).is_err());
        let mut bad = idx.to_parts();
        let mut ids = bad.profile_ids.to_vec();
        if ids.len() >= 2 {
            ids.swap(0, 1); // A1's profile is {A,B,C}; unsorted now
            ids[0] = ids[1].max(ids[0]) + 1;
        }
        bad.profile_ids = ids.into();
        assert!(GraphIndex::from_parts(&g, bad).is_err());
        let mut bad = idx.to_parts();
        bad.interner_values.push(Value::from("A"));
        assert!(GraphIndex::from_parts(&g, bad).is_err());
        // Parts from a checkpoint written without a CSR snapshot.
        let mut bad = idx.to_parts();
        bad.csr = None;
        assert!(GraphIndex::from_parts(&g, bad).is_err());
    }

    #[test]
    fn edge_labels_are_interned() {
        let mut g = Graph::new();
        let a = g.add_labeled_node("A");
        let b = g.add_labeled_node("B");
        let c = g.add_labeled_node("C");
        g.add_edge(a, b, gql_core::Tuple::new().with("label", "x"))
            .unwrap();
        g.add_edge(b, c, gql_core::Tuple::new()).unwrap();
        let idx = GraphIndex::build(&g);
        let eids = idx.edge_label_ids();
        assert_eq!(idx.interner().resolve(eids[0]), &Value::from("x"));
        assert_eq!(eids[1], gql_core::NO_LABEL);
    }
}
