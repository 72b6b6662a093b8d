//! Label statistics for the cost model of §4.4.
//!
//! The reduction factor γ of a join is estimated from conditional edge
//! probabilities: `P(e(u,v)) = freq(e(u,v)) / (freq(u) · freq(v))`, where
//! `freq()` counts occurrences of node labels and of label-pair edges in
//! the large graph (Definition 4.11).
//!
//! Frequencies are keyed by interned `u32` label ids (see
//! [`crate::intern`]), not by cloned [`Value`]s: collection interns each
//! distinct label once and counts integers from then on, and an index
//! that already computed per-node label ids can hand them over via
//! [`GraphStats::from_interned`] without rescanning attribute tuples.
//! The `Value`-keyed query API is preserved on top (a lookup is one
//! dictionary probe), so both views are observably equivalent.

use crate::graph::Graph;
use crate::intern::{LabelInterner, NO_LABEL};
use crate::value::Value;
use rustc_hash::FxHashMap;
use std::sync::Arc;

/// Node-label and edge-label-pair frequencies of a data graph.
#[derive(Debug, Clone, Default)]
pub struct GraphStats {
    /// Dictionary the frequency keys refer to; shared with the owning
    /// index when built via [`GraphStats::from_interned`].
    interner: Arc<LabelInterner>,
    node_freq: FxHashMap<u32, u64>,
    /// Keyed by unordered id pair (normalized low-high) for undirected
    /// graphs, ordered pair for directed ones.
    edge_freq: FxHashMap<(u32, u32), u64>,
    directed: bool,
    node_count: u64,
    edge_count: u64,
    /// Per-`(label id, attribute)` property-run summaries
    /// `(entries, distinct values)`, recorded when a secondary property
    /// index is built; feeds the planner's selectivity estimates.
    prop_runs: FxHashMap<u32, FxHashMap<String, (u64, u64)>>,
}

impl GraphStats {
    /// Scans `g` once, interning each distinct label and counting ids.
    pub fn collect(g: &Graph) -> Self {
        let mut interner = LabelInterner::new();
        let mut ids = vec![NO_LABEL; g.node_count()];
        for (id, n) in g.nodes() {
            if let Some(l) = n.attrs.get("label") {
                ids[id.index()] = interner.intern(l);
            }
        }
        Self::from_interned(Arc::new(interner), g, &ids)
    }

    /// Builds the statistics from label ids an index already computed
    /// (one entry per node, [`NO_LABEL`] for unlabeled nodes), sharing
    /// the index's dictionary instead of re-interning every label.
    pub fn from_interned(interner: Arc<LabelInterner>, g: &Graph, node_label_ids: &[u32]) -> Self {
        let mut s = GraphStats {
            interner,
            directed: g.is_directed(),
            node_count: g.node_count() as u64,
            edge_count: g.edge_count() as u64,
            ..GraphStats::default()
        };
        for &lid in node_label_ids {
            if lid != NO_LABEL {
                *s.node_freq.entry(lid).or_insert(0) += 1;
            }
        }
        for (_, e) in g.edges() {
            let (a, b) = (node_label_ids[e.src.index()], node_label_ids[e.dst.index()]);
            if a != NO_LABEL && b != NO_LABEL {
                let key = s.normalize(a, b);
                *s.edge_freq.entry(key).or_insert(0) += 1;
            }
        }
        s
    }

    fn normalize(&self, a: u32, b: u32) -> (u32, u32) {
        if self.directed || a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// The label dictionary the id-keyed accessors refer to.
    pub fn interner(&self) -> &LabelInterner {
        &self.interner
    }

    /// Total nodes scanned.
    pub fn node_count(&self) -> u64 {
        self.node_count
    }

    /// Total edges scanned.
    pub fn edge_count(&self) -> u64 {
        self.edge_count
    }

    /// `freq(label)`: number of nodes carrying `label`.
    pub fn node_label_freq(&self, label: &Value) -> u64 {
        self.interner
            .lookup(label)
            .map_or(0, |id| self.node_label_freq_id(id))
    }

    /// `freq(label)` by interned id (0 for sentinels/unseen ids).
    #[inline]
    pub fn node_label_freq_id(&self, id: u32) -> u64 {
        self.node_freq.get(&id).copied().unwrap_or(0)
    }

    /// `freq(e(a,b))`: number of edges whose endpoint labels are `(a,b)`.
    pub fn edge_label_freq(&self, a: &Value, b: &Value) -> u64 {
        match (self.interner.lookup(a), self.interner.lookup(b)) {
            (Some(a), Some(b)) => self.edge_label_freq_ids(a, b),
            _ => 0,
        }
    }

    /// `freq(e(a,b))` by interned endpoint ids.
    #[inline]
    pub fn edge_label_freq_ids(&self, a: u32, b: u32) -> u64 {
        let key = self.normalize(a, b);
        self.edge_freq.get(&key).copied().unwrap_or(0)
    }

    /// The paper's conditional edge probability
    /// `P(e(u,v)) = freq(e(u,v)) / (freq(u)·freq(v))`, clamped to
    /// `[0, 1]`. Returns 0 when either label is absent (no such node can
    /// participate in a match).
    pub fn edge_probability(&self, a: &Value, b: &Value) -> f64 {
        match (self.interner.lookup(a), self.interner.lookup(b)) {
            (Some(a), Some(b)) => self.edge_probability_ids(a, b),
            _ => 0.0,
        }
    }

    /// [`GraphStats::edge_probability`] by interned endpoint ids.
    pub fn edge_probability_ids(&self, a: u32, b: u32) -> f64 {
        let fu = self.node_label_freq_id(a);
        let fv = self.node_label_freq_id(b);
        if fu == 0 || fv == 0 {
            return 0.0;
        }
        let fe = self.edge_label_freq_ids(a, b) as f64;
        (fe / (fu as f64 * fv as f64)).min(1.0)
    }

    /// The top-`k` most frequent node labels (ties broken by label
    /// order) — the clique-query workload draws labels from the top 40
    /// (§5.1).
    pub fn top_labels(&self, k: usize) -> Vec<Value> {
        let mut v: Vec<(&Value, u64)> = self
            .node_freq
            .iter()
            .map(|(&id, &f)| (self.interner.resolve(id), f))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        v.into_iter().take(k).map(|(l, _)| l.clone()).collect()
    }

    /// Number of distinct node labels.
    pub fn distinct_labels(&self) -> usize {
        self.node_freq.len()
    }

    /// Records one node property-run summary: `len` indexed entries with
    /// `distinct` distinct values for `attr` on nodes labeled `label`.
    pub fn record_prop_run(&mut self, label: u32, attr: &str, len: u64, distinct: u64) {
        self.prop_runs
            .entry(label)
            .or_default()
            .insert(attr.to_string(), (len, distinct));
    }

    /// The `(entries, distinct)` summary of the property run for
    /// `(label, attr)`, if one was recorded.
    pub fn prop_run(&self, label: u32, attr: &str) -> Option<(u64, u64)> {
        self.prop_runs.get(&label)?.get(attr).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::figure_4_16_graph;

    #[test]
    fn figure_graph_frequencies() {
        let (g, _) = figure_4_16_graph();
        let s = GraphStats::collect(&g);
        assert_eq!(s.node_count(), 6);
        assert_eq!(s.edge_count(), 6);
        assert_eq!(s.distinct_labels(), 3);
        let l = |x: &str| Value::Str(x.into());
        assert_eq!(s.node_label_freq(&l("A")), 2);
        assert_eq!(s.node_label_freq(&l("B")), 2);
        assert_eq!(s.node_label_freq(&l("C")), 2);
        assert_eq!(s.node_label_freq(&l("Z")), 0);
        // Edges: A-B ×2 (A1B1, A2B2), A-C ×1, B-C ×3 (B1C1, B1C2, B2C2).
        assert_eq!(s.edge_label_freq(&l("A"), &l("B")), 2);
        assert_eq!(s.edge_label_freq(&l("B"), &l("A")), 2, "unordered");
        assert_eq!(s.edge_label_freq(&l("A"), &l("C")), 1);
        assert_eq!(s.edge_label_freq(&l("B"), &l("C")), 3);
        assert_eq!(s.edge_label_freq(&l("A"), &l("A")), 0);
    }

    #[test]
    fn probabilities() {
        let (g, _) = figure_4_16_graph();
        let s = GraphStats::collect(&g);
        let l = |x: &str| Value::Str(x.into());
        assert!((s.edge_probability(&l("A"), &l("B")) - 0.5).abs() < 1e-12);
        assert!((s.edge_probability(&l("B"), &l("C")) - 0.75).abs() < 1e-12);
        assert_eq!(s.edge_probability(&l("A"), &l("Z")), 0.0);
    }

    #[test]
    fn id_accessors_agree_with_value_accessors() {
        let (g, _) = figure_4_16_graph();
        let s = GraphStats::collect(&g);
        for a in ["A", "B", "C"] {
            let va = Value::Str(a.into());
            let ia = s.interner().lookup(&va).unwrap();
            assert_eq!(s.node_label_freq_id(ia), s.node_label_freq(&va));
            for b in ["A", "B", "C"] {
                let vb = Value::Str(b.into());
                let ib = s.interner().lookup(&vb).unwrap();
                assert_eq!(s.edge_label_freq_ids(ia, ib), s.edge_label_freq(&va, &vb));
                assert_eq!(
                    s.edge_probability_ids(ia, ib).to_bits(),
                    s.edge_probability(&va, &vb).to_bits()
                );
            }
        }
        assert_eq!(s.node_label_freq_id(NO_LABEL), 0);
    }

    #[test]
    fn from_interned_matches_collect() {
        let (g, _) = figure_4_16_graph();
        let mut interner = LabelInterner::new();
        let mut ids = vec![NO_LABEL; g.node_count()];
        for (id, n) in g.nodes() {
            if let Some(l) = n.attrs.get("label") {
                ids[id.index()] = interner.intern(l);
            }
        }
        let shared = Arc::new(interner);
        let s = GraphStats::from_interned(Arc::clone(&shared), &g, &ids);
        let c = GraphStats::collect(&g);
        let l = |x: &str| Value::Str(x.into());
        for a in ["A", "B", "C", "Z"] {
            assert_eq!(s.node_label_freq(&l(a)), c.node_label_freq(&l(a)));
            for b in ["A", "B", "C"] {
                assert_eq!(
                    s.edge_label_freq(&l(a), &l(b)),
                    c.edge_label_freq(&l(a), &l(b))
                );
            }
        }
        assert_eq!(s.distinct_labels(), c.distinct_labels());
        assert!(
            Arc::ptr_eq(&shared, &s.interner),
            "dictionary is shared, not copied"
        );
    }

    #[test]
    fn top_labels_order() {
        let (g, _) = figure_4_16_graph();
        let mut g = g;
        g.add_labeled_node("B");
        let s = GraphStats::collect(&g);
        let top = s.top_labels(2);
        assert_eq!(top[0], Value::Str("B".into()));
        assert_eq!(top.len(), 2);
    }

    #[test]
    fn prop_run_summaries_round_trip() {
        let (g, _) = figure_4_16_graph();
        let mut s = GraphStats::collect(&g);
        assert_eq!(s.prop_run(0, "year"), None);
        s.record_prop_run(0, "year", 10, 4);
        assert_eq!(s.prop_run(0, "year"), Some((10, 4)));
        assert_eq!(s.prop_run(0, "absent"), None);
    }

    #[test]
    fn directed_edge_freq_is_ordered() {
        let mut g = Graph::new_directed();
        let a = g.add_labeled_node("A");
        let b = g.add_labeled_node("B");
        g.add_edge(a, b, crate::tuple::Tuple::new()).unwrap();
        let s = GraphStats::collect(&g);
        let l = |x: &str| Value::Str(x.into());
        assert_eq!(s.edge_label_freq(&l("A"), &l("B")), 1);
        assert_eq!(s.edge_label_freq(&l("B"), &l("A")), 0);
    }
}
