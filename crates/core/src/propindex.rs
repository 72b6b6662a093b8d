//! Sorted secondary property indexes (ROADMAP item 5).
//!
//! The paper's access methods prune by structure (profiles, refinement);
//! attribute predicates still scan the label bucket per candidate. This
//! module adds the missing value axis: for every `(label, attribute)`
//! pair seen in the data graph, a [`Run`] holds `(Value, id)` entries
//! sorted by the total [`Value`] order with ids as tie-break, so an
//! equality or range predicate resolves in `O(log n + k)` instead of
//! `O(bucket)`.
//!
//! Correctness contract with the scan path (`feasible::retrieve`):
//!
//! - **Equality**: `Value::eq` is `compare() == Some(Equal)`, and within
//!   an equal `Ord` range every pair is comparable (each `Ord` rank —
//!   bools, numerics, strings — is internally total), so the binary
//!   equal-range *is* the scan's equality set: no post-filter.
//! - **Ranges**: `compare()` returns `None` across ranks (`1 < "a"` is
//!   undefined, so a scan rejects it); the `Ord` partition bound is
//!   therefore a superset and each entry is re-checked with `compare()`
//!   before it is admitted, which drops cross-rank values exactly like
//!   the scan's `Undefined` verdict does.
//! - **Missing attribute**: a node without the attribute never enters
//!   the run, and a scan rejects it (`Undefined`); if *no* node of the
//!   label carries the attribute the run is absent and the empty result
//!   is the correct short-circuit.
//!
//! Probe results come back ascending by id — the same order as the
//! label bucket — so downstream candidate lists are byte-identical to
//! the scan path's.

use crate::graph::Graph;
use crate::intern::NO_LABEL;
use crate::op::BinOp;
use crate::value::Value;
use rustc_hash::FxHashMap;
use std::cmp::Ordering;

/// Predicate shapes a sorted run can answer. `!=` is deliberately
/// absent: its answer is the bucket minus a probe, which is no cheaper
/// than the scan and would complicate the equivalence argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeOp {
    /// `attr == key`
    Eq,
    /// `attr < key`
    Lt,
    /// `attr <= key`
    Le,
    /// `attr > key`
    Gt,
    /// `attr >= key`
    Ge,
}

impl ProbeOp {
    /// Maps an expression operator onto a probe, `None` for operators a
    /// sorted run cannot answer (`!=`, logical and arithmetic ops).
    pub fn from_binop(op: BinOp) -> Option<ProbeOp> {
        match op {
            BinOp::Eq => Some(ProbeOp::Eq),
            BinOp::Lt => Some(ProbeOp::Lt),
            BinOp::Le => Some(ProbeOp::Le),
            BinOp::Gt => Some(ProbeOp::Gt),
            BinOp::Ge => Some(ProbeOp::Ge),
            _ => None,
        }
    }

    /// Mirror for the `literal op attr` orientation: `5 < attr` is
    /// `attr > 5`.
    pub fn flip(self) -> ProbeOp {
        match self {
            ProbeOp::Eq => ProbeOp::Eq,
            ProbeOp::Lt => ProbeOp::Gt,
            ProbeOp::Le => ProbeOp::Ge,
            ProbeOp::Gt => ProbeOp::Lt,
            ProbeOp::Ge => ProbeOp::Le,
        }
    }

    /// Whether a `value.compare(key)` verdict satisfies this operator —
    /// the exact predicate the scan path evaluates.
    #[inline]
    fn admits(self, ord: Ordering) -> bool {
        match self {
            ProbeOp::Eq => ord == Ordering::Equal,
            ProbeOp::Lt => ord == Ordering::Less,
            ProbeOp::Le => ord != Ordering::Greater,
            ProbeOp::Gt => ord == Ordering::Greater,
            ProbeOp::Ge => ord != Ordering::Less,
        }
    }
}

/// One sorted run for a `(label, attribute)` pair, stored
/// structure-of-arrays: the sorted keys and a parallel id slab. The
/// split keeps binary-search probes touching only the key column, and
/// the id column rides the owned-or-mapped [`Slab`](crate::Slab)
/// substrate the rest of the read path uses (`Value` keys are
/// heap-structured and stay owned).
#[derive(Debug, Clone, Default)]
pub struct Run {
    /// Sorted by `Value::cmp` (ties grouped; ids break ties ascending).
    keys: Vec<Value>,
    /// `ids[i]` is the node or edge index carrying `keys[i]`.
    ids: crate::slab::Slab<u32>,
    /// Number of `Ord`-distinct values, for selectivity estimates.
    distinct: u32,
}

impl Run {
    /// Freezes raw `(value, id)` pairs into a sorted run. Public so
    /// property tests can exercise probes against a scan oracle without
    /// building a whole graph.
    pub fn build(mut entries: Vec<(Value, u32)>) -> Self {
        entries.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        let distinct = entries
            .windows(2)
            .filter(|w| w[0].0.cmp(&w[1].0) != Ordering::Equal)
            .count() as u32
            + u32::from(!entries.is_empty());
        let mut keys = Vec::with_capacity(entries.len());
        let mut ids = Vec::with_capacity(entries.len());
        for (v, id) in entries {
            keys.push(v);
            ids.push(id);
        }
        Run {
            keys,
            ids: ids.into(),
            distinct,
        }
    }

    /// Number of indexed `(value, id)` entries.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no entry was indexed.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Number of `Ord`-distinct values in the run.
    pub fn distinct(&self) -> u32 {
        self.distinct
    }

    /// Ids whose value satisfies `op` against `key`, ascending by id.
    ///
    /// Equality takes the binary equal-range directly (ids already
    /// ascend there thanks to the id tie-break). Ranges take the `Ord`
    /// partition bound — a superset across type ranks — then re-check
    /// each entry with [`Value::compare`] so incomparable values are
    /// rejected exactly as the scan's `Undefined` verdict rejects them.
    pub fn probe(&self, op: ProbeOp, key: &Value) -> Vec<u32> {
        let lo = || self.keys.partition_point(|v| v.cmp(key) == Ordering::Less);
        let hi = || {
            self.keys
                .partition_point(|v| v.cmp(key) != Ordering::Greater)
        };
        let range = match op {
            ProbeOp::Eq => {
                // Ord-Equal implies compare() == Equal (ranks are
                // internally total), so the equal-range needs no filter.
                return self.ids[lo()..hi()].to_vec();
            }
            ProbeOp::Lt | ProbeOp::Le => 0..if op == ProbeOp::Lt { lo() } else { hi() },
            ProbeOp::Gt | ProbeOp::Ge => (if op == ProbeOp::Gt { hi() } else { lo() })..self.len(),
        };
        let mut ids: Vec<u32> = self.keys[range.clone()]
            .iter()
            .zip(&self.ids[range])
            .filter(|(v, _)| v.compare(key).is_some_and(|ord| op.admits(ord)))
            .map(|(_, &id)| id)
            .collect();
        ids.sort_unstable();
        ids
    }
}

/// Secondary property indexes for one data graph: a sorted [`Run`] per
/// `(label id, attribute name)` over nodes and over edges.
///
/// Built at `GraphIndex` construction from the label-id tables the index
/// already computed, and invalidated with it (the engine drops the whole
/// index on mutation), so a run can never outlive the graph version it
/// describes.
#[derive(Debug, Clone, Default)]
pub struct PropIndex {
    node_runs: FxHashMap<u32, FxHashMap<String, Run>>,
    edge_runs: FxHashMap<u32, FxHashMap<String, Run>>,
}

impl PropIndex {
    /// Builds runs for every labeled node and edge. All attributes are
    /// indexed, including `label` itself — the absent-run short-circuit
    /// (`no run ⇒ no node of the label carries the attribute ⇒ empty`)
    /// is only sound if runs cover *every* attribute.
    pub fn build(g: &Graph, node_label_ids: &[u32], edge_label_ids: &[u32]) -> Self {
        let mut node_acc: FxHashMap<u32, FxHashMap<String, Vec<(Value, u32)>>> =
            FxHashMap::default();
        for (id, n) in g.nodes() {
            let lid = node_label_ids[id.index()];
            if lid == NO_LABEL {
                continue;
            }
            let per_label = node_acc.entry(lid).or_default();
            for (name, value) in n.attrs.iter() {
                per_label
                    .entry(name.to_string())
                    .or_default()
                    .push((value.clone(), id.0));
            }
        }
        let mut edge_acc: FxHashMap<u32, FxHashMap<String, Vec<(Value, u32)>>> =
            FxHashMap::default();
        for (id, e) in g.edges() {
            let lid = edge_label_ids[id.index()];
            if lid == NO_LABEL {
                continue;
            }
            let per_label = edge_acc.entry(lid).or_default();
            for (name, value) in e.attrs.iter() {
                per_label
                    .entry(name.to_string())
                    .or_default()
                    .push((value.clone(), id.0));
            }
        }
        let freeze = |acc: FxHashMap<u32, FxHashMap<String, Vec<(Value, u32)>>>| {
            acc.into_iter()
                .map(|(lid, attrs)| {
                    let frozen = attrs
                        .into_iter()
                        .map(|(name, entries)| (name, Run::build(entries)))
                        .collect();
                    (lid, frozen)
                })
                .collect()
        };
        PropIndex {
            node_runs: freeze(node_acc),
            edge_runs: freeze(edge_acc),
        }
    }

    /// The run for nodes of `label` on `attr`, if any node has it.
    pub fn node_run(&self, label: u32, attr: &str) -> Option<&Run> {
        self.node_runs.get(&label)?.get(attr)
    }

    /// The run for edges of `label` on `attr`, if any edge has it.
    pub fn edge_run(&self, label: u32, attr: &str) -> Option<&Run> {
        self.edge_runs.get(&label)?.get(attr)
    }

    /// Node ids of `label` whose `attr` satisfies `op key`, ascending.
    /// `None` when the label has indexed runs but none for `attr` —
    /// which proves no node of the label carries the attribute, so the
    /// caller may short-circuit to the empty candidate set — or when the
    /// label itself indexed nothing (empty bucket).
    pub fn probe_nodes(
        &self,
        label: u32,
        attr: &str,
        op: ProbeOp,
        key: &Value,
    ) -> Option<Vec<u32>> {
        Some(self.node_run(label, attr)?.probe(op, key))
    }

    /// Edge analogue of [`PropIndex::probe_nodes`].
    pub fn probe_edges(
        &self,
        label: u32,
        attr: &str,
        op: ProbeOp,
        key: &Value,
    ) -> Option<Vec<u32>> {
        Some(self.edge_run(label, attr)?.probe(op, key))
    }

    /// Iterates `(label id, attr, run)` over node runs, for statistics.
    pub fn node_run_summaries(&self) -> impl Iterator<Item = (u32, &str, &Run)> {
        self.node_runs.iter().flat_map(|(&lid, attrs)| {
            attrs
                .iter()
                .map(move |(name, run)| (lid, name.as_str(), run))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::LabelInterner;
    use crate::tuple::Tuple;

    /// Scan-path oracle: ids of labeled nodes whose `attr` satisfies the
    /// predicate under `Value::compare`, exactly as `EvalCtx` would.
    fn scan_nodes(
        g: &Graph,
        lids: &[u32],
        label: u32,
        attr: &str,
        op: ProbeOp,
        key: &Value,
    ) -> Vec<u32> {
        g.nodes()
            .filter(|(id, _)| lids[id.index()] == label)
            .filter(|(_, n)| match op {
                // The scan's == is Value::eq (compare() == Equal).
                ProbeOp::Eq => n.attrs.get(attr) == Some(key),
                _ => n
                    .attrs
                    .get(attr)
                    .and_then(|v| v.compare(key))
                    .is_some_and(|ord| op.admits(ord)),
            })
            .map(|(id, _)| id.0)
            .collect()
    }

    fn label_ids(g: &Graph) -> (Vec<u32>, LabelInterner) {
        let mut interner = LabelInterner::new();
        let ids = g
            .nodes()
            .map(|(_, n)| match n.attrs.get("label") {
                Some(l) => interner.intern(l),
                None => NO_LABEL,
            })
            .collect();
        (ids, interner)
    }

    fn mixed_graph() -> Graph {
        let mut g = Graph::new();
        const P53: i64 = 1 << 53;
        let years: Vec<Value> = vec![
            Value::Int(1999),
            Value::Float(1999.0),
            Value::Int(2005),
            Value::Float(2004.5),
            Value::Int(P53),
            Value::Int(P53 + 1),
            Value::Float(P53 as f64),
            Value::Float(f64::NAN),
            Value::Float(f64::INFINITY),
            Value::Str("1999".into()),
            Value::Bool(true),
            Value::Int(-3),
            Value::Float(-3.5),
        ];
        for (i, y) in years.into_iter().enumerate() {
            let label = if i % 3 == 0 { "A" } else { "B" };
            g.add_node(Tuple::new().with("label", label).with("year", y));
        }
        // A node missing the attribute entirely, and an unlabeled node.
        g.add_node(Tuple::new().with("label", "A"));
        g.add_node(Tuple::new().with("year", 2005));
        g
    }

    #[test]
    fn probes_match_scan_for_all_ops_and_mixed_keys() {
        let g = mixed_graph();
        let (lids, interner) = label_ids(&g);
        let pi = PropIndex::build(&g, &lids, &[]);
        const P53: i64 = 1 << 53;
        let keys = [
            Value::Int(1999),
            Value::Float(1999.0),
            Value::Int(P53),
            Value::Int(P53 + 1),
            Value::Float(P53 as f64),
            Value::Float(2004.75),
            Value::Str("1999".into()),
            Value::Bool(true),
            Value::Float(f64::NAN),
            Value::Int(-4),
        ];
        for label in ["A", "B"] {
            let lid = interner.lookup(&Value::Str(label.into())).unwrap();
            for key in &keys {
                for op in [
                    ProbeOp::Eq,
                    ProbeOp::Lt,
                    ProbeOp::Le,
                    ProbeOp::Gt,
                    ProbeOp::Ge,
                ] {
                    let probed = pi.probe_nodes(lid, "year", op, key).unwrap();
                    let scanned = scan_nodes(&g, &lids, lid, "year", op, key);
                    assert_eq!(probed, scanned, "label={label} op={op:?} key={key}");
                }
            }
        }
    }

    #[test]
    fn absent_run_means_no_node_has_the_attribute() {
        let g = mixed_graph();
        let (lids, interner) = label_ids(&g);
        let pi = PropIndex::build(&g, &lids, &[]);
        let lid = interner.lookup(&Value::Str("A".into())).unwrap();
        assert!(pi.node_run(lid, "year").is_some());
        assert!(pi.node_run(lid, "missing").is_none());
        assert!(scan_nodes(&g, &lids, lid, "missing", ProbeOp::Eq, &Value::Int(1)).is_empty());
        // The label attribute itself is indexed, so label predicates
        // resolve through the same runs.
        let run = pi.node_run(lid, "label").unwrap();
        assert_eq!(run.distinct(), 1);
        assert_eq!(
            pi.probe_nodes(lid, "label", ProbeOp::Eq, &Value::Str("A".into()))
                .unwrap(),
            scan_nodes(
                &g,
                &lids,
                lid,
                "label",
                ProbeOp::Eq,
                &Value::Str("A".into())
            )
        );
    }

    #[test]
    fn eq_range_ids_ascend_and_distinct_counts_ord_classes() {
        let mut g = Graph::new();
        for v in [5i64, 3, 5, 3, 5] {
            g.add_node(Tuple::new().with("label", "X").with("k", v));
        }
        // Float(3.0) is Ord-equal to Int(3): one distinct class.
        g.add_node(Tuple::new().with("label", "X").with("k", 3.0));
        let (lids, interner) = label_ids(&g);
        let pi = PropIndex::build(&g, &lids, &[]);
        let lid = interner.lookup(&Value::Str("X".into())).unwrap();
        let run = pi.node_run(lid, "k").unwrap();
        assert_eq!(run.len(), 6);
        assert_eq!(run.distinct(), 2);
        assert_eq!(run.probe(ProbeOp::Eq, &Value::Int(3)), vec![1, 3, 5]);
        assert_eq!(run.probe(ProbeOp::Eq, &Value::Float(3.0)), vec![1, 3, 5]);
        assert_eq!(
            run.probe(ProbeOp::Ge, &Value::Int(3)),
            vec![0, 1, 2, 3, 4, 5]
        );
        assert_eq!(run.probe(ProbeOp::Gt, &Value::Int(3)), vec![0, 2, 4]);
    }

    #[test]
    fn edge_runs_probe_by_edge_label() {
        let mut g = Graph::new();
        let a = g.add_node(Tuple::new().with("label", "N"));
        let b = g.add_node(Tuple::new().with("label", "N"));
        let c = g.add_node(Tuple::new().with("label", "N"));
        g.add_edge(a, b, Tuple::new().with("label", "E").with("w", 1))
            .unwrap();
        g.add_edge(b, c, Tuple::new().with("label", "E").with("w", 7))
            .unwrap();
        g.add_edge(a, c, Tuple::new().with("w", 9)).unwrap(); // unlabeled: unindexed
        let mut interner = LabelInterner::new();
        let elids: Vec<u32> = g
            .edges()
            .map(|(_, e)| match e.attrs.get("label") {
                Some(l) => interner.intern(l),
                None => NO_LABEL,
            })
            .collect();
        let pi = PropIndex::build(&g, &[NO_LABEL; 3], &elids);
        let lid = interner.lookup(&Value::Str("E".into())).unwrap();
        assert_eq!(
            pi.probe_edges(lid, "w", ProbeOp::Gt, &Value::Int(2)),
            Some(vec![1])
        );
        assert_eq!(
            pi.probe_edges(lid, "w", ProbeOp::Le, &Value::Int(7)),
            Some(vec![0, 1])
        );
    }
}
