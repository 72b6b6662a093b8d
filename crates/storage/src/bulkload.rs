//! Bulk loading: build a checkpoint-ready [`CollectionSnapshot`]
//! straight from sorted input, without ever materializing the mutable
//! [`gql_core::Graph`].
//!
//! The mutable graph pays per-edge hash-map probes (the duplicate-edge
//! index) and grows `Vec`-of-`Vec` adjacency; the bulk path instead
//! requires its input pre-sorted by source node and builds the CSR
//! arrays with one counting sort, the label tables with one interning
//! scan, and the interned profiles with the same zero-allocation BFS
//! the index build uses. The output is byte-compatible with what
//! [`Store::checkpoint`](crate::Store::checkpoint) writes for a
//! graph built the slow way, so a first open of a bulk-loaded
//! directory already takes the segment-read fast path.
//!
//! Validation mirrors [`Graph::add_edge`](gql_core::Graph::add_edge):
//! endpoints must be in range, self-loops are rejected, and duplicate
//! edges (either order for undirected graphs) are rejected — plus the
//! bulk-only requirement that edge sources arrive in non-decreasing
//! order.

use crate::codec::StoredOptions;
use crate::store::CollectionSnapshot;
use crate::{Result, StoreError};
use gql_core::storage::{encode_graph_data, put_varint};
use gql_core::{
    AdjacencyParts, CsrEntry, CsrGraph, CsrParts, EdgeData, GraphData, LabelInterner, NodeData,
    NodeId, ProfileScratch, Slab, Tuple, NO_LABEL,
};
use gql_match::IndexParts;

/// Accumulates sorted rows and assembles the snapshot.
#[derive(Debug)]
pub struct BulkLoader {
    directed: bool,
    nodes: Vec<NodeData>,
    edges: Vec<EdgeData>,
}

impl BulkLoader {
    /// An empty loader for a graph with the given edge direction.
    pub fn new(directed: bool) -> Self {
        BulkLoader {
            directed,
            nodes: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Appends a node; returns its id (dense, in insertion order).
    pub fn add_node(&mut self, attrs: Tuple) -> u32 {
        self.nodes.push(NodeData { name: None, attrs });
        (self.nodes.len() - 1) as u32
    }

    /// Appends an edge. Sources must arrive in non-decreasing order
    /// (the "sorted input" contract that lets the CSR build be a
    /// counting sort); endpoints must be existing nodes; self-loops
    /// are rejected here, duplicates at [`BulkLoader::into_snapshot`].
    pub fn add_edge(&mut self, src: u32, dst: u32, attrs: Tuple) -> Result<()> {
        if let Some(last) = self.edges.last() {
            if src < last.src {
                return Err(StoreError::Invalid("bulk input not sorted by source"));
            }
        }
        let n = self.nodes.len() as u32;
        if src >= n || dst >= n {
            return Err(StoreError::Invalid("edge endpoint out of range"));
        }
        if src == dst {
            return Err(StoreError::Invalid("self loops are not allowed"));
        }
        self.edges.push(EdgeData {
            name: None,
            src,
            dst,
            attrs,
        });
        Ok(())
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Builds the checkpoint-ready snapshot: collection payload bytes
    /// plus the [`IndexParts`] (label tables, CSR arrays, interned
    /// profiles) that let reopen skip the index build entirely.
    pub fn into_snapshot(self, name: &str, options: &StoredOptions) -> Result<CollectionSnapshot> {
        self.check_duplicates()?;
        // Label tables, interned in the same first-seen order as the
        // index build: all nodes, then all edges.
        let mut interner = LabelInterner::new();
        let node_label_ids: Vec<u32> = self
            .nodes
            .iter()
            .map(|n| {
                n.attrs
                    .get("label")
                    .map_or(NO_LABEL, |l| interner.intern(l))
            })
            .collect();
        let edge_label_ids: Vec<u32> = self
            .edges
            .iter()
            .map(|e| {
                e.attrs
                    .get("label")
                    .map_or(NO_LABEL, |l| interner.intern(l))
            })
            .collect();
        // CSR arrays by counting sort. Entries carry the *neighbor's*
        // node-label id, mirroring `CsrGraph::build`.
        let n = self.nodes.len();
        let entry = |to: u32, edge: usize| CsrEntry {
            label: node_label_ids[to as usize],
            node: to,
            edge: edge as u32,
        };
        let (out, inc, all) = if self.directed {
            (
                build_adjacency(n, &self.edges, |e, i| [(e.src, entry(e.dst, i))]),
                build_adjacency(n, &self.edges, |e, i| [(e.dst, entry(e.src, i))]),
                build_adjacency(n, &self.edges, |e, i| {
                    [(e.src, entry(e.dst, i)), (e.dst, entry(e.src, i))]
                }),
            )
        } else {
            (
                build_adjacency(n, &self.edges, |e, i| {
                    [(e.src, entry(e.dst, i)), (e.dst, entry(e.src, i))]
                }),
                AdjacencyParts::default(),
                AdjacencyParts::default(),
            )
        };
        let parts = CsrParts {
            directed: self.directed,
            node_labels: node_label_ids.clone().into(),
            out,
            inc,
            all,
        };
        // Round the arrays through the validating constructor — the
        // same gate a checkpointed segment passes at reopen — and run
        // the profile BFS on the validated snapshot.
        let csr =
            CsrGraph::from_parts(parts.clone()).map_err(|_| StoreError::Invalid("bulk csr"))?;
        let (profile_offsets, profile_ids) = if options.profiles {
            let radius = options.radius as usize;
            let mut scratch = ProfileScratch::new();
            let mut offsets: Vec<u32> = Vec::with_capacity(n + 1);
            offsets.push(0);
            let mut ids: Vec<u32> = Vec::new();
            for v in 0..n as u32 {
                ids.extend_from_slice(csr.id_profile(NodeId(v), radius, &mut scratch).ids());
                offsets.push(ids.len() as u32);
            }
            (Slab::from(offsets), Slab::from(ids))
        } else {
            (Slab::default(), Slab::default())
        };
        let index = IndexParts {
            interner_values: (0..interner.len() as u32)
                .map(|id| interner.resolve(id).clone())
                .collect(),
            node_label_ids: node_label_ids.into(),
            edge_label_ids: edge_label_ids.into(),
            csr: options.csr.then_some(parts),
            profile_offsets,
            profile_ids,
            radius: options.radius as usize,
            prop_index: options.prop_index,
        };
        // Collection payload: one length-prefixed graph frame, encoded
        // straight from the flat rows.
        let frame = encode_graph_data(&GraphData {
            name: None,
            attrs: Tuple::default(),
            directed: self.directed,
            nodes: self.nodes,
            edges: self.edges,
        });
        let mut payload = Vec::with_capacity(frame.len() + 4);
        put_varint(&mut payload, frame.len() as u64);
        payload.extend_from_slice(&frame);
        Ok(CollectionSnapshot {
            name: name.to_string(),
            payload,
            indexes: vec![index],
        })
    }

    /// Rejects duplicate edges: same `(src, dst)` for directed graphs,
    /// same unordered pair for undirected ones (mirroring the mutable
    /// graph's hash-index check, but as a sort + adjacent-equal scan).
    fn check_duplicates(&self) -> Result<()> {
        let mut pairs: Vec<(u32, u32)> = self
            .edges
            .iter()
            .map(|e| {
                if self.directed || e.src < e.dst {
                    (e.src, e.dst)
                } else {
                    (e.dst, e.src)
                }
            })
            .collect();
        pairs.sort_unstable();
        if pairs.windows(2).any(|w| w[0] == w[1]) {
            return Err(StoreError::Invalid("duplicate edge"));
        }
        Ok(())
    }
}

/// Counting-sort CSR construction: one pass to count row degrees, a
/// prefix sum for the offsets, one pass to place entries, then a
/// per-row sort into the `(label, node, edge)` order every CSR
/// consumer binary-searches on.
fn build_adjacency<const K: usize, F>(n: usize, edges: &[EdgeData], emit: F) -> AdjacencyParts
where
    F: Fn(&EdgeData, usize) -> [(u32, CsrEntry); K],
{
    let mut offsets = vec![0u32; n + 1];
    for (i, e) in edges.iter().enumerate() {
        for (row, _) in emit(e, i) {
            offsets[row as usize + 1] += 1;
        }
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let mut cursor = offsets.clone();
    let mut entries = vec![CsrEntry::default(); offsets[n] as usize];
    for (i, e) in edges.iter().enumerate() {
        for (row, entry) in emit(e, i) {
            let slot = cursor[row as usize] as usize;
            entries[slot] = entry;
            cursor[row as usize] += 1;
        }
    }
    for w in offsets.windows(2) {
        entries[w[0] as usize..w[1] as usize].sort_unstable_by_key(|e| (e.label, e.node, e.edge));
    }
    AdjacencyParts {
        offsets: offsets.into(),
        entries: entries.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gql_core::storage::decode_collection;
    use gql_core::Graph;
    use gql_match::{GraphIndex, IndexOptions};

    fn labeled(label: &str, extra: Option<(&str, i64)>) -> Tuple {
        let mut t = Tuple::default();
        t.set("label", label);
        if let Some((k, v)) = extra {
            t.set(k, v);
        }
        t
    }

    fn opts() -> StoredOptions {
        StoredOptions {
            csr: true,
            prop_index: true,
            profiles: true,
            radius: 1,
        }
    }

    /// The bulk-built snapshot must be indistinguishable from building
    /// the same graph mutably and checkpointing it: identical decoded
    /// graph, identical `IndexParts`.
    #[test]
    fn bulk_load_matches_mutable_build() {
        for directed in [false, true] {
            // Bulk path.
            let mut bl = BulkLoader::new(directed);
            for i in 0..6 {
                let label = if i % 2 == 0 { "P" } else { "Q" };
                bl.add_node(labeled(label, Some(("uid", i))));
            }
            let edges: [(u32, u32, &str); 6] = [
                (0, 1, "knows"),
                (0, 3, "works"),
                (1, 2, "knows"),
                (2, 5, "works"),
                (3, 4, "knows"),
                (4, 5, "knows"),
            ];
            for &(s, d, l) in &edges {
                bl.add_edge(s, d, labeled(l, None)).unwrap();
            }
            let snap = bl.into_snapshot("db", &opts()).unwrap();

            // Mutable path over the same rows.
            let mut g = if directed {
                Graph::new_directed()
            } else {
                Graph::new()
            };
            for i in 0..6 {
                let label = if i % 2 == 0 { "P" } else { "Q" };
                g.add_node(labeled(label, Some(("uid", i))));
            }
            for &(s, d, l) in &edges {
                g.add_edge(NodeId(s), NodeId(d), labeled(l, None)).unwrap();
            }
            let idx = GraphIndex::build_with(&g, &IndexOptions::default());

            // Payload decodes to the same graph.
            let decoded = decode_collection(&snap.payload).unwrap();
            assert_eq!(decoded.len(), 1);
            assert_eq!(decoded[0].node_count(), g.node_count());
            assert_eq!(decoded[0].edge_count(), g.edge_count());
            for v in g.node_ids() {
                assert_eq!(decoded[0].node(v).attrs, g.node(v).attrs);
            }
            // Index parts are byte-for-byte the mutable build's.
            assert_eq!(snap.indexes.len(), 1);
            assert_eq!(snap.indexes[0], idx.to_parts(), "directed={directed}");
            // And they pass the validating reopen against the decoded
            // graph.
            GraphIndex::from_parts(&decoded[0], snap.indexes[0].clone()).unwrap();
        }
    }

    #[test]
    fn invalid_input_is_rejected() {
        let mut bl = BulkLoader::new(false);
        bl.add_node(labeled("P", None));
        bl.add_node(labeled("P", None));
        bl.add_node(labeled("P", None));
        assert!(bl.add_edge(0, 0, Tuple::default()).is_err(), "self loop");
        assert!(bl.add_edge(0, 7, Tuple::default()).is_err(), "range");
        bl.add_edge(1, 2, Tuple::default()).unwrap();
        assert!(bl.add_edge(0, 1, Tuple::default()).is_err(), "unsorted");
        // Duplicate in the other order (undirected) is caught at finish.
        bl.add_edge(2, 1, Tuple::default()).unwrap();
        assert!(bl.into_snapshot("db", &opts()).is_err());
    }
}
