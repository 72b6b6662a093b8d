//! Attributed graphs: the basic unit of information in GraphQL.

use crate::error::{CoreError, Result};
use crate::tuple::Tuple;
use crate::value::Value;
use rustc_hash::FxHashMap;
use std::fmt;

/// Index of a node within its graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Index of an edge within its graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl NodeId {
    /// The id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// The id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A node: a name (the variable that identified it in the source text, if
/// any) plus its attribute tuple.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Node {
    /// Variable name from the source text (`v1`, `P.v2`, ...), if any.
    pub name: Option<String>,
    /// Attribute tuple.
    pub attrs: Tuple,
}

/// An edge between two nodes with an attribute tuple.
#[derive(Debug, Clone, PartialEq)]
pub struct Edge {
    /// Variable name from the source text, if any.
    pub name: Option<String>,
    /// Source endpoint (for undirected graphs, an arbitrary endpoint).
    pub src: NodeId,
    /// Target endpoint.
    pub dst: NodeId,
    /// Attribute tuple.
    pub attrs: Tuple,
}

impl Edge {
    /// Given one endpoint, returns the other.
    #[inline]
    pub fn other(&self, v: NodeId) -> NodeId {
        if self.src == v {
            self.dst
        } else {
            self.src
        }
    }
}

/// An attributed graph.
///
/// Graphs are undirected by default (matching the paper's experiments on
/// protein networks and Erdős–Rényi graphs); directed graphs are supported
/// via [`Graph::new_directed`]. Node and edge ids are dense indices;
/// removal is not supported on `Graph` itself — rewriting operators build
/// new graphs (see `GraphBuilder::unify`), which keeps ids stable and
/// adjacency compact.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    /// Graph-level name, e.g. `G1`.
    pub name: Option<String>,
    /// Graph-level attribute tuple, e.g. `<inproceedings>`.
    pub attrs: Tuple,
    directed: bool,
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    /// `adj[v]` lists `(neighbor, edge)`; undirected edges appear in both
    /// endpoint lists.
    adj: Vec<Vec<(NodeId, EdgeId)>>,
    /// Reverse adjacency, populated only for directed graphs.
    in_adj: Vec<Vec<(NodeId, EdgeId)>>,
    /// O(1) edge lookup. Undirected edges are keyed under both endpoint
    /// orders.
    edge_index: FxHashMap<(u32, u32), EdgeId>,
}

impl Graph {
    /// Creates an empty undirected graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Creates an empty directed graph.
    pub fn new_directed() -> Self {
        Graph {
            directed: true,
            ..Graph::default()
        }
    }

    /// Creates an empty undirected graph with the given name.
    pub fn named(name: impl Into<String>) -> Self {
        Graph {
            name: Some(name.into()),
            ..Graph::default()
        }
    }

    /// Whether edges are directed.
    #[inline]
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds a node with the given attributes; returns its id.
    pub fn add_node(&mut self, attrs: Tuple) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { name: None, attrs });
        self.adj.push(Vec::new());
        if self.directed {
            self.in_adj.push(Vec::new());
        }
        id
    }

    /// Adds a named node (name = source-text variable).
    pub fn add_named_node(&mut self, name: impl Into<String>, attrs: Tuple) -> NodeId {
        let id = self.add_node(attrs);
        self.nodes[id.index()].name = Some(name.into());
        id
    }

    /// Adds a node whose only attribute is `label`; the common shape in
    /// the paper's experiments.
    pub fn add_labeled_node(&mut self, label: impl Into<Value>) -> NodeId {
        self.add_node(Tuple::new().with("label", label))
    }

    /// Adds an edge. Errors if either endpoint is out of range, on
    /// self-loops, or if the edge already exists (the paper's model uses
    /// simple graphs).
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, attrs: Tuple) -> Result<EdgeId> {
        if src.index() >= self.nodes.len() || dst.index() >= self.nodes.len() {
            return Err(CoreError::NodeOutOfRange {
                node: src.index().max(dst.index()),
                count: self.nodes.len(),
            });
        }
        if src == dst {
            return Err(CoreError::SelfLoop { node: src.index() });
        }
        if self.edge_index.contains_key(&(src.0, dst.0)) {
            return Err(CoreError::DuplicateEdge {
                src: src.index(),
                dst: dst.index(),
            });
        }
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge {
            name: None,
            src,
            dst,
            attrs,
        });
        self.adj[src.index()].push((dst, id));
        self.edge_index.insert((src.0, dst.0), id);
        if self.directed {
            self.in_adj[dst.index()].push((src, id));
        } else {
            self.adj[dst.index()].push((src, id));
            self.edge_index.insert((dst.0, src.0), id);
        }
        Ok(id)
    }

    /// Adds a named edge.
    pub fn add_named_edge(
        &mut self,
        name: impl Into<String>,
        src: NodeId,
        dst: NodeId,
        attrs: Tuple,
    ) -> Result<EdgeId> {
        let id = self.add_edge(src, dst, attrs)?;
        self.edges[id.index()].name = Some(name.into());
        Ok(id)
    }

    /// Node accessor.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Mutable node accessor.
    #[inline]
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.index()]
    }

    /// Edge accessor.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.index()]
    }

    /// Mutable edge accessor.
    #[inline]
    pub fn edge_mut(&mut self, id: EdgeId) -> &mut Edge {
        &mut self.edges[id.index()]
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterates over `(id, node)`.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Iterates over `(id, edge)`.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, e)| (EdgeId(i as u32), e))
    }

    /// `(neighbor, edge)` pairs adjacent to `v`. For directed graphs these
    /// are out-neighbors.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[(NodeId, EdgeId)] {
        &self.adj[v.index()]
    }

    /// `(source, edge)` pairs of edges *into* `v`. Empty for undirected
    /// graphs (incoming edges already appear in [`Graph::neighbors`]).
    #[inline]
    pub fn in_neighbors(&self, v: NodeId) -> &[(NodeId, EdgeId)] {
        if self.directed {
            &self.in_adj[v.index()]
        } else {
            &[]
        }
    }

    /// All incident `(neighbor, edge)` pairs regardless of direction:
    /// `neighbors ∪ in_neighbors`.
    pub fn incident(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeId)> + '_ {
        self.neighbors(v)
            .iter()
            .copied()
            .chain(self.in_neighbors(v).iter().copied())
    }

    /// Degree of `v` (out-degree for directed graphs).
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.adj[v.index()].len()
    }

    /// Total incident-edge count (degree + in-degree for directed).
    #[inline]
    pub fn incident_degree(&self, v: NodeId) -> usize {
        self.adj[v.index()].len() + self.in_neighbors(v).len()
    }

    /// O(1): the edge from `a` to `b` if present (either direction for
    /// undirected graphs).
    #[inline]
    pub fn edge_between(&self, a: NodeId, b: NodeId) -> Option<EdgeId> {
        self.edge_index.get(&(a.0, b.0)).copied()
    }

    /// O(1) edge-existence test.
    #[inline]
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.edge_index.contains_key(&(a.0, b.0))
    }

    /// The `label` attribute of a node, if present. Convenience for the
    /// experiment workloads where every node carries a single label.
    pub fn node_label(&self, v: NodeId) -> Option<&Value> {
        self.node(v).attrs.get("label")
    }

    /// Looks up a node by its source-text variable name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.nodes
            .iter()
            .position(|n| n.name.as_deref() == Some(name))
            .map(|i| NodeId(i as u32))
    }

    /// True if the graph is connected (ignoring direction). The empty
    /// graph counts as connected.
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1usize;
        while let Some(v) = stack.pop() {
            for &(w, _) in self.neighbors(v) {
                if !seen[w.index()] {
                    seen[w.index()] = true;
                    count += 1;
                    stack.push(w);
                }
            }
            // For directed graphs also walk incoming edges so connectivity
            // is weak connectivity.
            for &(w, _) in self.in_neighbors(v) {
                if !seen[w.index()] {
                    seen[w.index()] = true;
                    count += 1;
                    stack.push(w);
                }
            }
        }
        count == self.nodes.len()
    }

    /// Appends a disjoint copy of `other` into `self`, returning the node
    /// id offset at which `other`'s nodes were inserted. This is the
    /// algebra's Cartesian-product / concatenation primitive.
    pub fn append_disjoint(&mut self, other: &Graph) -> u32 {
        let offset = self.nodes.len() as u32;
        for (_, n) in other.nodes() {
            let id = self.add_node(n.attrs.clone());
            self.nodes[id.index()].name = n.name.clone();
        }
        for (_, e) in other.edges() {
            let src = NodeId(e.src.0 + offset);
            let dst = NodeId(e.dst.0 + offset);
            // Disjoint copy of a valid simple graph cannot collide.
            let id = self
                .add_edge(src, dst, e.attrs.clone())
                .expect("disjoint append cannot create duplicate edges");
            self.edges[id.index()].name = e.name.clone();
        }
        offset
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Node names can collide after unification/accumulation; fall
        // back to positional ids so edge endpoints stay unambiguous.
        let mut name_counts: FxHashMap<&str, usize> = FxHashMap::default();
        for (_, n) in self.nodes() {
            if let Some(nm) = &n.name {
                *name_counts.entry(nm.as_str()).or_insert(0) += 1;
            }
        }
        let display_name = |id: NodeId| -> String {
            match &self.node(id).name {
                Some(nm) if name_counts.get(nm.as_str()) == Some(&1) => nm.clone(),
                _ => id.to_string(),
            }
        };
        write!(f, "graph")?;
        if let Some(n) = &self.name {
            write!(f, " {n}")?;
        }
        if self.attrs.tag().is_some() || !self.attrs.is_empty() {
            write!(f, " {}", self.attrs)?;
        }
        writeln!(f, " {{")?;
        for (id, n) in self.nodes() {
            write!(f, "  node {}", display_name(id))?;
            if n.attrs.tag().is_some() || !n.attrs.is_empty() {
                write!(f, " {}", n.attrs)?;
            }
            writeln!(f, ";")?;
        }
        for (id, e) in self.edges() {
            write!(
                f,
                "  edge {} ({}, {})",
                e.name.clone().unwrap_or_else(|| id.to_string()),
                display_name(e.src),
                display_name(e.dst)
            )?;
            if e.attrs.tag().is_some() || !e.attrs.is_empty() {
                write!(f, " {}", e.attrs)?;
            }
            writeln!(f, ";")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        let mut g = Graph::new();
        let a = g.add_labeled_node("A");
        let b = g.add_labeled_node("B");
        let c = g.add_labeled_node("C");
        g.add_edge(a, b, Tuple::new()).unwrap();
        g.add_edge(b, c, Tuple::new()).unwrap();
        g.add_edge(c, a, Tuple::new()).unwrap();
        g
    }

    #[test]
    fn basic_construction_and_adjacency() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        for v in g.node_ids() {
            assert_eq!(g.degree(v), 2);
        }
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(g.has_edge(NodeId(1), NodeId(0)), "undirected symmetry");
        assert!(g.is_connected());
    }

    #[test]
    fn directed_edges_are_asymmetric() {
        let mut g = Graph::new_directed();
        let a = g.add_labeled_node("A");
        let b = g.add_labeled_node("B");
        g.add_edge(a, b, Tuple::new()).unwrap();
        assert!(g.has_edge(a, b));
        assert!(!g.has_edge(b, a));
        assert_eq!(g.degree(a), 1);
        assert_eq!(g.degree(b), 0);
        assert!(g.is_connected(), "weakly connected");
    }

    #[test]
    fn rejects_self_loops_duplicates_and_bad_ids() {
        let mut g = triangle();
        assert!(matches!(
            g.add_edge(NodeId(0), NodeId(0), Tuple::new()),
            Err(CoreError::SelfLoop { .. })
        ));
        assert!(matches!(
            g.add_edge(NodeId(0), NodeId(1), Tuple::new()),
            Err(CoreError::DuplicateEdge { .. })
        ));
        assert!(matches!(
            g.add_edge(NodeId(1), NodeId(0), Tuple::new()),
            Err(CoreError::DuplicateEdge { .. }),
        ));
        assert!(matches!(
            g.add_edge(NodeId(0), NodeId(9), Tuple::new()),
            Err(CoreError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn append_disjoint_offsets_ids() {
        let mut g = triangle();
        let h = triangle();
        let off = g.append_disjoint(&h);
        assert_eq!(off, 3);
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.edge_count(), 6);
        assert!(g.has_edge(NodeId(3), NodeId(4)));
        assert!(!g.has_edge(NodeId(0), NodeId(3)));
        assert!(!g.is_connected());
    }

    #[test]
    fn named_lookup() {
        let mut g = Graph::named("G1");
        let v = g.add_named_node("v1", Tuple::new().with("label", "A"));
        let w = g.add_named_node("v2", Tuple::new().with("label", "B"));
        g.add_named_edge("e1", v, w, Tuple::new()).unwrap();
        assert_eq!(g.node_by_name("v1"), Some(v));
        assert_eq!(g.node_by_name("vX"), None);
        assert_eq!(g.edge(EdgeId(0)).name.as_deref(), Some("e1"));
        assert_eq!(g.node_label(v), Some(&Value::Str("A".into())));
    }

    #[test]
    fn display_round_trips_structure() {
        let g = triangle();
        let s = g.to_string();
        assert!(s.contains("node v0"));
        assert!(s.contains("edge e0 (v0, v1)"));
    }
}
