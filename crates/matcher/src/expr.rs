//! Predicate expressions over pattern bindings.
//!
//! A graph pattern is "a pair P = (M, F) where M is a graph motif and F
//! is a predicate on the attributes of the motif" (Definition 4.1). The
//! predicate is "a combination of boolean or arithmetic comparison
//! expressions" and "can be broken down to predicates on individual nodes
//! or edges" (§3.2, §4.1) — that breakdown (push-down) happens in
//! [`crate::pattern::Pattern::new`].

use gql_core::{Graph, NodeId, Value};

pub use gql_core::op::BinOp;

/// A predicate/arithmetic expression over the attributes of a pattern's
/// nodes, edges, and the bound data graph.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Constant.
    Literal(Value),
    /// `attr` of the data node bound to pattern node `node`.
    NodeAttr {
        /// Pattern-node index.
        node: usize,
        /// Attribute name.
        attr: String,
    },
    /// `attr` of the data edge bound to pattern edge `edge`.
    EdgeAttr {
        /// Pattern-edge index.
        edge: usize,
        /// Attribute name.
        attr: String,
    },
    /// `attr` of the data graph itself (e.g. `P.booktitle` in Fig 4.12).
    GraphAttr {
        /// Attribute name.
        attr: String,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
}

impl Expr {
    /// Convenience: `lhs op rhs`.
    pub fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// Convenience: node attribute reference.
    pub fn node_attr(node: usize, attr: impl Into<String>) -> Expr {
        Expr::NodeAttr {
            node,
            attr: attr.into(),
        }
    }

    /// Convenience: `node.attr == literal`.
    pub fn node_attr_eq(node: usize, attr: impl Into<String>, v: impl Into<Value>) -> Expr {
        Expr::binary(
            BinOp::Eq,
            Expr::node_attr(node, attr),
            Expr::Literal(v.into()),
        )
    }

    /// Convenience: edge attribute reference.
    pub fn edge_attr(edge: usize, attr: impl Into<String>) -> Expr {
        Expr::EdgeAttr {
            edge,
            attr: attr.into(),
        }
    }

    /// Convenience: `edge.attr == literal`.
    pub fn edge_attr_eq(edge: usize, attr: impl Into<String>, v: impl Into<Value>) -> Expr {
        Expr::binary(
            BinOp::Eq,
            Expr::edge_attr(edge, attr),
            Expr::Literal(v.into()),
        )
    }

    /// The set of pattern-node indices this expression mentions.
    pub fn referenced_nodes(&self, out: &mut Vec<usize>) {
        match self {
            Expr::NodeAttr { node, .. } if !out.contains(node) => {
                out.push(*node);
            }
            Expr::Binary { lhs, rhs, .. } => {
                lhs.referenced_nodes(out);
                rhs.referenced_nodes(out);
            }
            _ => {}
        }
    }

    /// The set of pattern-edge indices this expression mentions.
    pub fn referenced_edges(&self, out: &mut Vec<usize>) {
        match self {
            Expr::EdgeAttr { edge, .. } if !out.contains(edge) => {
                out.push(*edge);
            }
            Expr::Binary { lhs, rhs, .. } => {
                lhs.referenced_edges(out);
                rhs.referenced_edges(out);
            }
            _ => {}
        }
    }
}

/// Binding context during evaluation: the data graph plus (possibly
/// partial) node and edge assignments indexed by pattern node/edge.
pub struct EvalCtx<'a> {
    /// The data graph.
    pub graph: &'a Graph,
    /// `node_bind[u] = Some(v)` if pattern node `u` is mapped to `v`.
    pub node_bind: &'a [Option<NodeId>],
    /// `edge_bind[e]` = data edge bound to pattern edge `e`, if any.
    pub edge_bind: &'a [Option<gql_core::EdgeId>],
}

/// Evaluation outcome; `Unbound` means the expression referenced a
/// pattern element with no binding yet (treated as *not yet decidable*,
/// never as failure).
#[derive(Debug, Clone, PartialEq)]
pub enum EvalResult {
    /// Fully evaluated value.
    Known(Value),
    /// Referenced an unbound pattern element.
    Unbound,
    /// Referenced a missing attribute or applied an op to incompatible
    /// types: the predicate cannot hold.
    Undefined,
}

impl Expr {
    /// Evaluates under `ctx`.
    pub fn eval(&self, ctx: &EvalCtx<'_>) -> EvalResult {
        use EvalResult::*;
        match self {
            Expr::Literal(v) => Known(v.clone()),
            Expr::NodeAttr { node, attr } => match ctx.node_bind.get(*node).copied().flatten() {
                None => Unbound,
                Some(v) => match ctx.graph.node(v).attrs.get(attr) {
                    Some(val) => Known(val.clone()),
                    None => Undefined,
                },
            },
            Expr::EdgeAttr { edge, attr } => match ctx.edge_bind.get(*edge).copied().flatten() {
                None => Unbound,
                Some(e) => match ctx.graph.edge(e).attrs.get(attr) {
                    Some(val) => Known(val.clone()),
                    None => Undefined,
                },
            },
            Expr::GraphAttr { attr } => match ctx.graph.attrs.get(attr) {
                Some(val) => Known(val.clone()),
                None => Undefined,
            },
            Expr::Binary { op, lhs, rhs } => {
                let l = lhs.eval(ctx);
                let r = rhs.eval(ctx);
                // Short-circuitable boolean ops tolerate one undefined /
                // unbound side when the other side decides.
                if let BinOp::Or = op {
                    if let Known(v) = &l {
                        if v.is_truthy() {
                            return Known(Value::Bool(true));
                        }
                    }
                    if let Known(v) = &r {
                        if v.is_truthy() {
                            return Known(Value::Bool(true));
                        }
                    }
                }
                match (l, r) {
                    (Unbound, _) | (_, Unbound) => Unbound,
                    (Undefined, _) | (_, Undefined) => Undefined,
                    (Known(a), Known(b)) => match op {
                        BinOp::Or => Known(Value::Bool(a.is_truthy() || b.is_truthy())),
                        BinOp::And => Known(Value::Bool(a.is_truthy() && b.is_truthy())),
                        BinOp::Add => a.add(&b).map_or(Undefined, Known),
                        BinOp::Sub => a.sub(&b).map_or(Undefined, Known),
                        BinOp::Mul => a.mul(&b).map_or(Undefined, Known),
                        BinOp::Div => a.div(&b).map_or(Undefined, Known),
                        BinOp::Eq => Known(Value::Bool(a == b)),
                        BinOp::Ne => Known(Value::Bool(a != b)),
                        BinOp::Gt | BinOp::Ge | BinOp::Lt | BinOp::Le => match a.compare(&b) {
                            None => Undefined,
                            Some(ord) => {
                                let ok = match op {
                                    BinOp::Gt => ord.is_gt(),
                                    BinOp::Ge => ord.is_ge(),
                                    BinOp::Lt => ord.is_lt(),
                                    BinOp::Le => ord.is_le(),
                                    _ => unreachable!(),
                                };
                                Known(Value::Bool(ok))
                            }
                        },
                    },
                }
            }
        }
    }

    /// Strict check for fully-bound contexts: `Known(truthy)` only.
    pub fn holds(&self, ctx: &EvalCtx<'_>) -> bool {
        matches!(self.eval(ctx), EvalResult::Known(v) if v.is_truthy())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gql_core::Tuple;

    fn ctx_graph() -> Graph {
        let mut g = Graph::new();
        g.attrs = Tuple::new().with("booktitle", "SIGMOD");
        let a = g.add_node(Tuple::tagged("author").with("name", "A").with("year", 2006));
        let b = g.add_node(Tuple::tagged("author").with("name", "B"));
        g.add_edge(a, b, Tuple::new().with("w", 3)).unwrap();
        g
    }

    #[test]
    fn node_attr_comparison() {
        let g = ctx_graph();
        let binds = vec![Some(NodeId(0))];
        let ctx = EvalCtx {
            graph: &g,
            node_bind: &binds,
            edge_bind: &[],
        };
        assert!(Expr::node_attr_eq(0, "name", "A").holds(&ctx));
        assert!(!Expr::node_attr_eq(0, "name", "B").holds(&ctx));
        let year_gt = Expr::binary(
            BinOp::Gt,
            Expr::node_attr(0, "year"),
            Expr::Literal(2000.into()),
        );
        assert!(year_gt.holds(&ctx));
    }

    #[test]
    fn unbound_defers_undefined_rejects() {
        let g = ctx_graph();
        let binds = vec![None, Some(NodeId(1))];
        let ctx = EvalCtx {
            graph: &g,
            node_bind: &binds,
            edge_bind: &[],
        };
        // v0 unbound: cannot decide yet.
        let name_a = Expr::node_attr_eq(0, "name", "A");
        assert_eq!(name_a.eval(&ctx), EvalResult::Unbound);
        assert!(!name_a.holds(&ctx));
        // v1 bound but has no `year`: undefined, rejected.
        let p = Expr::binary(
            BinOp::Gt,
            Expr::node_attr(1, "year"),
            Expr::Literal(2000.into()),
        );
        assert_eq!(p.eval(&ctx), EvalResult::Undefined);
        assert!(!p.holds(&ctx));
    }

    #[test]
    fn graph_and_edge_attrs() {
        let g = ctx_graph();
        let nb = vec![Some(NodeId(0)), Some(NodeId(1))];
        let eb = vec![Some(gql_core::EdgeId(0))];
        let ctx = EvalCtx {
            graph: &g,
            node_bind: &nb,
            edge_bind: &eb,
        };
        let p = Expr::binary(
            BinOp::Eq,
            Expr::GraphAttr {
                attr: "booktitle".into(),
            },
            Expr::Literal("SIGMOD".into()),
        );
        assert!(p.holds(&ctx));
        let q = Expr::binary(
            BinOp::Eq,
            Expr::EdgeAttr {
                edge: 0,
                attr: "w".into(),
            },
            Expr::Literal(3.into()),
        );
        assert!(q.holds(&ctx));
    }

    #[test]
    fn boolean_connectives_short_circuit() {
        let g = ctx_graph();
        let binds = vec![None];
        let ctx = EvalCtx {
            graph: &g,
            node_bind: &binds,
            edge_bind: &[],
        };
        // true | unbound => true even with the unbound side.
        let p = Expr::binary(
            BinOp::Or,
            Expr::Literal(true.into()),
            Expr::node_attr_eq(0, "name", "A"),
        );
        assert_eq!(p.eval(&ctx), EvalResult::Known(Value::Bool(true)));
        // false & unbound => Unbound (still undecided).
        let q = Expr::binary(
            BinOp::And,
            Expr::Literal(false.into()),
            Expr::node_attr_eq(0, "name", "A"),
        );
        assert_eq!(q.eval(&ctx), EvalResult::Unbound);
    }

    #[test]
    fn cross_node_predicate_references() {
        let e = Expr::binary(
            BinOp::Eq,
            Expr::node_attr(0, "label"),
            Expr::node_attr(2, "label"),
        );
        let mut nodes = Vec::new();
        e.referenced_nodes(&mut nodes);
        assert_eq!(nodes, vec![0, 2]);
        let mut edges = Vec::new();
        e.referenced_edges(&mut edges);
        assert!(edges.is_empty());
    }

    #[test]
    fn arithmetic_in_predicates() {
        let g = ctx_graph();
        let binds = vec![Some(NodeId(0))];
        let ctx = EvalCtx {
            graph: &g,
            node_bind: &binds,
            edge_bind: &[],
        };
        // year + 4 == 2010
        let p = Expr::binary(
            BinOp::Eq,
            Expr::binary(
                BinOp::Add,
                Expr::node_attr(0, "year"),
                Expr::Literal(4.into()),
            ),
            Expr::Literal(2010.into()),
        );
        assert!(p.holds(&ctx));
        // division by zero is undefined
        let q = Expr::binary(BinOp::Div, Expr::Literal(1.into()), Expr::Literal(0.into()));
        assert_eq!(q.eval(&ctx), EvalResult::Undefined);
    }
}
