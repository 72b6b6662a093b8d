//! Compiling parsed graph patterns ([`gql_parser::ast`]) into executable
//! [`gql_match::Pattern`]s.
//!
//! Handles the structural sublanguage of §2: node/edge declarations,
//! nested motif references (`graph G1 as X;`, concatenation by edges),
//! and `unify` members (concatenation by unification). Recursive motifs
//! (Definition 4.2: `export` and self-referencing patterns) are rejected
//! here; they are not evaluated.

use crate::error::{AlgebraError, Result};
use gql_core::{unify_nodes_full, Graph, NodeId, Tuple};
use gql_match::{Expr, Pattern};
use gql_parser::ast::{EdgeDecl, ExprAst, GraphPatternAst, MemberDecl, Names, NodeDecl, TupleAst};
use rustc_hash::FxHashMap;

/// A compiled pattern: the matcher [`Pattern`] plus the variable maps
/// needed later to interpret template references like `P.v1`.
#[derive(Debug, Clone)]
pub struct CompiledPattern {
    /// Pattern name, if declared.
    pub name: Option<String>,
    /// Executable pattern.
    pub pattern: Pattern,
    /// Variable name → pattern node index (e.g. `"v1" → 0`, `"X.v1" → 3`).
    pub node_vars: FxHashMap<String, usize>,
    /// Variable name → pattern edge index.
    pub edge_vars: FxHashMap<String, usize>,
}

impl CompiledPattern {
    /// Resolves a node variable.
    pub fn node_var(&self, name: &str) -> Option<usize> {
        self.node_vars.get(name).copied()
    }
}

/// Registry of previously declared patterns, for `graph G1 as X;`
/// references.
pub type PatternRegistry = FxHashMap<String, GraphPatternAst>;

fn tuple_from_ast(t: &Option<TupleAst>) -> Tuple {
    let mut out = Tuple::new();
    if let Some(t) = t {
        if let Some(tag) = &t.tag {
            out.set_tag(tag.clone());
        }
        for (k, v) in &t.attrs {
            out.set(k.clone(), v.clone());
        }
    }
    out
}

/// Compiles `ast` against `registry` (which supplies referenced motifs).
pub fn compile_pattern(
    ast: &GraphPatternAst,
    registry: &PatternRegistry,
) -> Result<CompiledPattern> {
    let mut stack = Vec::new();
    compile_inner(ast, registry, &mut stack)
}

fn compile_inner(
    ast: &GraphPatternAst,
    registry: &PatternRegistry,
    stack: &mut Vec<String>,
) -> Result<CompiledPattern> {
    let mut graph = Graph::new();
    graph.name = ast.name.clone();
    graph.attrs = tuple_from_ast(&ast.tuple);

    let mut node_vars: FxHashMap<String, usize> = FxHashMap::default();
    let mut edge_vars: FxHashMap<String, usize> = FxHashMap::default();
    let mut anon = 0usize;
    let mut unify_pairs: Vec<(String, String)> = Vec::new();
    // Per-node and per-edge `where` clauses, resolved after construction.
    let mut node_wheres: Vec<(String, ExprAst)> = Vec::new();
    let mut edge_wheres: Vec<(String, ExprAst)> = Vec::new();
    // Predicates inherited from spliced sub-patterns, already resolved to
    // matcher expressions (indices shifted to this pattern's space).
    let mut inherited: Vec<Expr> = Vec::new();

    for member in &ast.members {
        match member {
            MemberDecl::Nodes(decls) => {
                for NodeDecl {
                    name,
                    tuple,
                    where_clause,
                } in decls
                {
                    let var = name.clone().unwrap_or_else(|| {
                        anon += 1;
                        format!("_n{anon}")
                    });
                    let id = graph.add_named_node(var.clone(), tuple_from_ast(tuple));
                    node_vars.insert(var.clone(), id.index());
                    if let Some(w) = where_clause {
                        node_wheres.push((var, w.clone()));
                    }
                }
            }
            MemberDecl::Edges(decls) => {
                for EdgeDecl {
                    name,
                    from,
                    to,
                    tuple,
                    where_clause,
                } in decls
                {
                    let src = resolve_node(&node_vars, from)?;
                    let dst = resolve_node(&node_vars, to)?;
                    let var = name.clone().unwrap_or_else(|| {
                        anon += 1;
                        format!("_e{anon}")
                    });
                    let id = graph.add_named_edge(
                        var.clone(),
                        NodeId(src as u32),
                        NodeId(dst as u32),
                        tuple_from_ast(tuple),
                    )?;
                    edge_vars.insert(var.clone(), id.index());
                    if let Some(w) = where_clause {
                        edge_wheres.push((var, w.clone()));
                    }
                }
            }
            MemberDecl::Graphs(refs) => {
                for r in refs {
                    if stack.iter().any(|s| s == &r.name) || ast.name.as_deref() == Some(&r.name) {
                        return Err(AlgebraError::RecursivePattern {
                            name: r.name.clone(),
                        });
                    }
                    let sub_ast =
                        registry
                            .get(&r.name)
                            .ok_or_else(|| AlgebraError::UnknownPattern {
                                name: r.name.clone(),
                            })?;
                    stack.push(r.name.clone());
                    let sub = compile_inner(sub_ast, registry, stack)?;
                    stack.pop();
                    let prefix = r.alias.clone().unwrap_or_else(|| r.name.clone());
                    let offset = graph.append_disjoint(&sub.pattern.graph) as usize;
                    // Re-register spliced variables under the alias and
                    // prefix the embedded node names so unify/templates
                    // can address them (`X.v1`).
                    for (var, idx) in &sub.node_vars {
                        let qualified = format!("{prefix}.{var}");
                        graph.node_mut(NodeId((offset + idx) as u32)).name =
                            Some(qualified.clone());
                        node_vars.insert(qualified, offset + idx);
                    }
                    let edge_offset = graph.edge_count() - sub.pattern.graph.edge_count();
                    for (var, idx) in &sub.edge_vars {
                        edge_vars.insert(format!("{prefix}.{var}"), edge_offset + idx);
                    }
                    // Inherit the sub-pattern's predicates with indices
                    // shifted into this pattern's space.
                    for preds in sub
                        .pattern
                        .node_preds
                        .iter()
                        .chain(sub.pattern.edge_preds.iter())
                    {
                        for p in preds {
                            inherited.push(shift_expr(p, offset, edge_offset));
                        }
                    }
                    for p in &sub.pattern.global_preds {
                        inherited.push(shift_expr(p, offset, edge_offset));
                    }
                }
            }
            MemberDecl::Unify {
                names,
                where_clause,
            } => {
                if where_clause.is_some() {
                    return Err(AlgebraError::Eval {
                        message: "conditional unify is only meaningful in templates".into(),
                    });
                }
                // Chain: unify a,b,c == (a,b), (a,c).
                let first = names[0].to_dotted();
                for n in &names[1..] {
                    unify_pairs.push((first.clone(), n.to_dotted()));
                }
            }
            MemberDecl::Export { .. } => {
                return Err(AlgebraError::Eval {
                    message: "`export` belongs to the recursive motif language; \
                              recursive motifs (Definition 4.2) are not evaluated"
                        .into(),
                });
            }
        }
    }

    // Apply structural unification (concatenation by unification).
    if !unify_pairs.is_empty() {
        let mut pairs = Vec::new();
        for (a, b) in &unify_pairs {
            let ia = *node_vars.get(a).ok_or_else(|| AlgebraError::UnknownName {
                name: a.clone(),
                context: "unify",
            })?;
            let ib = *node_vars.get(b).ok_or_else(|| AlgebraError::UnknownName {
                name: b.clone(),
                context: "unify",
            })?;
            pairs.push((NodeId(ia as u32), NodeId(ib as u32)));
        }
        let unified = unify_nodes_full(&graph, &pairs)?;
        for idx in node_vars.values_mut() {
            *idx = unified.node_map[*idx].index();
        }
        let mut new_edge_vars = FxHashMap::default();
        for (var, idx) in edge_vars.iter() {
            if let Some(Some(e)) = unified.edge_map.get(*idx) {
                new_edge_vars.insert(var.clone(), e.index());
            }
        }
        edge_vars = new_edge_vars;
        // Remap inherited predicates through the unification; predicates
        // on degenerated edges are dropped (the edge no longer exists).
        inherited = inherited
            .into_iter()
            .filter_map(|e| remap_expr(&e, &unified.node_map, &unified.edge_map))
            .collect();
        graph = unified.graph;
    }

    // Resolve the predicate expressions now that indices are final.
    let mut preds = inherited;
    let resolver = NameResolver {
        pattern_name: ast.name.as_deref(),
        node_vars: &node_vars,
        edge_vars: &edge_vars,
    };
    for (var, w) in &node_wheres {
        if var.is_empty() {
            continue;
        }
        let idx = node_vars[var];
        preds.push(resolver.resolve_expr(w, Some(ResolveSelf::Node(idx)))?);
    }
    for (var, w) in &edge_wheres {
        let idx = edge_vars[var];
        preds.push(resolver.resolve_expr(w, Some(ResolveSelf::Edge(idx)))?);
    }
    if let Some(w) = &ast.where_clause {
        preds.push(resolver.resolve_expr(w, None)?);
    }

    Ok(CompiledPattern {
        name: ast.name.clone(),
        pattern: Pattern::new(graph, preds),
        node_vars,
        edge_vars,
    })
}

fn resolve_node(node_vars: &FxHashMap<String, usize>, n: &Names) -> Result<usize> {
    node_vars
        .get(&n.to_dotted())
        .copied()
        .ok_or_else(|| AlgebraError::BadEndpoint {
            name: n.to_dotted(),
        })
}

/// Shifts node/edge indices of an inherited predicate into the outer
/// pattern's index space.
fn shift_expr(e: &Expr, node_offset: usize, edge_offset: usize) -> Expr {
    match e {
        Expr::Literal(v) => Expr::Literal(v.clone()),
        Expr::NodeAttr { node, attr } => Expr::NodeAttr {
            node: node + node_offset,
            attr: attr.clone(),
        },
        Expr::EdgeAttr { edge, attr } => Expr::EdgeAttr {
            edge: edge + edge_offset,
            attr: attr.clone(),
        },
        Expr::GraphAttr { attr } => Expr::GraphAttr { attr: attr.clone() },
        Expr::Binary { op, lhs, rhs } => Expr::Binary {
            op: *op,
            lhs: Box::new(shift_expr(lhs, node_offset, edge_offset)),
            rhs: Box::new(shift_expr(rhs, node_offset, edge_offset)),
        },
    }
}

/// Remaps a predicate through a unification; returns `None` if it touches
/// an edge that degenerated away.
fn remap_expr(
    e: &Expr,
    node_map: &[NodeId],
    edge_map: &[Option<gql_core::EdgeId>],
) -> Option<Expr> {
    Some(match e {
        Expr::Literal(v) => Expr::Literal(v.clone()),
        Expr::NodeAttr { node, attr } => Expr::NodeAttr {
            node: node_map[*node].index(),
            attr: attr.clone(),
        },
        Expr::EdgeAttr { edge, attr } => Expr::EdgeAttr {
            edge: edge_map[*edge]?.index(),
            attr: attr.clone(),
        },
        Expr::GraphAttr { attr } => Expr::GraphAttr { attr: attr.clone() },
        Expr::Binary { op, lhs, rhs } => Expr::Binary {
            op: *op,
            lhs: Box::new(remap_expr(lhs, node_map, edge_map)?),
            rhs: Box::new(remap_expr(rhs, node_map, edge_map)?),
        },
    })
}

/// Implicit subject of a `where` attached to a node/edge declaration.
#[derive(Clone, Copy)]
enum ResolveSelf {
    Node(usize),
    Edge(usize),
}

struct NameResolver<'a> {
    pattern_name: Option<&'a str>,
    node_vars: &'a FxHashMap<String, usize>,
    edge_vars: &'a FxHashMap<String, usize>,
}

impl NameResolver<'_> {
    /// Resolves a dotted name to a matcher expression.
    ///
    /// Resolution order for `a.b...`:
    /// 1. strip a leading pattern-name qualifier (`P.v1.name` ≡ `v1.name`,
    ///    `P.booktitle` ≡ graph attribute `booktitle`);
    /// 2. longest prefix naming a node/edge variable, remainder is the
    ///    attribute (`X.v1.name`);
    /// 3. single segment with an implicit subject (`where name="A"` in a
    ///    node declaration);
    /// 4. single segment otherwise → graph attribute.
    fn resolve_name(&self, names: &Names, selfref: Option<ResolveSelf>) -> Result<Expr> {
        let mut segs: Vec<&str> = names.segments().collect();
        if segs.len() > 1 && Some(segs[0]) == self.pattern_name {
            segs.remove(0);
        }
        // Longest-prefix variable match.
        for split in (1..segs.len()).rev() {
            let prefix = segs[..split].join(".");
            let rest = segs[split..].join(".");
            if let Some(&idx) = self.node_vars.get(&prefix) {
                return Ok(Expr::NodeAttr {
                    node: idx,
                    attr: rest,
                });
            }
            if let Some(&idx) = self.edge_vars.get(&prefix) {
                return Ok(Expr::EdgeAttr {
                    edge: idx,
                    attr: rest,
                });
            }
        }
        if segs.len() == 1 {
            match selfref {
                Some(ResolveSelf::Node(idx)) => {
                    return Ok(Expr::NodeAttr {
                        node: idx,
                        attr: segs[0].to_string(),
                    })
                }
                Some(ResolveSelf::Edge(idx)) => {
                    return Ok(Expr::EdgeAttr {
                        edge: idx,
                        attr: segs[0].to_string(),
                    })
                }
                None => {
                    return Ok(Expr::GraphAttr {
                        attr: segs[0].to_string(),
                    })
                }
            }
        }
        Err(AlgebraError::UnknownName {
            name: names.to_dotted(),
            context: "predicate",
        })
    }

    fn resolve_expr(&self, e: &ExprAst, selfref: Option<ResolveSelf>) -> Result<Expr> {
        Ok(match e {
            ExprAst::Literal(v) => Expr::Literal(v.clone()),
            ExprAst::Name(n) => self.resolve_name(n, selfref)?,
            ExprAst::Binary { op, lhs, rhs } => Expr::Binary {
                op: *op,
                lhs: Box::new(self.resolve_expr(lhs, selfref)?),
                rhs: Box::new(self.resolve_expr(rhs, selfref)?),
            },
        })
    }
}

/// Public helper: resolves a pattern-scoped expression (used by the
/// engine for FLWR `where` clauses).
pub fn resolve_pattern_expr(compiled: &CompiledPattern, e: &ExprAst) -> Result<Expr> {
    let resolver = NameResolver {
        pattern_name: compiled.name.as_deref(),
        node_vars: &compiled.node_vars,
        edge_vars: &compiled.edge_vars,
    };
    resolver.resolve_expr(e, None)
}

/// Convenience used widely in tests and examples: parse + compile a
/// standalone pattern with an empty registry.
pub fn compile_pattern_text(src: &str) -> Result<CompiledPattern> {
    let ast = gql_parser::parse_pattern(src).map_err(|e| AlgebraError::Eval {
        message: e.to_string(),
    })?;
    compile_pattern(&ast, &PatternRegistry::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gql_parser::parse_program;

    fn registry_of(src: &str) -> (PatternRegistry, Vec<GraphPatternAst>) {
        let prog = parse_program(src).unwrap();
        let mut reg = PatternRegistry::default();
        let mut pats = Vec::new();
        for s in prog.statements {
            if let gql_parser::ast::Statement::Pattern(p) = s {
                if let Some(n) = &p.name {
                    reg.insert(n.clone(), p.clone());
                }
                pats.push(p);
            }
        }
        (reg, pats)
    }

    #[test]
    fn compiles_triangle_motif() {
        let c = compile_pattern_text(
            "graph P { node v1 <label=\"A\">; node v2 <label=\"B\">; node v3 <label=\"C\">; \
             edge e1 (v1, v2); edge e2 (v2, v3); edge e3 (v3, v1); }",
        )
        .unwrap();
        assert_eq!(c.pattern.node_count(), 3);
        assert_eq!(c.pattern.edge_count(), 3);
        assert_eq!(c.node_var("v1"), Some(0));
        assert_eq!(c.edge_vars["e2"], 1);
    }

    #[test]
    fn node_where_resolves_implicit_subject() {
        let c =
            compile_pattern_text(r#"graph P { node v1 where name="A"; node v2 where year>2000; }"#)
                .unwrap();
        assert_eq!(c.pattern.node_preds[0].len(), 1);
        assert_eq!(c.pattern.node_preds[1].len(), 1);
        assert!(c.pattern.global_preds.is_empty());
    }

    #[test]
    fn pattern_where_pushes_down_by_reference() {
        let c = compile_pattern_text(
            r#"graph P { node v1; node v2; } where v1.name="A" & v2.year>2000"#,
        )
        .unwrap();
        assert_eq!(c.pattern.node_preds[0].len(), 1);
        assert_eq!(c.pattern.node_preds[1].len(), 1);
    }

    #[test]
    fn pattern_name_prefix_is_graph_attr_or_node() {
        let c = compile_pattern_text(
            r#"graph P { node v1 <author>; } where P.booktitle="SIGMOD" & P.v1.name="A""#,
        )
        .unwrap();
        // P.booktitle → GraphAttr: not pushable to a node, stays global.
        assert_eq!(c.pattern.global_preds.len(), 1);
        assert_eq!(c.pattern.node_preds[0].len(), 1);
    }

    #[test]
    fn concatenation_by_edges_figure_4_4a() {
        let (reg, pats) = registry_of(
            "graph G1 { node v1, v2, v3; edge e1 (v1, v2); edge e2 (v2, v3); edge e3 (v3, v1); };
             graph G2 { graph G1 as X; graph G1 as Y; edge e4 (X.v1, Y.v1); edge e5 (X.v3, Y.v2); };",
        );
        let c = compile_pattern(&pats[1], &reg).unwrap();
        assert_eq!(c.pattern.node_count(), 6);
        assert_eq!(c.pattern.edge_count(), 8);
        assert!(c.node_var("X.v1").is_some());
        assert!(c.node_var("Y.v3").is_some());
    }

    #[test]
    fn concatenation_by_unification_figure_4_4b() {
        let (reg, pats) = registry_of(
            "graph G1 { node v1, v2, v3; edge e1 (v1, v2); edge e2 (v2, v3); edge e3 (v3, v1); };
             graph G3 { graph G1 as X; graph G1 as Y; unify X.v1, Y.v1; unify X.v3, Y.v2; };",
        );
        let c = compile_pattern(&pats[1], &reg).unwrap();
        assert_eq!(c.pattern.node_count(), 4);
        assert_eq!(c.pattern.edge_count(), 5);
        assert_eq!(c.node_var("X.v1"), c.node_var("Y.v1"));
        assert_eq!(c.node_var("X.v3"), c.node_var("Y.v2"));
    }

    #[test]
    fn recursive_reference_is_rejected() {
        let (reg, pats) = registry_of("graph Path { graph Path; node v1; };");
        let err = compile_pattern(&pats[0], &reg).unwrap_err();
        assert!(matches!(err, AlgebraError::RecursivePattern { .. }));
    }

    #[test]
    fn unknown_references_error() {
        let (reg, pats) = registry_of("graph G { graph Missing; };");
        assert!(matches!(
            compile_pattern(&pats[0], &reg).unwrap_err(),
            AlgebraError::UnknownPattern { .. }
        ));
        assert!(compile_pattern_text("graph G { edge e1 (a, b); }").is_err());
        assert!(compile_pattern_text("graph G { node a; unify a, b; }").is_err());
    }

    #[test]
    fn sub_pattern_predicates_are_inherited() {
        let (reg, pats) = registry_of(
            r#"graph A { node v1 where name="X"; };
               graph B { graph A as L; graph A as R; };"#,
        );
        let c = compile_pattern(&pats[1], &reg).unwrap();
        let l = c.node_var("L.v1").unwrap();
        let r = c.node_var("R.v1").unwrap();
        assert_eq!(c.pattern.node_preds[l].len(), 1);
        assert_eq!(c.pattern.node_preds[r].len(), 1);
    }
}
