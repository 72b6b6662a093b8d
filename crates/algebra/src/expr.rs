//! Algebra expression trees and their evaluation.
//!
//! "A relational query is always equivalent to an algebraic expression
//! which is a combination of the operators" (§3.1) — the same holds
//! here: a GraphQL query denotes a tree over the five primitive
//! operators (selection, Cartesian product, primitive composition,
//! union, difference), plus the derived join and intersection. The tree
//! form exists so plans can be inspected, tested, and rewritten (the
//! algebraic laws of §3.3).

use crate::compile::CompiledPattern;
use crate::error::{AlgebraError, Result};
use crate::ops;
use gql_core::GraphCollection;
use gql_match::MatchOptions;
use gql_parser::ast::GraphTemplateAst;
use rustc_hash::FxHashMap;
use std::sync::Arc;

/// An algebra expression over collections of graphs.
#[derive(Clone)]
pub enum AlgebraExpr {
    /// A named base collection (resolved from the database at eval time).
    Collection(String),
    /// An inline constant collection.
    Const(GraphCollection),
    /// σ_P(e) — matched graphs are materialized back into plain graphs
    /// (the data graph each match binds; use `ops::select` directly when
    /// the bindings themselves are needed).
    Select {
        /// The compiled pattern.
        pattern: Arc<CompiledPattern>,
        /// Input expression.
        input: Box<AlgebraExpr>,
    },
    /// ω_T(σ_P(e)) — select then instantiate the template per match.
    Compose {
        /// The compiled pattern providing bindings.
        pattern: Arc<CompiledPattern>,
        /// The template to instantiate.
        template: Arc<GraphTemplateAst>,
        /// Input expression.
        input: Box<AlgebraExpr>,
    },
    /// e₁ × e₂.
    Product(Box<AlgebraExpr>, Box<AlgebraExpr>),
    /// e₁ ⋈_P e₂ = σ_P(e₁ × e₂).
    Join {
        /// Join pattern.
        pattern: Arc<CompiledPattern>,
        /// Left input.
        left: Box<AlgebraExpr>,
        /// Right input.
        right: Box<AlgebraExpr>,
    },
    /// e₁ ∪ e₂.
    Union(Box<AlgebraExpr>, Box<AlgebraExpr>),
    /// e₁ − e₂.
    Difference(Box<AlgebraExpr>, Box<AlgebraExpr>),
    /// e₁ ∩ e₂ (derived: C − (C − D)).
    Intersection(Box<AlgebraExpr>, Box<AlgebraExpr>),
}

impl std::fmt::Debug for AlgebraExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AlgebraExpr::Collection(n) => write!(f, "doc({n:?})"),
            AlgebraExpr::Const(c) => write!(f, "const[{}]", c.len()),
            AlgebraExpr::Select { pattern, input } => {
                write!(f, "σ_{}({input:?})", pattern.name.as_deref().unwrap_or("P"))
            }
            AlgebraExpr::Compose { input, .. } => write!(f, "ω_T({input:?})"),
            AlgebraExpr::Product(a, b) => write!(f, "({a:?} × {b:?})"),
            AlgebraExpr::Join {
                pattern,
                left,
                right,
            } => write!(
                f,
                "({left:?} ⋈_{} {right:?})",
                pattern.name.as_deref().unwrap_or("P")
            ),
            AlgebraExpr::Union(a, b) => write!(f, "({a:?} ∪ {b:?})"),
            AlgebraExpr::Difference(a, b) => write!(f, "({a:?} − {b:?})"),
            AlgebraExpr::Intersection(a, b) => write!(f, "({a:?} ∩ {b:?})"),
        }
    }
}

/// Evaluation context: named base collections.
#[derive(Default)]
pub struct AlgebraCtx {
    /// Collection name → collection.
    pub collections: FxHashMap<String, GraphCollection>,
    /// Matcher options used by selections/joins.
    pub options: MatchOptions,
}

impl AlgebraCtx {
    /// Empty context with default options.
    pub fn new() -> Self {
        AlgebraCtx::default()
    }

    /// Registers a base collection.
    pub fn with_collection(mut self, name: impl Into<String>, c: GraphCollection) -> Self {
        self.collections.insert(name.into(), c);
        self
    }
}

impl AlgebraExpr {
    /// Evaluates the expression to a collection of graphs.
    pub fn eval(&self, ctx: &AlgebraCtx) -> Result<GraphCollection> {
        match self {
            AlgebraExpr::Collection(name) => ctx
                .collections
                .get(name)
                .cloned()
                .ok_or_else(|| AlgebraError::UnknownCollection { name: name.clone() }),
            AlgebraExpr::Const(c) => Ok(c.clone()),
            AlgebraExpr::Select { pattern, input } => {
                let c = input.eval(ctx)?;
                let ms = ops::select(pattern, &c, &ctx.options)?;
                // Materialize: one copy of the bound data graph per match.
                Ok(ms.into_iter().map(|m| (*m.graph).clone()).collect())
            }
            AlgebraExpr::Compose {
                pattern,
                template,
                input,
            } => {
                let c = input.eval(ctx)?;
                let ms = ops::select(pattern, &c, &ctx.options)?;
                let _span = ops::compose_span(&ctx.options);
                ops::compose(template, &ms)
            }
            AlgebraExpr::Product(a, b) => {
                Ok(ops::product(&a.eval(ctx)?, &b.eval(ctx)?, &ctx.options))
            }
            AlgebraExpr::Join {
                pattern,
                left,
                right,
            } => {
                let ms = ops::join(&left.eval(ctx)?, &right.eval(ctx)?, pattern, &ctx.options)?;
                Ok(ms.into_iter().map(|m| (*m.graph).clone()).collect())
            }
            AlgebraExpr::Union(a, b) => Ok(ops::union(&a.eval(ctx)?, &b.eval(ctx)?)),
            AlgebraExpr::Difference(a, b) => Ok(ops::difference(&a.eval(ctx)?, &b.eval(ctx)?)),
            AlgebraExpr::Intersection(a, b) => Ok(ops::intersection(&a.eval(ctx)?, &b.eval(ctx)?)),
        }
    }

    /// σ_P(e) constructor.
    pub fn select(pattern: CompiledPattern, input: AlgebraExpr) -> Self {
        AlgebraExpr::Select {
            pattern: Arc::new(pattern),
            input: Box::new(input),
        }
    }
}

/// Algebraic laws usable as rewrite rules. Only equivalences that carry
/// over verbatim from the relational algebra are provided; they are
/// exercised by tests as executable documentation.
pub mod laws {
    use super::*;

    /// σ commutes with ∪: `σ_P(C ∪ D) ≡ σ_P(C) ∪ σ_P(D)`.
    pub fn push_select_through_union(e: &AlgebraExpr) -> Option<AlgebraExpr> {
        if let AlgebraExpr::Select { pattern, input } = e {
            if let AlgebraExpr::Union(a, b) = &**input {
                return Some(AlgebraExpr::Union(
                    Box::new(AlgebraExpr::Select {
                        pattern: Arc::clone(pattern),
                        input: a.clone(),
                    }),
                    Box::new(AlgebraExpr::Select {
                        pattern: Arc::clone(pattern),
                        input: b.clone(),
                    }),
                ));
            }
        }
        None
    }

    /// ∪ is commutative: `C ∪ D ≡ D ∪ C`.
    pub fn commute_union(e: &AlgebraExpr) -> Option<AlgebraExpr> {
        if let AlgebraExpr::Union(a, b) = e {
            return Some(AlgebraExpr::Union(b.clone(), a.clone()));
        }
        None
    }

    /// Intersection via difference: `C ∩ D ≡ C − (C − D)`.
    pub fn intersection_as_difference(e: &AlgebraExpr) -> Option<AlgebraExpr> {
        if let AlgebraExpr::Intersection(a, b) = e {
            return Some(AlgebraExpr::Difference(
                a.clone(),
                Box::new(AlgebraExpr::Difference(a.clone(), b.clone())),
            ));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_pattern_text;
    use gql_core::fixtures::labeled_path;

    fn ctx() -> AlgebraCtx {
        let c: GraphCollection = vec![
            labeled_path(&["A", "B"]),
            labeled_path(&["B", "C"]),
            labeled_path(&["A", "C"]),
        ]
        .into();
        let d: GraphCollection = vec![labeled_path(&["A", "B"]), labeled_path(&["C", "D"])].into();
        AlgebraCtx::new()
            .with_collection("C", c)
            .with_collection("D", d)
    }

    fn has_a() -> CompiledPattern {
        compile_pattern_text(r#"graph P { node v <label="A">; }"#).unwrap()
    }

    #[test]
    fn select_filters_collection() {
        let e = AlgebraExpr::select(has_a(), AlgebraExpr::Collection("C".into()));
        let out = e.eval(&ctx()).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn select_through_union_law_holds() {
        let e = AlgebraExpr::select(
            has_a(),
            AlgebraExpr::Union(
                Box::new(AlgebraExpr::Collection("C".into())),
                Box::new(AlgebraExpr::Collection("D".into())),
            ),
        );
        let rewritten = laws::push_select_through_union(&e).unwrap();
        let ctx = ctx();
        let a = e.eval(&ctx).unwrap();
        let b = rewritten.eval(&ctx).unwrap();
        // Compare as multisets modulo iso: same sizes and pairwise
        // coverage.
        assert_eq!(ops::union(&a, &b).len(), ops::union(&a, &a).len());
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn union_commutes() {
        let e = AlgebraExpr::Union(
            Box::new(AlgebraExpr::Collection("C".into())),
            Box::new(AlgebraExpr::Collection("D".into())),
        );
        let r = laws::commute_union(&e).unwrap();
        let ctx = ctx();
        assert_eq!(e.eval(&ctx).unwrap().len(), r.eval(&ctx).unwrap().len());
    }

    #[test]
    fn intersection_rewrite_equivalence() {
        let e = AlgebraExpr::Intersection(
            Box::new(AlgebraExpr::Collection("C".into())),
            Box::new(AlgebraExpr::Collection("D".into())),
        );
        let r = laws::intersection_as_difference(&e).unwrap();
        let ctx = ctx();
        let a = e.eval(&ctx).unwrap();
        let b = r.eval(&ctx).unwrap();
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        assert!(ops::graph_equal(a.get(0).unwrap(), b.get(0).unwrap()));
    }

    #[test]
    fn unknown_collection_errors() {
        let e = AlgebraExpr::Collection("missing".into());
        assert!(matches!(
            e.eval(&AlgebraCtx::new()).unwrap_err(),
            AlgebraError::UnknownCollection { .. }
        ));
    }

    #[test]
    fn debug_rendering_is_algebraic() {
        let e = AlgebraExpr::select(has_a(), AlgebraExpr::Collection("C".into()));
        let s = format!("{e:?}");
        assert!(s.contains("σ_P"), "{s}");
        assert!(s.contains("doc(\"C\")"), "{s}");
    }
}
