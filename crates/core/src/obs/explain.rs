//! Hierarchical operator trees for `EXPLAIN ANALYZE` output.
//!
//! An [`ExplainNode`] is one operator in an executed query's plan —
//! a FLWR clause, a σ selection, an index build, a per-pattern-node
//! retrieval, a refinement level, a search — annotated with the actual
//! cardinalities, pruning ratios, and timings observed while running
//! it. Nodes come from closing [`Span`](super::telemetry::Span)s with
//! EXPLAIN on (span args become props, children attach in order); this
//! module owns the generic structure and its text/JSON renderings so
//! every layer (and the CLI) shares one format.
//!
//! ```
//! use gql_core::obs::explain::ExplainNode;
//! use gql_core::obs::trace::ArgValue;
//!
//! let root = ExplainNode {
//!     props: vec![("graphs".into(), ArgValue::UInt(3))],
//!     children: vec![ExplainNode::new("search")],
//!     ..ExplainNode::new("select")
//! };
//! let text = root.render_text();
//! assert!(text.starts_with("select  (graphs=3)"));
//! assert!(text.contains("└─ search"));
//! ```

use std::fmt::Write as _;

use super::json;
use super::trace::ArgValue;

/// One operator in an explain tree: a label, ordered key/value
/// annotations, and child operators.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainNode {
    /// Operator name (e.g. `flwr`, `select`, `retrieve`, `refine.level`).
    pub label: String,
    /// Annotations in insertion order (cardinalities, ratios, timings).
    pub props: Vec<(String, ArgValue)>,
    /// Child operators, outermost-first in execution order.
    pub children: Vec<ExplainNode>,
}

impl ExplainNode {
    /// A leaf node with the given label and no annotations.
    pub fn new(label: impl Into<String>) -> ExplainNode {
        ExplainNode {
            label: label.into(),
            props: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Renders the tree as indented text with box-drawing connectors:
    ///
    /// ```text
    /// flwr  (elapsed_ms=1.2)
    /// └─ select  (graphs=3)
    ///    ├─ index build  (ms=0.1)
    ///    └─ graph[0]  (matches=2)
    /// ```
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        self.render_line(&mut out);
        out.push('\n');
        self.render_children(&mut out, "");
        out
    }

    fn render_line(&self, out: &mut String) {
        out.push_str(&self.label);
        if !self.props.is_empty() {
            out.push_str("  (");
            for (i, (k, v)) in self.props.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{k}={}", v.render_text());
            }
            out.push(')');
        }
    }

    fn render_children(&self, out: &mut String, prefix: &str) {
        let last = self.children.len().saturating_sub(1);
        for (i, child) in self.children.iter().enumerate() {
            out.push_str(prefix);
            out.push_str(if i == last { "└─ " } else { "├─ " });
            child.render_line(out);
            out.push('\n');
            let next = format!("{prefix}{}", if i == last { "   " } else { "│  " });
            child.render_children(out, &next);
        }
    }

    /// Renders the tree as a JSON object:
    /// `{"label": ..., "props": {...}, "children": [...]}`.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        self.render_json_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_json_into(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        let _ = write!(
            out,
            "{pad}{{\n{pad}  \"label\": \"{}\",\n{pad}  \"props\": {{",
            json::escape(&self.label)
        );
        for (i, (k, v)) in self.props.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n{pad}    \"{}\": ", json::escape(k));
            v.render_json(out);
        }
        if self.props.is_empty() {
            out.push_str("},");
        } else {
            let _ = write!(out, "\n{pad}  }},");
        }
        let _ = write!(out, "\n{pad}  \"children\": [");
        for (i, child) in self.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            child.render_json_into(out, indent + 2);
        }
        if self.children.is_empty() {
            let _ = write!(out, "]\n{pad}}}");
        } else {
            let _ = write!(out, "\n{pad}  ]\n{pad}}}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::json::validate_json;

    fn node(label: &str, props: &[(&str, ArgValue)], children: Vec<ExplainNode>) -> ExplainNode {
        ExplainNode {
            label: label.into(),
            props: props
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            children,
        }
    }

    fn sample() -> ExplainNode {
        let index = node("index build", &[("cached", ArgValue::Bool(true))], vec![]);
        let select = node(
            "select",
            &[
                ("graphs", ArgValue::UInt(3)),
                ("collection", ArgValue::Str("db\"x".into())),
            ],
            vec![
                index,
                node("graph[0]", &[], vec![]),
                node("graph[1]", &[], vec![]),
            ],
        );
        node(
            "flwr",
            &[("elapsed_ms", ArgValue::Float(1.25))],
            vec![select],
        )
    }

    #[test]
    fn text_rendering_draws_the_tree() {
        let text = sample().render_text();
        assert!(text.starts_with("flwr  (elapsed_ms=1.250)\n"), "{text}");
        assert!(
            text.contains("└─ select  (graphs=3, collection=db\"x)"),
            "{text}"
        );
        assert!(text.contains("   ├─ index build  (cached=true)"), "{text}");
        assert!(text.contains("   ├─ graph[0]"), "{text}");
        assert!(text.contains("   └─ graph[1]"), "{text}");
        // Nesting guide for non-last parents.
        let b = node("b", &[], vec![ExplainNode::new("c")]);
        let deep = node("a", &[], vec![b, ExplainNode::new("d")]);
        let text = deep.render_text();
        assert!(text.contains("│  └─ c"), "{text}");
    }

    #[test]
    fn json_rendering_is_well_formed() {
        let json = sample().render_json();
        validate_json(&json).expect("explain JSON must be well-formed");
        assert!(json.contains("\"label\": \"flwr\""), "{json}");
        assert!(json.contains("\"graphs\": 3"), "{json}");
        assert!(json.contains("\"db\\\"x\""), "{json}");
    }

    #[test]
    fn empty_node_renders_cleanly() {
        let node = ExplainNode::new("leaf");
        assert_eq!(node.render_text(), "leaf\n");
        validate_json(&node.render_json()).unwrap();
    }
}
