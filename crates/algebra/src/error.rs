//! Errors raised while compiling patterns and evaluating the algebra's
//! operators.

use std::fmt;

/// Compilation/evaluation errors.
#[derive(Debug, Clone, PartialEq)]
pub enum AlgebraError {
    /// A name used in a pattern/template does not resolve.
    UnknownName {
        /// The offending dotted name.
        name: String,
        /// What was being resolved (node, edge, graph, pattern...).
        context: &'static str,
    },
    /// A referenced motif/pattern was not declared.
    UnknownPattern {
        /// The pattern name.
        name: String,
    },
    /// A pattern references itself, directly or through a nested motif.
    /// Recursive motifs (Definition 4.2) are not evaluated.
    RecursivePattern {
        /// The self-referential pattern name.
        name: String,
    },
    /// An edge endpoint did not resolve to a node.
    BadEndpoint {
        /// The endpoint name.
        name: String,
    },
    /// A structural error from graph construction.
    Core(gql_core::CoreError),
    /// A `unify` without a `where` needs concretely-named nodes on both
    /// sides.
    AmbiguousUnify {
        /// The offending dotted name.
        name: String,
    },
    /// Expression evaluation failed (type error, missing attribute in a
    /// strict position, ...).
    Eval {
        /// Description.
        message: String,
    },
}

impl fmt::Display for AlgebraError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgebraError::UnknownName { name, context } => {
                write!(f, "unknown name {name:?} while resolving {context}")
            }
            AlgebraError::UnknownPattern { name } => write!(f, "unknown pattern {name:?}"),
            AlgebraError::RecursivePattern { name } => write!(
                f,
                "pattern {name:?} is recursive; recursive motifs (Definition 4.2) are not \
                 evaluated"
            ),
            AlgebraError::BadEndpoint { name } => {
                write!(f, "edge endpoint {name:?} does not name a node")
            }
            AlgebraError::Core(e) => write!(f, "graph construction failed: {e}"),
            AlgebraError::AmbiguousUnify { name } => write!(
                f,
                "unify target {name:?} is ambiguous: add a `where` clause or name a concrete node"
            ),
            AlgebraError::Eval { message } => write!(f, "evaluation error: {message}"),
        }
    }
}

impl std::error::Error for AlgebraError {}

impl From<gql_core::CoreError> for AlgebraError {
    fn from(e: gql_core::CoreError) -> Self {
        AlgebraError::Core(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, AlgebraError>;
