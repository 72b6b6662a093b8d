//! Recursive-descent parser for the Appendix 4.A grammar.

use crate::ast::*;
use crate::error::{ParseError, Result};
use crate::lexer::lex;
use crate::token::{Spanned, Token};
use gql_core::{BinOp, Value};

/// Parses a whole program (`Start ::= (GraphPattern ";" | FLWRExpr ";" |
/// ID ":=" GraphTemplate ";")* <EOF>`).
pub fn parse_program(src: &str) -> Result<Program> {
    let mut p = Parser::new(src)?;
    let mut statements = Vec::new();
    while !p.at(&Token::Eof) {
        statements.push(p.statement()?);
    }
    Ok(Program { statements })
}

/// Parses a single graph pattern, e.g. for embedding in an API call.
pub fn parse_pattern(src: &str) -> Result<GraphPatternAst> {
    let mut p = Parser::new(src)?;
    let pat = p.graph_pattern()?;
    p.eat(&Token::Semi).ok(); // optional trailing semicolon
    p.expect(Token::Eof)?;
    Ok(pat)
}

/// Parses a single expression (handy for tests and the REPL-ish APIs).
pub fn parse_expr(src: &str) -> Result<ExprAst> {
    let mut p = Parser::new(src)?;
    let e = p.expr()?;
    p.expect(Token::Eof)?;
    Ok(e)
}

/// Deepest expression nesting the parser accepts: open parentheses and
/// operators folded into one left-deep chain both count. Expressions are
/// the grammar's only recursive production (a `graph` member inside a
/// block is a name, not a nested block); the descent and every later
/// walk of the AST recurse once per level, so unbounded input must
/// become an error, not a stack overflow.
pub const MAX_NESTING: usize = 256;

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    /// Current nesting level; see [`MAX_NESTING`].
    depth: usize,
}

impl Parser {
    fn new(src: &str) -> Result<Self> {
        Ok(Parser {
            tokens: lex(src)?,
            pos: 0,
            depth: 0,
        })
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos].token
    }

    fn peek2(&self) -> &Token {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].token
    }

    fn at(&self, t: &Token) -> bool {
        self.peek() == t
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].token.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        let s = &self.tokens[self.pos];
        ParseError::syntax(msg, s.line, s.col)
    }

    /// Enters one more nesting level, or fails at the current token once
    /// [`MAX_NESTING`] is reached. The caller restores `depth` on the way
    /// out (an error aborts the parse, so only success paths need to).
    fn descend(&mut self) -> Result<()> {
        if self.depth >= MAX_NESTING {
            return Err(self.err(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    fn expect(&mut self, t: Token) -> Result<()> {
        if self.at(&t) {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {t:?}, found {:?}", self.peek())))
        }
    }

    fn eat(&mut self, t: &Token) -> Result<()> {
        if self.at(t) {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {t}")))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.peek().clone() {
            Token::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    // ---- statements ------------------------------------------------

    fn statement(&mut self) -> Result<Statement> {
        match self.peek() {
            Token::Graph => {
                let pat = self.graph_pattern()?;
                self.eat(&Token::Semi)?;
                Ok(Statement::Pattern(pat))
            }
            Token::For => {
                let f = self.flwr()?;
                self.eat(&Token::Semi)?;
                Ok(Statement::Flwr(f))
            }
            Token::Ident(_) if *self.peek2() == Token::ColonAssign => {
                let name = self.ident()?;
                self.eat(&Token::ColonAssign)?;
                let template = self.graph_template()?;
                self.eat(&Token::Semi)?;
                Ok(Statement::Assign { name, template })
            }
            other => Err(self.err(format!(
                "expected `graph`, `for`, or `<id> :=`, found {other:?}"
            ))),
        }
    }

    // ---- patterns --------------------------------------------------

    fn graph_pattern(&mut self) -> Result<GraphPatternAst> {
        self.eat(&Token::Graph)?;
        let name = if let Token::Ident(_) = self.peek() {
            Some(self.ident()?)
        } else {
            None
        };
        let tuple = if self.at(&Token::Lt) {
            Some(self.tuple()?)
        } else {
            None
        };
        self.eat(&Token::LBrace)?;
        let mut members = Vec::new();
        while !self.at(&Token::RBrace) {
            members.push(self.member_decl()?);
        }
        self.eat(&Token::RBrace)?;
        let where_clause = self.opt_where()?;
        Ok(GraphPatternAst {
            name,
            tuple,
            members,
            where_clause,
        })
    }

    fn opt_where(&mut self) -> Result<Option<ExprAst>> {
        if self.at(&Token::Where) {
            self.bump();
            Ok(Some(self.expr()?))
        } else {
            Ok(None)
        }
    }

    fn member_decl(&mut self) -> Result<MemberDecl> {
        match self.peek() {
            Token::Node => {
                self.bump();
                let mut nodes = vec![self.node_decl()?];
                while self.at(&Token::Comma) {
                    self.bump();
                    nodes.push(self.node_decl()?);
                }
                self.eat(&Token::Semi)?;
                Ok(MemberDecl::Nodes(nodes))
            }
            Token::Edge => {
                self.bump();
                let mut edges = vec![self.edge_decl()?];
                while self.at(&Token::Comma) {
                    self.bump();
                    edges.push(self.edge_decl()?);
                }
                self.eat(&Token::Semi)?;
                Ok(MemberDecl::Edges(edges))
            }
            Token::Graph => {
                self.bump();
                let mut graphs = vec![self.graph_ref()?];
                while self.at(&Token::Comma) {
                    self.bump();
                    graphs.push(self.graph_ref()?);
                }
                self.eat(&Token::Semi)?;
                Ok(MemberDecl::Graphs(graphs))
            }
            Token::Unify => {
                self.bump();
                let mut names = vec![self.names()?];
                while self.at(&Token::Comma) {
                    self.bump();
                    names.push(self.names()?);
                }
                if names.len() < 2 {
                    return Err(self.err("unify needs at least two names"));
                }
                let where_clause = self.opt_where()?;
                self.eat(&Token::Semi)?;
                Ok(MemberDecl::Unify {
                    names,
                    where_clause,
                })
            }
            Token::Export => {
                self.bump();
                let name = self.names()?;
                self.eat(&Token::As)?;
                let alias = self.ident()?;
                self.eat(&Token::Semi)?;
                Ok(MemberDecl::Export { name, alias })
            }
            other => Err(self.err(format!(
                "expected `node`, `edge`, `graph`, `unify`, or `export`, found {other:?}"
            ))),
        }
    }

    fn node_decl(&mut self) -> Result<NodeDecl> {
        let name = if let Token::Ident(_) = self.peek() {
            Some(self.ident()?)
        } else {
            None
        };
        let tuple = if self.at(&Token::Lt) {
            Some(self.tuple()?)
        } else {
            None
        };
        let where_clause = self.opt_where()?;
        Ok(NodeDecl {
            name,
            tuple,
            where_clause,
        })
    }

    fn edge_decl(&mut self) -> Result<EdgeDecl> {
        let name = if let Token::Ident(_) = self.peek() {
            Some(self.ident()?)
        } else {
            None
        };
        self.eat(&Token::LParen)?;
        let from = self.names()?;
        self.eat(&Token::Comma)?;
        let to = self.names()?;
        self.eat(&Token::RParen)?;
        let tuple = if self.at(&Token::Lt) {
            Some(self.tuple()?)
        } else {
            None
        };
        let where_clause = self.opt_where()?;
        Ok(EdgeDecl {
            name,
            from,
            to,
            tuple,
            where_clause,
        })
    }

    fn graph_ref(&mut self) -> Result<GraphRef> {
        let name = self.ident()?;
        let alias = if self.at(&Token::As) {
            self.bump();
            Some(self.ident()?)
        } else {
            None
        };
        Ok(GraphRef { name, alias })
    }

    fn names(&mut self) -> Result<Names> {
        let mut parts = vec![self.ident()?];
        while self.at(&Token::Dot) {
            self.bump();
            parts.push(self.ident()?);
        }
        Ok(Names(parts))
    }

    /// `Tuple ::= "<" [ID] (ID "=" Literal)* ">"`. The leading ID is a tag
    /// only if it is not followed by `=`.
    fn tuple(&mut self) -> Result<TupleAst> {
        self.eat(&Token::Lt)?;
        let mut tuple = TupleAst::default();
        if let Token::Ident(_) = self.peek() {
            if *self.peek2() != Token::Assign {
                tuple.tag = Some(self.ident()?);
            }
        }
        while let Token::Ident(_) = self.peek() {
            let key = self.ident()?;
            self.eat(&Token::Assign)?;
            let v = self.literal()?;
            tuple.attrs.push((key, v));
            if self.at(&Token::Comma) {
                self.bump(); // tolerate comma-separated attributes
            }
        }
        self.eat(&Token::Gt)?;
        Ok(tuple)
    }

    fn tuple_template(&mut self) -> Result<TupleTemplateAst> {
        self.eat(&Token::Lt)?;
        let mut tuple = TupleTemplateAst::default();
        if let Token::Ident(_) = self.peek() {
            if *self.peek2() != Token::Assign {
                tuple.tag = Some(self.ident()?);
            }
        }
        while let Token::Ident(_) = self.peek() {
            let key = self.ident()?;
            self.eat(&Token::Assign)?;
            // Inside a tuple template, `>` terminates the tuple, so parse
            // the value at comparison precedence + 1 to keep bare `>` out
            // of the expression. Parenthesized forms remain available.
            let v = self.expr_bp(BinOp::Eq.precedence() + 1)?;
            tuple.attrs.push((key, v));
            if self.at(&Token::Comma) {
                self.bump();
            }
        }
        self.eat(&Token::Gt)?;
        Ok(tuple)
    }

    fn literal(&mut self) -> Result<Value> {
        match self.peek().clone() {
            Token::Int(i) => {
                self.bump();
                Ok(Value::Int(i))
            }
            Token::Float(x) => {
                self.bump();
                Ok(Value::Float(x))
            }
            Token::Str(s) => {
                self.bump();
                Ok(Value::Str(s))
            }
            other => Err(self.err(format!("expected literal, found {other:?}"))),
        }
    }

    // ---- templates -------------------------------------------------

    fn graph_template(&mut self) -> Result<GraphTemplateAst> {
        if let Token::Ident(_) = self.peek() {
            return Ok(GraphTemplateAst::Ref(self.ident()?));
        }
        self.eat(&Token::Graph)?;
        let name = if let Token::Ident(_) = self.peek() {
            Some(self.ident()?)
        } else {
            None
        };
        let tuple = if self.at(&Token::Lt) {
            Some(self.tuple_template()?)
        } else {
            None
        };
        self.eat(&Token::LBrace)?;
        let mut members = Vec::new();
        while !self.at(&Token::RBrace) {
            members.push(self.t_member_decl()?);
        }
        self.eat(&Token::RBrace)?;
        Ok(GraphTemplateAst::Inline {
            name,
            tuple,
            members,
        })
    }

    fn t_member_decl(&mut self) -> Result<TMemberDecl> {
        match self.peek() {
            Token::Node => {
                self.bump();
                let mut nodes = vec![self.t_node_decl()?];
                while self.at(&Token::Comma) {
                    self.bump();
                    nodes.push(self.t_node_decl()?);
                }
                self.eat(&Token::Semi)?;
                Ok(TMemberDecl::Nodes(nodes))
            }
            Token::Edge => {
                self.bump();
                let mut edges = vec![self.t_edge_decl()?];
                while self.at(&Token::Comma) {
                    self.bump();
                    edges.push(self.t_edge_decl()?);
                }
                self.eat(&Token::Semi)?;
                Ok(TMemberDecl::Edges(edges))
            }
            Token::Graph => {
                self.bump();
                let mut graphs = vec![self.graph_ref()?];
                while self.at(&Token::Comma) {
                    self.bump();
                    graphs.push(self.graph_ref()?);
                }
                self.eat(&Token::Semi)?;
                Ok(TMemberDecl::Graphs(graphs))
            }
            Token::Unify => {
                self.bump();
                let mut names = vec![self.names()?];
                while self.at(&Token::Comma) {
                    self.bump();
                    names.push(self.names()?);
                }
                if names.len() < 2 {
                    return Err(self.err("unify needs at least two names"));
                }
                let where_clause = self.opt_where()?;
                self.eat(&Token::Semi)?;
                Ok(TMemberDecl::Unify {
                    names,
                    where_clause,
                })
            }
            other => Err(self.err(format!(
                "expected `node`, `edge`, `graph`, or `unify`, found {other:?}"
            ))),
        }
    }

    fn t_node_decl(&mut self) -> Result<TNodeDecl> {
        let name = if let Token::Ident(_) = self.peek() {
            Some(self.names()?)
        } else {
            None
        };
        let tuple = if self.at(&Token::Lt) {
            Some(self.tuple_template()?)
        } else {
            None
        };
        Ok(TNodeDecl { name, tuple })
    }

    fn t_edge_decl(&mut self) -> Result<TEdgeDecl> {
        let name = if let Token::Ident(_) = self.peek() {
            Some(self.ident()?)
        } else {
            None
        };
        self.eat(&Token::LParen)?;
        let from = self.names()?;
        self.eat(&Token::Comma)?;
        let to = self.names()?;
        self.eat(&Token::RParen)?;
        let tuple = if self.at(&Token::Lt) {
            Some(self.tuple_template()?)
        } else {
            None
        };
        Ok(TEdgeDecl {
            name,
            from,
            to,
            tuple,
        })
    }

    // ---- FLWR ------------------------------------------------------

    fn flwr(&mut self) -> Result<FlwrAst> {
        self.eat(&Token::For)?;
        let pattern = if self.at(&Token::Graph) {
            PatternRef::Inline(self.graph_pattern()?)
        } else {
            PatternRef::Named(self.ident()?)
        };
        let exhaustive = if self.at(&Token::Exhaustive) {
            self.bump();
            true
        } else {
            false
        };
        self.eat(&Token::In)?;
        self.eat(&Token::Doc)?;
        self.eat(&Token::LParen)?;
        let source = match self.peek().clone() {
            Token::Str(s) => {
                self.bump();
                s
            }
            other => return Err(self.err(format!("expected string in doc(), found {other:?}"))),
        };
        self.eat(&Token::RParen)?;
        let where_clause = self.opt_where()?;
        let body = match self.peek() {
            Token::Return => {
                self.bump();
                FlwrBody::Return(self.graph_template()?)
            }
            Token::Let => {
                self.bump();
                let name = self.ident()?;
                if self.at(&Token::Assign) || self.at(&Token::ColonAssign) {
                    self.bump();
                } else {
                    return Err(self.err("expected `=` or `:=` after `let <id>`"));
                }
                FlwrBody::Let {
                    name,
                    template: self.graph_template()?,
                }
            }
            other => return Err(self.err(format!("expected `return` or `let`, found {other:?}"))),
        };
        Ok(FlwrAst {
            pattern,
            exhaustive,
            source,
            where_clause,
            body,
        })
    }

    // ---- expressions -----------------------------------------------

    fn binop_at(&self) -> Option<BinOp> {
        Some(match self.peek() {
            Token::Pipe | Token::Or => BinOp::Or,
            Token::Amp | Token::And => BinOp::And,
            Token::Plus => BinOp::Add,
            Token::Minus => BinOp::Sub,
            Token::Star => BinOp::Mul,
            Token::Slash => BinOp::Div,
            Token::EqEq | Token::Assign => BinOp::Eq,
            Token::NotEq => BinOp::Ne,
            Token::Gt => BinOp::Gt,
            Token::Ge => BinOp::Ge,
            Token::Lt => BinOp::Lt,
            Token::Le => BinOp::Le,
            _ => return None,
        })
    }

    fn expr(&mut self) -> Result<ExprAst> {
        self.expr_bp(0)
    }

    /// Precedence climbing; `min_bp` is the minimum operator precedence
    /// accepted at this level.
    fn expr_bp(&mut self, min_bp: u8) -> Result<ExprAst> {
        let outer = self.depth;
        let mut lhs = self.term()?;
        while let Some(op) = self.binop_at() {
            let bp = op.precedence();
            if bp < min_bp {
                break;
            }
            // Each fold puts `lhs` one level deeper in the tree.
            self.descend()?;
            self.bump();
            let rhs = self.expr_bp(bp + 1)?; // left-assoc
            lhs = ExprAst::binary(op, lhs, rhs);
        }
        self.depth = outer;
        Ok(lhs)
    }

    fn term(&mut self) -> Result<ExprAst> {
        match self.peek().clone() {
            Token::LParen => {
                self.descend()?;
                self.bump();
                let e = self.expr()?;
                self.eat(&Token::RParen)?;
                self.depth -= 1;
                Ok(e)
            }
            Token::Int(_) | Token::Float(_) | Token::Str(_) => {
                Ok(ExprAst::Literal(self.literal()?))
            }
            Token::Ident(_) => Ok(ExprAst::Name(self.names()?)),
            other => Err(self.err(format!("expected expression term, found {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_motif_figure_4_3() {
        let src = r"
            graph G1 {
                node v1, v2, v3;
                edge e1 (v1, v2);
                edge e2 (v2, v3);
                edge e3 (v3, v1);
            };
        ";
        let prog = parse_program(src).unwrap();
        assert_eq!(prog.statements.len(), 1);
        let Statement::Pattern(p) = &prog.statements[0] else {
            panic!("expected pattern");
        };
        assert_eq!(p.name.as_deref(), Some("G1"));
        assert_eq!(p.members.len(), 4);
        let MemberDecl::Nodes(ns) = &p.members[0] else {
            panic!("first member should be nodes");
        };
        assert_eq!(ns.len(), 3);
    }

    #[test]
    fn parses_attributed_graph_figure_4_7() {
        let src = r#"
            graph G <inproceedings> {
                node v1 <title="Title1", year=2006>;
                node v2 <author name="A">;
                node v3 <author name="B">;
            };
        "#;
        let prog = parse_program(src).unwrap();
        let Statement::Pattern(p) = &prog.statements[0] else {
            panic!()
        };
        assert_eq!(
            p.tuple.as_ref().unwrap().tag.as_deref(),
            Some("inproceedings")
        );
        let MemberDecl::Nodes(ns) = &p.members[1] else {
            panic!()
        };
        let t = ns[0].tuple.as_ref().unwrap();
        assert_eq!(t.tag.as_deref(), Some("author"));
        assert_eq!(t.attrs[0], ("name".into(), Value::Str("A".into())));
    }

    #[test]
    fn parses_pattern_with_where_figure_4_8_both_styles() {
        let a =
            parse_pattern(r#"graph P { node v1; node v2; } where v1.name="A" and v2.year>2000"#)
                .unwrap();
        assert!(a.where_clause.is_some());
        let b = parse_pattern(r#"graph P { node v1 where name=="A"; node v2 where year>2000; }"#)
            .unwrap();
        let MemberDecl::Nodes(ns) = &b.members[0] else {
            panic!()
        };
        assert!(ns[0].where_clause.is_some());
    }

    #[test]
    fn parses_concatenation_figure_4_4() {
        let src = r"
            graph G2 {
                graph G1 as X;
                graph G1 as Y;
                edge e4 (X.v1, Y.v1);
                edge e5 (X.v3, Y.v2);
            };
            graph G3 {
                graph G1 as X;
                graph G1 as Y;
                unify X.v1, Y.v1;
                unify X.v3, Y.v2;
            };
        ";
        let prog = parse_program(src).unwrap();
        assert_eq!(prog.statements.len(), 2);
        let Statement::Pattern(g3) = &prog.statements[1] else {
            panic!()
        };
        assert_eq!(g3.members.len(), 4, "two graph refs + two unify members");
        assert!(matches!(&g3.members[2], MemberDecl::Unify { names, .. } if names.len() == 2));
    }

    #[test]
    fn parses_export_figure_4_6() {
        let src = r"
            graph Path {
                graph Path;
                node v1;
                edge e1 (v1, Path.v1);
                export Path.v2 as v2;
            };
        ";
        let prog = parse_program(src).unwrap();
        let Statement::Pattern(p) = &prog.statements[0] else {
            panic!()
        };
        assert!(matches!(
            &p.members[3],
            MemberDecl::Export { name, alias } if name.to_dotted() == "Path.v2" && alias == "v2"
        ));
    }

    #[test]
    fn parses_figure_4_12_coauthorship_query() {
        let src = r#"
            graph P {
                node v1 <author>;
                node v2 <author>;
            } where P.booktitle="SIGMOD";
            C := graph {};
            for P exhaustive in doc("DBLP")
            let C := graph {
                graph C;
                node P.v1, P.v2;
                edge e1 (P.v1, P.v2);
                unify P.v1, C.v1 where P.v1.name=C.v1.name;
                unify P.v2, C.v2 where P.v2.name=C.v2.name;
            };
        "#;
        let prog = parse_program(src).unwrap();
        assert_eq!(prog.statements.len(), 3);
        assert!(matches!(&prog.statements[1], Statement::Assign { name, .. } if name == "C"));
        let Statement::Flwr(f) = &prog.statements[2] else {
            panic!()
        };
        assert!(f.exhaustive);
        assert_eq!(f.source, "DBLP");
        assert!(matches!(&f.pattern, PatternRef::Named(n) if n == "P"));
        let FlwrBody::Let { name, template } = &f.body else {
            panic!()
        };
        assert_eq!(name, "C");
        let GraphTemplateAst::Inline { members, .. } = template else {
            panic!()
        };
        assert_eq!(members.len(), 5);
        assert!(matches!(
            &members[3],
            TMemberDecl::Unify { names, where_clause: Some(_) } if names.len() == 2
        ));
    }

    #[test]
    fn parses_template_figure_4_11() {
        let src = r#"
            T := graph {
                node v1 <label=P.v1.name>;
                node v2 <label=P.v2.title>;
                edge e1 (v1, v2);
            };
        "#;
        let prog = parse_program(src).unwrap();
        let Statement::Assign { template, .. } = &prog.statements[0] else {
            panic!()
        };
        let GraphTemplateAst::Inline { members, .. } = template else {
            panic!()
        };
        let TMemberDecl::Nodes(ns) = &members[0] else {
            panic!()
        };
        let tt = ns[0].tuple.as_ref().unwrap();
        assert!(matches!(&tt.attrs[0].1, ExprAst::Name(n) if n.to_dotted() == "P.v1.name"));
    }

    #[test]
    fn precedence_is_standard() {
        let e = parse_expr("a.x + 2 * 3 == 7 & b.y < 4 | c.z = 1").unwrap();
        // Top level must be `|`.
        let ExprAst::Binary {
            op: BinOp::Or, lhs, ..
        } = e
        else {
            panic!("top should be Or");
        };
        let ExprAst::Binary {
            op: BinOp::And,
            lhs: l2,
            ..
        } = *lhs
        else {
            panic!("next should be And");
        };
        let ExprAst::Binary {
            op: BinOp::Eq,
            lhs: add,
            ..
        } = *l2
        else {
            panic!("then Eq");
        };
        assert!(matches!(*add, ExprAst::Binary { op: BinOp::Add, .. }));
    }

    #[test]
    fn valued_join_figure_4_10() {
        let p = parse_pattern("graph { graph G1, G2; } where G1.id = G2.id").unwrap();
        assert!(matches!(&p.members[0], MemberDecl::Graphs(gs) if gs.len() == 2));
        assert!(p.where_clause.is_some());
    }

    #[test]
    fn flwr_return_variant() {
        let src = r#"
            for graph Q { node a <x=1>; } in doc("db")
            where Q.a.x > 0
            return graph { node n <v=Q.a.x>; };
        "#;
        let prog = parse_program(src).unwrap();
        let Statement::Flwr(f) = &prog.statements[0] else {
            panic!()
        };
        assert!(!f.exhaustive);
        assert!(matches!(&f.pattern, PatternRef::Inline(_)));
        assert!(matches!(&f.body, FlwrBody::Return(_)));
    }

    #[test]
    fn error_messages_carry_position() {
        let err = parse_program("graph G {\n  nodes v1;\n};").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("syntax error"));
        assert!(parse_program("for P in doc(42) return X;").is_err());
        assert!(parse_program("graph G { unify a; };").is_err());
    }

    fn parens(n: usize) -> String {
        format!("{}1{}", "(".repeat(n), ")".repeat(n))
    }

    #[test]
    fn nesting_is_capped_with_a_positioned_error() {
        assert_eq!(
            parse_expr(&parens(MAX_NESTING - 1)).unwrap(),
            parse_expr("1").unwrap()
        );
        let err = parse_expr(&parens(MAX_NESTING + 1)).unwrap_err();
        assert!(err.message.contains("nesting deeper than"), "{err}");
        assert_eq!((err.line, err.col), (1, MAX_NESTING as u32 + 1));
        // Far past the cap: an error, not a stack overflow.
        let src = format!("graph P {{ node v1; }} where {}=1;", parens(200_000));
        let err = parse_program(&src).unwrap_err();
        assert!(!err.lexical);
        assert_eq!(err.line, 1);
    }

    #[test]
    fn operator_chains_are_capped_like_parentheses() {
        // A chain folds left-deep, so its length is its tree depth.
        let chain = |n: usize| format!("1{}", "+1".repeat(n));
        assert!(parse_expr(&chain(MAX_NESTING - 1)).is_ok());
        assert!(parse_expr(&chain(MAX_NESTING + 1)).is_err());
        assert!(parse_expr(&chain(200_000)).is_err());
        // Depth is restored between sibling subexpressions: many short
        // parenthesised conjuncts stay well under the cap.
        let wide = format!("(a=1){}", " & (b=2)".repeat(MAX_NESTING / 2));
        assert!(parse_expr(&wide).is_ok());
    }

    #[test]
    fn empty_program_and_empty_graph() {
        assert!(parse_program("").unwrap().statements.is_empty());
        let p = parse_pattern("graph {}").unwrap();
        assert!(p.members.is_empty());
        assert!(p.name.is_none());
    }
}
