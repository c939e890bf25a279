//! Recursive-descent parser for the surface languages.
//!
//! Grammar (COMP; BOOL/DIST are mode-restricted subsets):
//!
//! ```text
//! Query   := OrExpr
//! OrExpr  := AndExpr (OR AndExpr)*
//! AndExpr := Unary (AND Unary)*
//! Unary   := NOT Unary | SOME Var Unary | EVERY Var Unary | Primary
//! Primary := '(' Query ')' | StringLiteral | ANY
//!          | Var HAS (StringLiteral | ANY)
//!          | PredName '(' Arg (',' Arg)* ')'
//! Arg     := Var | Integer | StringLiteral | ANY      (dist takes tokens)
//! ```
//!
//! Every pass downstream (rewriting, classification, lowering, planning,
//! the algebra translations, even dropping the tree) recurses over the
//! AST, so the parser refuses anything deeper than [`MAX_QUERY_DEPTH`]
//! before it is built: no query text can exhaust a thread's stack.

use crate::ast::{SurfaceQuery, TokenArg};
use crate::error::LangError;
use crate::lexer::{lex, Tok};

/// Which surface language to accept.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// BOOL (Section 4.1): literals, `ANY`, NOT/AND/OR.
    Bool,
    /// DIST (Section 4.2): BOOL plus `dist(Token, Token, Integer)`.
    Dist,
    /// COMP (Section 4.3): the complete language.
    Comp,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Bool => "BOOL",
            Mode::Dist => "DIST",
            Mode::Comp => "COMP",
        }
    }
}

/// The deepest query [`parse`] accepts. Depth counts, on the longest path
/// from the root to a literal, every operator (`AND`, `OR`, `NOT`, `SOME`,
/// `EVERY`), every enclosing parenthesis pair and the literal itself, so
/// both nesting (`((('a')))` is 4) and operator chains (`'a' OR 'b' OR
/// 'c'` is a left-deep tree of depth 3) count.
///
/// Parsing, planning and evaluating a query take about 8.5 KB of stack
/// per level in an unoptimized build and 1.4 KB in a release build, so a
/// query at the limit fits a 2 MiB thread stack (the default for spawned
/// threads, serve-pool workers included) either way.
pub const MAX_QUERY_DEPTH: usize = 128;

/// Parse `input` in the given language mode.
///
/// Queries deeper than [`MAX_QUERY_DEPTH`] fail with
/// [`LangError::TooDeep`].
pub fn parse(input: &str, mode: Mode) -> Result<SurfaceQuery, LangError> {
    let toks = lex(input)?;
    let mut p = Parser {
        toks,
        pos: 0,
        mode,
        nesting: 0,
    };
    let (q, _) = p.parse_or()?;
    if p.pos != p.toks.len() {
        return Err(LangError::Parse {
            at: p.pos,
            msg: "trailing input".into(),
        });
    }
    Ok(q)
}

/// Each `parse_*` method returns its subtree with the subtree's depth;
/// `nesting` counts the levels enclosing the current position, so
/// `nesting + depth` is the depth within the whole query, checked by
/// [`Parser::within_limit`] as soon as a level is added.
struct Parser {
    toks: Vec<Tok>,
    pos: usize,
    mode: Mode,
    nesting: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, tok: &Tok, what: &str) -> Result<(), LangError> {
        match self.bump() {
            Some(t) if &t == tok => Ok(()),
            other => Err(LangError::Parse {
                at: self.pos.saturating_sub(1),
                msg: format!("expected {what}, found {other:?}"),
            }),
        }
    }

    fn not_in_language(&self, construct: &str) -> LangError {
        LangError::NotInLanguage {
            mode: self.mode.name(),
            construct: construct.to_string(),
        }
    }

    /// `depth` (relative to the current nesting) if the whole query stays
    /// within [`MAX_QUERY_DEPTH`].
    fn within_limit(&self, depth: usize) -> Result<usize, LangError> {
        if self.nesting + depth > MAX_QUERY_DEPTH {
            return Err(LangError::TooDeep {
                at: self.pos,
                limit: MAX_QUERY_DEPTH,
            });
        }
        Ok(depth)
    }

    /// Parse one level down (under `NOT`, a quantifier or a parenthesis),
    /// refusing before recursing when that level would already be too
    /// deep. Returns the inner subtree's depth plus this level.
    fn nested(
        &mut self,
        inner: fn(&mut Self) -> Result<(SurfaceQuery, usize), LangError>,
    ) -> Result<(SurfaceQuery, usize), LangError> {
        self.within_limit(2)?;
        self.nesting += 1;
        let result = inner(self);
        self.nesting -= 1;
        let (q, depth) = result?;
        Ok((q, depth + 1))
    }

    fn parse_or(&mut self) -> Result<(SurfaceQuery, usize), LangError> {
        let (mut left, mut depth) = self.parse_and()?;
        while self.peek() == Some(&Tok::Or) {
            self.bump();
            let (right, d) = self.parse_and()?;
            depth = self.within_limit(depth.max(d) + 1)?;
            left = SurfaceQuery::Or(Box::new(left), Box::new(right));
        }
        Ok((left, depth))
    }

    fn parse_and(&mut self) -> Result<(SurfaceQuery, usize), LangError> {
        let (mut left, mut depth) = self.parse_unary()?;
        while self.peek() == Some(&Tok::And) {
            self.bump();
            let (right, d) = self.parse_unary()?;
            depth = self.within_limit(depth.max(d) + 1)?;
            left = SurfaceQuery::And(Box::new(left), Box::new(right));
        }
        Ok((left, depth))
    }

    fn parse_unary(&mut self) -> Result<(SurfaceQuery, usize), LangError> {
        match self.peek() {
            Some(Tok::Not) => {
                self.bump();
                let (inner, depth) = self.nested(Self::parse_unary)?;
                Ok((SurfaceQuery::Not(Box::new(inner)), depth))
            }
            Some(Tok::Some) => {
                if self.mode != Mode::Comp {
                    return Err(self.not_in_language("SOME quantifier"));
                }
                self.bump();
                let var = self.parse_var()?;
                let (inner, depth) = self.nested(Self::parse_unary)?;
                Ok((SurfaceQuery::Some(var, Box::new(inner)), depth))
            }
            Some(Tok::Every) => {
                if self.mode != Mode::Comp {
                    return Err(self.not_in_language("EVERY quantifier"));
                }
                self.bump();
                let var = self.parse_var()?;
                let (inner, depth) = self.nested(Self::parse_unary)?;
                Ok((SurfaceQuery::Every(var, Box::new(inner)), depth))
            }
            _ => self.parse_primary(),
        }
    }

    fn parse_var(&mut self) -> Result<String, LangError> {
        match self.bump() {
            Some(Tok::Ident(name)) => Ok(name),
            other => Err(LangError::Parse {
                at: self.pos.saturating_sub(1),
                msg: format!("expected variable name, found {other:?}"),
            }),
        }
    }

    fn parse_primary(&mut self) -> Result<(SurfaceQuery, usize), LangError> {
        let leaf = match self.bump() {
            Some(Tok::LParen) => {
                let q = self.nested(Self::parse_or)?;
                self.expect(&Tok::RParen, ")")?;
                return Ok(q);
            }
            Some(Tok::Str(lit)) => Ok(SurfaceQuery::Lit(lit)),
            Some(Tok::Any) => Ok(SurfaceQuery::Any),
            Some(Tok::Ident(name)) => match self.peek() {
                Some(Tok::Has) => {
                    if self.mode != Mode::Comp {
                        return Err(self.not_in_language("HAS binding"));
                    }
                    self.bump();
                    match self.bump() {
                        Some(Tok::Str(lit)) => Ok(SurfaceQuery::VarHas(name, lit)),
                        Some(Tok::Any) => Ok(SurfaceQuery::VarHasAny(name)),
                        other => Err(LangError::Parse {
                            at: self.pos.saturating_sub(1),
                            msg: format!("expected token after HAS, found {other:?}"),
                        }),
                    }
                }
                Some(Tok::LParen) => self.parse_call(name),
                other => Err(LangError::Parse {
                    at: self.pos,
                    msg: format!("unexpected {other:?} after identifier {name:?}"),
                }),
            },
            other => Err(LangError::Parse {
                at: self.pos.saturating_sub(1),
                msg: format!("expected a query, found {other:?}"),
            }),
        }?;
        Ok((leaf, self.within_limit(1)?))
    }

    /// Parse `name(arg, ...)`: either DIST's `dist(tok, tok, int)` sugar or a
    /// COMP position predicate over variables and integers.
    fn parse_call(&mut self, name: String) -> Result<SurfaceQuery, LangError> {
        self.expect(&Tok::LParen, "(")?;
        #[derive(Debug)]
        enum Arg {
            Var(String),
            Int(i64),
            Tok(TokenArg),
        }
        let mut args = Vec::new();
        loop {
            match self.bump() {
                Some(Tok::Ident(v)) => args.push(Arg::Var(v)),
                Some(Tok::Int(i)) => args.push(Arg::Int(i)),
                Some(Tok::Str(s)) => args.push(Arg::Tok(TokenArg::Lit(s))),
                Some(Tok::Any) => args.push(Arg::Tok(TokenArg::Any)),
                other => {
                    return Err(LangError::Parse {
                        at: self.pos.saturating_sub(1),
                        msg: format!("bad predicate argument {other:?}"),
                    })
                }
            }
            match self.bump() {
                Some(Tok::Comma) => continue,
                Some(Tok::RParen) => break,
                other => {
                    return Err(LangError::Parse {
                        at: self.pos.saturating_sub(1),
                        msg: format!("expected ',' or ')', found {other:?}"),
                    })
                }
            }
        }

        let is_dist_sugar = name.eq_ignore_ascii_case("dist")
            && args.len() == 3
            && matches!(&args[0], Arg::Tok(_))
            && matches!(&args[1], Arg::Tok(_))
            && matches!(&args[2], Arg::Int(_));
        if is_dist_sugar {
            if self.mode == Mode::Bool {
                return Err(self.not_in_language("dist(...)"));
            }
            let mut it = args.into_iter();
            let (Some(Arg::Tok(a)), Some(Arg::Tok(b)), Some(Arg::Int(d))) =
                (it.next(), it.next(), it.next())
            else {
                unreachable!("shape checked above");
            };
            return Ok(SurfaceQuery::Dist(a, b, d));
        }

        if self.mode != Mode::Comp {
            return Err(self.not_in_language(&format!("predicate {name}(...)")));
        }
        // COMP predicate: leading vars, trailing ints.
        let mut vars = Vec::new();
        let mut consts = Vec::new();
        for arg in args {
            match arg {
                Arg::Var(v) => {
                    if !consts.is_empty() {
                        return Err(LangError::Parse {
                            at: self.pos,
                            msg: "predicate variables must precede constants".into(),
                        });
                    }
                    vars.push(v);
                }
                Arg::Int(i) => consts.push(i),
                Arg::Tok(_) => {
                    return Err(LangError::Parse {
                        at: self.pos,
                        msg: format!("predicate {name} takes variables, not token literals"),
                    })
                }
            }
        }
        Ok(SurfaceQuery::Pred { name, vars, consts })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_bool_example() {
        // Section 4.1: 'test' AND NOT 'usability'
        let q = parse("'test' AND NOT 'usability'", Mode::Bool).unwrap();
        assert_eq!(
            q,
            SurfaceQuery::And(
                Box::new(SurfaceQuery::Lit("test".into())),
                Box::new(SurfaceQuery::Not(Box::new(SurfaceQuery::Lit(
                    "usability".into()
                ))))
            )
        );
    }

    #[test]
    fn and_binds_tighter_than_or() {
        let q = parse("'a' OR 'b' AND 'c'", Mode::Bool).unwrap();
        assert!(matches!(q, SurfaceQuery::Or(..)));
    }

    #[test]
    fn parses_the_comp_theorem5_query() {
        let q = parse(
            "SOME p1 SOME p2 (p1 HAS 't1' AND p2 HAS 't2' AND NOT distance(p1,p2,0))",
            Mode::Comp,
        )
        .unwrap();
        assert!(matches!(q, SurfaceQuery::Some(..)));
        assert_eq!(q.free_vars().len(), 0);
    }

    #[test]
    fn parses_dist_in_dist_mode_only() {
        let ok = parse("dist('task', 'completion', 10)", Mode::Dist).unwrap();
        assert_eq!(
            ok,
            SurfaceQuery::Dist(
                TokenArg::Lit("task".into()),
                TokenArg::Lit("completion".into()),
                10
            )
        );
        assert!(matches!(
            parse("dist('a', 'b', 1)", Mode::Bool),
            Err(LangError::NotInLanguage { .. })
        ));
    }

    #[test]
    fn dist_accepts_any_arguments() {
        let q = parse("dist(ANY, 'b', 2)", Mode::Dist).unwrap();
        assert_eq!(
            q,
            SurfaceQuery::Dist(TokenArg::Any, TokenArg::Lit("b".into()), 2)
        );
    }

    #[test]
    fn bool_mode_rejects_comp_constructs() {
        assert!(matches!(
            parse("SOME p1 (p1 HAS 'x')", Mode::Bool),
            Err(LangError::NotInLanguage { .. })
        ));
        assert!(matches!(
            parse("p1 HAS 'x'", Mode::Bool),
            Err(LangError::NotInLanguage { .. })
        ));
        assert!(matches!(
            parse("ordered(p1, p2)", Mode::Dist),
            Err(LangError::NotInLanguage { .. })
        ));
    }

    #[test]
    fn parenthesized_grouping() {
        let q = parse("('a' OR 'b') AND 'c'", Mode::Bool).unwrap();
        assert!(matches!(q, SurfaceQuery::And(..)));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        assert!(matches!(
            parse("'a' 'b'", Mode::Bool),
            Err(LangError::Parse { .. })
        ));
    }

    #[test]
    fn not_binds_tighter_than_and() {
        let q = parse("NOT 'a' AND 'b'", Mode::Bool).unwrap();
        // (NOT 'a') AND 'b'
        match q {
            SurfaceQuery::And(l, _) => assert!(matches!(*l, SurfaceQuery::Not(_))),
            other => panic!("unexpected {other:?}"),
        }
    }

    fn depth_err(q: &str) -> bool {
        matches!(
            parse(q, Mode::Comp),
            Err(LangError::TooDeep {
                limit: MAX_QUERY_DEPTH,
                ..
            })
        )
    }

    fn chain(n: usize, op: &str) -> String {
        vec!["'a'"; n].join(op)
    }

    #[test]
    fn nesting_and_chains_are_limited_at_exactly_the_depth_bound() {
        let parens = |n: usize| format!("{}'a'{}", "(".repeat(n), ")".repeat(n));
        assert!(parse(&parens(MAX_QUERY_DEPTH - 1), Mode::Comp).is_ok());
        assert!(depth_err(&parens(MAX_QUERY_DEPTH)));
        for op in [" OR ", " AND "] {
            assert!(parse(&chain(MAX_QUERY_DEPTH, op), Mode::Comp).is_ok());
            assert!(depth_err(&chain(MAX_QUERY_DEPTH + 1, op)));
        }
        let nots = |n: usize| format!("{}'a'", "NOT ".repeat(n));
        assert!(parse(&nots(MAX_QUERY_DEPTH - 1), Mode::Comp).is_ok());
        assert!(depth_err(&nots(MAX_QUERY_DEPTH)));
        // Levels add up across kinds: a chain under parentheses.
        let half = MAX_QUERY_DEPTH / 2;
        let mixed = |extra: usize| {
            format!(
                "{}{}{}",
                "(".repeat(half),
                chain(MAX_QUERY_DEPTH - half + extra, " OR "),
                ")".repeat(half)
            )
        };
        assert!(parse(&mixed(0), Mode::Comp).is_ok());
        assert!(depth_err(&mixed(1)));
    }

    #[test]
    fn hostile_depth_is_an_error_not_a_stack_overflow() {
        let parens = format!("{}'a'{}", "(".repeat(20_000), ")".repeat(20_000));
        assert!(depth_err(&parens));
        assert!(depth_err(&chain(200_000, " OR ")));
        assert!(depth_err(&format!("{}'a'", "NOT ".repeat(100_000))));
        let quantifiers = format!("{}p HAS 'a'", "SOME p ".repeat(100_000));
        assert!(depth_err(&quantifiers));
        // A right-deep chain nests through parentheses.
        let right_deep = format!("{}'a'{}", "'a' OR (".repeat(50_000), ")".repeat(50_000));
        assert!(depth_err(&right_deep));
    }

    #[test]
    fn quantifier_scopes_to_unary() {
        // SOME p1 'a' AND 'b' == (SOME p1 'a') AND 'b'
        let q = parse("SOME p1 (p1 HAS 'a') AND 'b'", Mode::Comp).unwrap();
        assert!(matches!(q, SurfaceQuery::And(..)));
    }
}
