//! The shared surface AST (COMP syntax; BOOL and DIST parse into subsets).

use std::collections::BTreeSet;
use std::fmt;

/// A token argument of DIST's `dist(...)` construct.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TokenArg {
    /// String literal.
    Lit(String),
    /// The universal token `ANY`.
    Any,
}

/// Surface query AST.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SurfaceQuery {
    /// Bare string literal: "the node contains this token".
    Lit(String),
    /// Bare `ANY`: "the node contains some token".
    Any,
    /// `var HAS 'tok'`.
    VarHas(String, String),
    /// `var HAS ANY`.
    VarHasAny(String),
    /// `pred(v1.., c1..)` — a COMP position predicate.
    Pred {
        /// Predicate name (resolved against the registry at lowering).
        name: String,
        /// Position-variable arguments.
        vars: Vec<String>,
        /// Integer constants.
        consts: Vec<i64>,
    },
    /// DIST's `dist(t1, t2, d)` sugar (Section 4.2).
    Dist(TokenArg, TokenArg, i64),
    /// `NOT q`.
    Not(Box<SurfaceQuery>),
    /// `q1 AND q2`.
    And(Box<SurfaceQuery>, Box<SurfaceQuery>),
    /// `q1 OR q2`.
    Or(Box<SurfaceQuery>, Box<SurfaceQuery>),
    /// `SOME var q`.
    Some(String, Box<SurfaceQuery>),
    /// `EVERY var q`.
    Every(String, Box<SurfaceQuery>),
}

impl SurfaceQuery {
    /// Free variable names (used without an enclosing `SOME`/`EVERY`).
    pub fn free_vars(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_free(&mut Vec::new(), &mut out);
        out
    }

    fn collect_free(&self, bound: &mut Vec<String>, out: &mut BTreeSet<String>) {
        match self {
            SurfaceQuery::Lit(_) | SurfaceQuery::Any | SurfaceQuery::Dist(..) => {}
            SurfaceQuery::VarHas(v, _) | SurfaceQuery::VarHasAny(v) => {
                if !bound.contains(v) {
                    out.insert(v.clone());
                }
            }
            SurfaceQuery::Pred { vars, .. } => {
                for v in vars {
                    if !bound.contains(v) {
                        out.insert(v.clone());
                    }
                }
            }
            SurfaceQuery::Not(q) => q.collect_free(bound, out),
            SurfaceQuery::And(a, b) | SurfaceQuery::Or(a, b) => {
                a.collect_free(bound, out);
                b.collect_free(bound, out);
            }
            SurfaceQuery::Some(v, q) | SurfaceQuery::Every(v, q) => {
                bound.push(v.clone());
                q.collect_free(bound, out);
                bound.pop();
            }
        }
    }

    /// Every token literal the query mentions, in order of appearance
    /// (repeats kept): `'t'`, `v HAS 't'` and literal `dist` arguments.
    /// These are the only tokens a scoring model is asked about.
    pub fn tokens(&self) -> Vec<String> {
        fn walk(q: &SurfaceQuery, out: &mut Vec<String>) {
            match q {
                SurfaceQuery::Lit(t) | SurfaceQuery::VarHas(_, t) => out.push(t.clone()),
                SurfaceQuery::Dist(a, b, _) => {
                    for arg in [a, b] {
                        if let TokenArg::Lit(t) = arg {
                            out.push(t.clone());
                        }
                    }
                }
                SurfaceQuery::Any | SurfaceQuery::VarHasAny(_) | SurfaceQuery::Pred { .. } => {}
                SurfaceQuery::Not(x) | SurfaceQuery::Some(_, x) | SurfaceQuery::Every(_, x) => {
                    walk(x, out)
                }
                SurfaceQuery::And(x, y) | SurfaceQuery::Or(x, y) => {
                    walk(x, out);
                    walk(y, out);
                }
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }

    /// Render back to COMP syntax.
    pub fn render(&self) -> String {
        match self {
            SurfaceQuery::Lit(t) => format!("'{t}'"),
            SurfaceQuery::Any => "ANY".into(),
            SurfaceQuery::VarHas(v, t) => format!("{v} HAS '{t}'"),
            SurfaceQuery::VarHasAny(v) => format!("{v} HAS ANY"),
            SurfaceQuery::Pred { name, vars, consts } => {
                let mut args: Vec<String> = vars.clone();
                args.extend(consts.iter().map(|c| c.to_string()));
                format!("{name}({})", args.join(", "))
            }
            SurfaceQuery::Dist(a, b, d) => {
                let ta = match a {
                    TokenArg::Lit(t) => format!("'{t}'"),
                    TokenArg::Any => "ANY".into(),
                };
                let tb = match b {
                    TokenArg::Lit(t) => format!("'{t}'"),
                    TokenArg::Any => "ANY".into(),
                };
                format!("dist({ta}, {tb}, {d})")
            }
            SurfaceQuery::Not(q) => format!("NOT ({})", q.render()),
            SurfaceQuery::And(a, b) => format!("({} AND {})", a.render(), b.render()),
            SurfaceQuery::Or(a, b) => format!("({} OR {})", a.render(), b.render()),
            SurfaceQuery::Some(v, q) => format!("SOME {v} ({})", q.render()),
            SurfaceQuery::Every(v, q) => format!("EVERY {v} ({})", q.render()),
        }
    }
}

impl fmt::Display for SurfaceQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_vars_sees_through_binders() {
        let q = SurfaceQuery::Some(
            "p1".into(),
            Box::new(SurfaceQuery::And(
                Box::new(SurfaceQuery::VarHas("p1".into(), "a".into())),
                Box::new(SurfaceQuery::VarHas("p2".into(), "b".into())),
            )),
        );
        let free: Vec<String> = q.free_vars().into_iter().collect();
        assert_eq!(free, vec!["p2".to_string()]);
    }

    #[test]
    fn tokens_lists_every_literal_in_order() {
        let q = crate::parse(
            "'a' OR NOT dist('b', ANY, 3) AND SOME p (p HAS 'c' AND p HAS ANY) OR 'a'",
            crate::Mode::Comp,
        )
        .unwrap();
        assert_eq!(q.tokens(), ["a", "b", "c", "a"]);
    }

    #[test]
    fn render_roundtrips_shape() {
        let q = SurfaceQuery::Some(
            "p1".into(),
            Box::new(SurfaceQuery::Not(Box::new(SurfaceQuery::VarHas(
                "p1".into(),
                "t1".into(),
            )))),
        );
        assert_eq!(q.render(), "SOME p1 (NOT (p1 HAS 't1'))");
    }
}
