//! The seven query families along the paper's hierarchy, how each runs
//! through the `LiveFtsl` facade or stage by stage, and the answer checks
//! against the oracles the repository keeps.
//!
//! | family | entry point | expected class → engine |
//! |---|---|---|
//! | `bool` | `search_with(.., Auto)` | BOOL / BOOL-NONEG → BOOL |
//! | `dist` | `search_with(.., Auto)` | DIST → PPRED |
//! | `ppred` | `search_with(.., Auto)` | PPRED → PPRED |
//! | `npred` | `search_with(.., Auto)` | NPRED → NPRED |
//! | `comp` | `search_with(.., Comp)` | PPRED or NPRED → COMP (forced) |
//! | `topk` | `search_top_k_with` (TF-IDF) | streamed, not rank-then-truncate |
//! | `near` | `search_near_top_k_with` | the pair-proximity path |
//!
//! `comp` is the paper's COMP-POS/COMP-NEG series: PPRED- and NPRED-shaped
//! queries over a rare token forced onto the COMP engine. Real COMP-class
//! queries with free-variable negation materialise hundreds of millions of
//! tuples and take tens of seconds each, which would swamp a run.

use crate::stats::Digest;
use crate::trace::{SpanId, Tracer};
use ftsl_calculus::{CalcQuery, Interpreter};
use ftsl_core::{ExecScratch, LiveFtsl, RankModel};
use ftsl_exec::engine::{EngineKind, EngineUsed, ExecOptions};
use ftsl_exec::scored::flat_disjunction;
use ftsl_exec::{PairQuery, ScoreModel, ScoredPath, ScoredTopK, SnapshotExecutor};
use ftsl_index::{AccessCounters, Snapshot};
use ftsl_lang::{classify, lower, map_tokens, parse, LanguageClass, Mode, Thesaurus};
use ftsl_model::{AnalysisConfig, Corpus, NodeId};
use ftsl_predicates::PredicateRegistry;
use ftsl_scoring::closeness;

/// One query family.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Family {
    /// Predicate-free Boolean queries.
    Bool,
    /// BOOL plus `dist(..)`.
    Dist,
    /// Positive position predicates.
    Ppred,
    /// Negative position predicates.
    Npred,
    /// PPRED/NPRED shapes forced onto the COMP engine.
    Comp,
    /// Streaming TF-IDF top-k over flat disjunctions.
    TopK,
    /// Closeness-ranked NEAR over the word-pair index.
    Near,
}

impl Family {
    /// Every family, in the paper's order.
    pub const ALL: [Family; 7] = [
        Family::Bool,
        Family::Dist,
        Family::Ppred,
        Family::Npred,
        Family::Comp,
        Family::TopK,
        Family::Near,
    ];

    /// Metric-name label.
    pub fn name(self) -> &'static str {
        match self {
            Family::Bool => "bool",
            Family::Dist => "dist",
            Family::Ppred => "ppred",
            Family::Npred => "npred",
            Family::Comp => "comp",
            Family::TopK => "topk",
            Family::Near => "near",
        }
    }

    /// Position in [`Family::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// What a query runs.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// Unranked search on an engine (Auto or forced).
    Search {
        /// COMP-syntax query text.
        text: String,
        /// Engine to run on.
        engine: EngineKind,
    },
    /// TF-IDF streaming top-k.
    TopK {
        /// Flat-disjunction query text.
        text: String,
        /// Hits to keep.
        k: usize,
    },
    /// Closeness-ranked NEAR.
    Near {
        /// First token.
        first: String,
        /// Second token.
        second: String,
        /// Largest qualifying forward gap.
        bound: u32,
        /// `first` strictly before `second`.
        ordered: bool,
        /// Hits to keep.
        k: usize,
    },
}

impl Op {
    /// One-line rendering for failure messages.
    pub fn describe(&self) -> String {
        match self {
            Op::Search { text, engine } => format!("{engine:?}: {text}"),
            Op::TopK { text, k } => format!("top-{k}: {text}"),
            Op::Near {
                first,
                second,
                bound,
                ordered,
                k,
            } => format!("near top-{k} '{first}' '{second}' bound={bound} ordered={ordered}"),
        }
    }
}

/// A query labelled with its family.
#[derive(Clone, Debug, PartialEq)]
pub struct Query {
    /// Family label.
    pub family: Family,
    /// What to run.
    pub op: Op,
}

/// Frequent tokens: `common` is planted in 40% of documents; `t3`, `t5`
/// and `t8` are Zipf ranks 4, 6 and 9 and occur in nearly every document.
const HIGH: [&str; 4] = ["common", "t3", "t5", "t8"];
/// Mid-frequency tokens (roughly 15–30% of documents).
const MID: [&str; 4] = ["mid", "t40", "t60", "t90"];
/// Rare tokens (roughly 2–3% of documents).
const LOW: [&str; 3] = ["rare", "t400", "t700"];

fn search(text: String) -> Op {
    Op::Search {
        text,
        engine: EngineKind::Auto,
    }
}

fn two_var(a: &str, b: &str, preds: &str) -> String {
    format!("SOME p1 SOME p2 (p1 HAS '{a}' AND p2 HAS '{b}' AND {preds})")
}

/// The paper-mix query set: four variants per family over fixed tokens of
/// each frequency pool. The seed changes the corpus the queries run on,
/// not the queries: which pool token a variant names changes its cost
/// several-fold, and that would swamp every difference between runs.
pub fn paper_queries() -> Vec<Query> {
    let mut out = Vec::new();
    let mut push = |family: Family, op: Op| out.push(Query { family, op });
    for v in 0..4 {
        let (h, h2) = (HIGH[v], HIGH[(v + 1) % HIGH.len()]);
        let m = MID[v];
        let l = LOW[v % LOW.len()];
        let (bool_q, dist_q, ppred_q, npred_q, comp_q, topk_q, near_q) = match v {
            0 => (
                format!("'{h}' AND '{m}'"),
                format!("dist('{h}', '{m}', 3)"),
                two_var(h, m, "ordered(p1,p2) AND distance(p1,p2,0)"),
                two_var(h, m, "not_samesent(p1,p2)"),
                two_var(l, m, "distance(p1,p2,20)"),
                (format!("'{h}' OR '{m}'"), 10),
                (h, m, 3, false, 10),
            ),
            1 => (
                format!("'{h}' AND '{m}' AND NOT '{l}'"),
                format!("dist('{h}', '{m}', 10) AND NOT '{l}'"),
                two_var(h, m, "distance(p1,p2,4)"),
                two_var(h, m, "not_ordered(p1,p2)"),
                two_var(l, h, "samepara(p1,p2)"),
                (format!("'{h}' OR '{m}' OR '{l}'"), 10),
                (m, h, 8, true, 10),
            ),
            2 => (
                format!("'{m}' OR '{l}'"),
                format!("dist('{m}', '{l}', 20)"),
                two_var(h, m, "samesent(p1,p2)"),
                two_var(m, h, "not_distance(p1,p2,5)"),
                two_var(l, m, "not_samesent(p1,p2)"),
                (format!("'{m}' OR '{l}'"), 5),
                (h, h2, 1, true, 10),
            ),
            _ => (
                format!("('{h}' OR '{l}') AND '{m}'"),
                format!("dist('{h}', '{h2}', 1)"),
                two_var(m, h, "ordered(p1,p2) AND samepara(p1,p2)"),
                two_var(h, m, "not_samepara(p1,p2)"),
                two_var(l, h, "not_distance(p1,p2,20)"),
                (format!("'{h}' OR '{h2}'"), 20),
                (m, h2, 16, false, 5),
            ),
        };
        push(Family::Bool, search(bool_q));
        push(Family::Dist, search(dist_q));
        push(Family::Ppred, search(ppred_q));
        push(Family::Npred, search(npred_q));
        push(
            Family::Comp,
            Op::Search {
                text: comp_q,
                engine: EngineKind::Comp,
            },
        );
        push(
            Family::TopK,
            Op::TopK {
                text: topk_q.0,
                k: topk_q.1,
            },
        );
        let (first, second, bound, ordered, k) = near_q;
        push(
            Family::Near,
            Op::Near {
                first: first.to_string(),
                second: second.to_string(),
                bound,
                ordered,
                k,
            },
        );
    }
    out
}

/// What one query returned, in a form every entry point shares.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Hit node ids (ascending for searches, rank order for top-k).
    pub nodes: Vec<u32>,
    /// Scores in rank order (empty for unranked searches).
    pub scores: Vec<f64>,
    /// Access counters of the evaluation.
    pub counters: AccessCounters,
    /// Detected language class (searches and top-k).
    pub class: Option<LanguageClass>,
    /// Engine that ran (searches).
    pub engine: Option<EngineUsed>,
    /// Top-k streamed rather than ranked exhaustively.
    pub streamed: bool,
    /// Scored path (NEAR).
    pub path: Option<ScoredPath>,
}

impl Outcome {
    /// Digest of the hit node ids.
    pub fn digest(&self) -> Digest {
        Digest::of(self.nodes.iter().copied())
    }
}

fn ids(nodes: &[NodeId]) -> Vec<u32> {
    nodes.iter().map(|n| n.0).collect()
}

fn ranked(hits: &[(NodeId, f64)]) -> (Vec<u32>, Vec<f64>) {
    hits.iter().map(|&(n, s)| (n.0, s)).unzip()
}

/// Run `op` through the `LiveFtsl` facade, exactly as a caller would.
pub fn run_facade(
    engine: &LiveFtsl,
    op: &Op,
    scratch: &mut ExecScratch,
) -> Result<Outcome, String> {
    match op {
        Op::Search { text, engine: kind } => {
            let r = engine
                .search_with(text, Mode::Comp, *kind)
                .map_err(|e| e.to_string())?;
            Ok(Outcome {
                nodes: ids(&r.nodes),
                scores: Vec::new(),
                counters: r.counters,
                class: Some(r.class),
                engine: Some(r.engine),
                streamed: false,
                path: None,
            })
        }
        Op::TopK { text, k } => {
            let r = engine
                .search_top_k_with(text, RankModel::TfIdf, *k, scratch)
                .map_err(|e| e.to_string())?;
            let (nodes, scores) = ranked(&r.hits);
            Ok(Outcome {
                nodes,
                scores,
                counters: r.counters.unwrap_or_default(),
                class: None,
                engine: None,
                streamed: r.counters.is_some(),
                path: None,
            })
        }
        Op::Near {
            first,
            second,
            bound,
            ordered,
            k,
        } => {
            let r = engine.search_near_top_k_with(first, second, *bound, *ordered, *k, scratch);
            let (nodes, scores) = ranked(&r.hits);
            Ok(Outcome {
                nodes,
                scores,
                counters: r.counters,
                class: None,
                engine: None,
                streamed: true,
                path: Some(r.path),
            })
        }
    }
}

/// Durations of the stages of one staged request, in nanoseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimes {
    /// `ftsl_lang::parse`.
    pub parse_ns: Option<u64>,
    /// The facade's query rewrite (`Thesaurus::expand`, `map_tokens`).
    pub rewrite_ns: Option<u64>,
    /// `ftsl_lang::classify`.
    pub classify_ns: Option<u64>,
    /// The `SnapshotExecutor::run_*` call alone.
    pub exec_ns: u64,
    /// Every measured call the facade also makes: all spans inside the
    /// request but `lang.classify`, which `run_surface` repeats on its own
    /// and the TF-IDF top-k path skips.
    pub path_ns: u64,
    /// The whole request.
    pub total_ns: u64,
}

fn timed<T>(
    tracer: &mut Tracer,
    name: &'static str,
    req: u32,
    parent: SpanId,
    f: impl FnOnce() -> T,
) -> (T, u64) {
    let id = tracer.open(name, req, Some(parent));
    let out = f();
    let ns = tracer.close(id);
    (out, ns)
}

/// Run `op` stage by stage with a span around each call into a layer:
/// `parse` → `rewrite` → `classify` → `snapshot` (→ `snapshot_stats` →
/// `tfidf_model` for top-k) → `SnapshotExecutor::run_*`, on
/// `ExecOptions::default()` and the engine's registry. This mirrors
/// `LiveFtsl::search_with`, `search_top_k_with` and
/// `search_near_top_k_with` on an engine built without a thesaurus or
/// analysis, as the workloads build theirs: the rewrite expands through an
/// empty thesaurus and maps tokens through `AnalysisConfig::none()`, which
/// leaves the query as it was but costs what the facade pays for it.
pub fn run_staged(
    engine: &LiveFtsl,
    op: &Op,
    scratch: &mut ExecScratch,
    tracer: &mut Tracer,
) -> Result<(Outcome, StageTimes), String> {
    let req = tracer.request();
    let root = tracer.open("bench.request", req, None);
    let registry = engine.registry();
    let options = ExecOptions::default();
    let (thesaurus, analysis) = (Thesaurus::new(), AnalysisConfig::none());
    let rewrite = |surface: &ftsl_lang::SurfaceQuery| {
        map_tokens(&thesaurus.expand(surface), &|t| analysis.analyze(t))
    };
    let mut times = StageTimes::default();
    let outcome = match op {
        Op::Search { text, engine: kind } => {
            let (surface, ns) = timed(tracer, "lang.parse", req, root, || parse(text, Mode::Comp));
            times.parse_ns = Some(ns);
            let surface = surface.map_err(|e| e.to_string())?;
            let (surface, ns) = timed(tracer, "lang.rewrite", req, root, || rewrite(&surface));
            times.rewrite_ns = Some(ns);
            let (class, ns) = timed(tracer, "lang.classify", req, root, || {
                classify(&surface, registry)
            });
            times.classify_ns = Some(ns);
            let (snapshot, _) = timed(tracer, "core.snapshot", req, root, || engine.snapshot());
            let exec = SnapshotExecutor::with_options(&snapshot, registry, options);
            let (out, ns) = timed(tracer, "exec.run_surface", req, root, || {
                exec.run_surface(&surface, *kind)
            });
            times.exec_ns = ns;
            let out = out.map_err(|e| e.to_string())?;
            Outcome {
                nodes: ids(&out.nodes),
                scores: Vec::new(),
                counters: out.counters,
                class: Some(class),
                engine: Some(out.engine),
                streamed: false,
                path: None,
            }
        }
        Op::TopK { text, k } => {
            let (surface, ns) = timed(tracer, "lang.parse", req, root, || parse(text, Mode::Comp));
            times.parse_ns = Some(ns);
            let surface = surface.map_err(|e| e.to_string())?;
            let (surface, ns) = timed(tracer, "lang.rewrite", req, root, || rewrite(&surface));
            times.rewrite_ns = Some(ns);
            let (class, ns) = timed(tracer, "lang.classify", req, root, || {
                classify(&surface, registry)
            });
            times.classify_ns = Some(ns);
            let (snapshot, _) = timed(tracer, "core.snapshot", req, root, || engine.snapshot());
            let (stats, _) = timed(tracer, "scoring.snapshot_stats", req, root, || {
                engine.snapshot_stats(&snapshot)
            });
            let tokens = flat_disjunction(&surface)
                .ok_or_else(|| format!("top-k query is not a flat disjunction: {text}"))?;
            let (model, _) = timed(tracer, "scoring.tfidf_model", req, root, || {
                stats.tfidf_model(&tokens, &snapshot)
            });
            let exec = SnapshotExecutor::with_options(&snapshot, registry, options);
            let (out, ns) = timed(tracer, "exec.run_top_k_with", req, root, || {
                exec.run_top_k_with(
                    &surface,
                    ScoredTopK { k: *k },
                    &stats,
                    &ScoreModel::TfIdf(&model),
                    scratch,
                )
            });
            times.exec_ns = ns;
            let out = out.map_err(|e| e.to_string())?;
            let (nodes, scores) = ranked(&out.hits);
            Outcome {
                nodes,
                scores,
                counters: out.counters,
                class: Some(class),
                engine: None,
                streamed: true,
                path: Some(out.path),
            }
        }
        Op::Near {
            first,
            second,
            bound,
            ordered,
            k,
        } => {
            let (analyzed, _) = timed(tracer, "lang.analyze", req, root, || {
                (analysis.analyze(first), analysis.analyze(second))
            });
            let (Some(first), Some(second)) = analyzed else {
                return Err(format!("NEAR tokens {first:?}, {second:?} are stopped"));
            };
            let q = PairQuery {
                first,
                second,
                directed: *ordered,
                bound: *bound,
            };
            let (snapshot, _) = timed(tracer, "core.snapshot", req, root, || engine.snapshot());
            let exec = SnapshotExecutor::with_options(&snapshot, registry, options);
            let (out, ns) = timed(tracer, "exec.run_near_top_k_with", req, root, || {
                exec.run_near_top_k_with(&q, *k, scratch)
            });
            times.exec_ns = ns;
            let (nodes, scores) = ranked(&out.hits);
            Outcome {
                nodes,
                scores,
                counters: out.counters,
                class: None,
                engine: None,
                streamed: true,
                path: Some(out.path),
            }
        }
    };
    times.total_ns = tracer.close(root);
    times.path_ns = tracer.children_ns(root) - times.classify_ns.unwrap_or(0);
    Ok((outcome, times))
}

/// Check that a query's detected class and engine match its family label.
pub fn check_label(family: Family, out: &Outcome) -> Result<(), String> {
    use LanguageClass as C;
    let ok = match family {
        Family::Bool => {
            matches!(out.class, Some(C::BoolNoNeg | C::Bool))
                && out.engine == Some(EngineUsed::Bool)
        }
        Family::Dist => out.class == Some(C::Dist) && out.engine == Some(EngineUsed::Ppred),
        Family::Ppred => out.class == Some(C::Ppred) && out.engine == Some(EngineUsed::Ppred),
        Family::Npred => out.class == Some(C::Npred) && out.engine == Some(EngineUsed::Npred),
        Family::Comp => {
            matches!(out.class, Some(C::Ppred | C::Npred)) && out.engine == Some(EngineUsed::Comp)
        }
        Family::TopK => out.streamed,
        // The proximity engine ran; a segment whose pair index does not
        // cover a token falls back to position intersection on its own.
        Family::Near => out.path == Some(ScoredPath::PairProximity),
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{} label mismatch: class {:?}, engine {:?}, streamed {}, path {:?}",
            family.name(),
            out.class,
            out.engine,
            out.streamed,
            out.path
        ))
    }
}

/// The PPRED text a NEAR query answers: `distance(d)` means a gap of at
/// most `d + 1`, so a NEAR bound `b` is `distance(p1,p2,b-1)`.
fn near_as_ppred(first: &str, second: &str, bound: u32, ordered: bool) -> String {
    let d = bound.saturating_sub(1);
    if ordered {
        two_var(
            first,
            second,
            &format!("ordered(p1,p2) AND distance(p1,p2,{d})"),
        )
    } else {
        two_var(first, second, &format!("distance(p1,p2,{d})"))
    }
}

/// Offsets of `token` in the document with global id `node`.
fn offsets(snapshot: &Snapshot, node: u32, token: &str) -> Vec<u32> {
    for seg in snapshot.segments() {
        let data = seg.data();
        if let Some(local) = data.local_of(NodeId(node)) {
            let Some(id) = data.corpus().token_id(token) else {
                return Vec::new();
            };
            return data
                .document(local)
                .tokens
                .iter()
                .filter(|(t, _)| *t == id)
                .map(|(_, p)| p.offset)
                .collect();
        }
    }
    Vec::new()
}

/// Smallest qualifying gap between `a` and `b` offsets.
fn min_gap(a: &[u32], b: &[u32], ordered: bool) -> Option<u32> {
    let mut best: Option<u32> = None;
    for &x in a {
        for &y in b {
            let gap = if y > x {
                Some(y - x)
            } else if !ordered && x > y {
                Some(x - y)
            } else {
                None
            };
            if let Some(g) = gap {
                best = Some(best.map_or(g, |b| b.min(g)));
            }
        }
    }
    best
}

fn search_nodes(
    engine: &LiveFtsl,
    text: &str,
    kind: EngineKind,
    options: ExecOptions,
) -> Result<Vec<u32>, String> {
    let surface = parse(text, Mode::Comp).map_err(|e| e.to_string())?;
    let snapshot = engine.snapshot();
    let exec = SnapshotExecutor::with_options(&snapshot, engine.registry(), options);
    let out = exec
        .run_surface(&surface, kind)
        .map_err(|e| e.to_string())?;
    Ok(ids(&out.nodes))
}

fn no_pairs() -> ExecOptions {
    ExecOptions {
        use_pairs: false,
        ..ExecOptions::default()
    }
}

/// The oracle's answer for `q` on the engine's current snapshot:
/// - `ppred` and `dist`: position intersection (`use_pairs: false`);
/// - `near`: position intersection for the matching set, then closeness of
///   each document's smallest gap, ranked and truncated to k;
/// - `topk`: exhaustive `search_ranked`, truncated to k;
/// - `bool`, `npred`: the COMP engine;
/// - `comp`: the class's own streaming engine (automatic dispatch).
pub fn oracle(engine: &LiveFtsl, q: &Query) -> Result<(Vec<u32>, Vec<f64>), String> {
    match (&q.op, q.family) {
        (Op::Search { text, .. }, Family::Ppred | Family::Dist) => Ok((
            search_nodes(engine, text, EngineKind::Auto, no_pairs())?,
            Vec::new(),
        )),
        (Op::Search { text, .. }, Family::Comp) => Ok((
            search_nodes(engine, text, EngineKind::Auto, ExecOptions::default())?,
            Vec::new(),
        )),
        (Op::Search { text, .. }, _) => Ok((
            search_nodes(engine, text, EngineKind::Comp, ExecOptions::default())?,
            Vec::new(),
        )),
        (Op::TopK { text, k }, _) => {
            let r = engine
                .search_ranked(text, RankModel::TfIdf)
                .map_err(|e| e.to_string())?;
            let mut hits = r.hits;
            hits.truncate(*k);
            Ok(ranked(&hits))
        }
        (
            Op::Near {
                first,
                second,
                bound,
                ordered,
                k,
            },
            _,
        ) => {
            let text = near_as_ppred(first, second, *bound, *ordered);
            let matching = search_nodes(engine, &text, EngineKind::Auto, no_pairs())?;
            let snapshot = engine.snapshot();
            let mut hits: Vec<(NodeId, f64)> = Vec::with_capacity(matching.len());
            for node in matching {
                let a = offsets(&snapshot, node, first);
                let b = offsets(&snapshot, node, second);
                let gap = min_gap(&a, &b, *ordered)
                    .ok_or_else(|| format!("near oracle: node {node} has no qualifying gap"))?;
                hits.push((NodeId(node), closeness(gap, *bound)));
            }
            ftsl_scoring::topk::sort_ranked(&mut hits);
            hits.truncate(*k);
            Ok(ranked(&hits))
        }
    }
}

/// Compare an outcome with its oracle answer: node for node, and scores
/// within a relative 1e-9.
pub fn matches_oracle(out: &Outcome, nodes: &[u32], scores: &[f64]) -> Result<(), String> {
    if out.nodes != nodes {
        return Err(format!(
            "nodes differ: got {} hits, oracle {} (first {:?} vs {:?})",
            out.nodes.len(),
            nodes.len(),
            out.nodes.iter().take(5).collect::<Vec<_>>(),
            nodes.iter().take(5).collect::<Vec<_>>()
        ));
    }
    for (a, b) in out.scores.iter().zip(scores) {
        if (a - b).abs() > 1e-9 * a.abs().max(b.abs()).max(1.0) {
            return Err(format!("scores differ: {a} vs oracle {b}"));
        }
    }
    Ok(())
}

/// The calculus interpreter's answer for a search query over `corpus`
/// (node ids equal global ids when the engine was built from the same
/// texts in the same order).
pub fn interpreter_nodes(
    corpus: &Corpus,
    registry: &PredicateRegistry,
    text: &str,
) -> Result<Vec<u32>, String> {
    let surface = parse(text, Mode::Comp).map_err(|e| e.to_string())?;
    let expr = lower(&surface, registry).map_err(|e| e.to_string())?;
    Ok(ids(
        &Interpreter::new(corpus, registry).eval_query(&CalcQuery::new(expr))
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_has_four_variants() {
        let qs = paper_queries();
        for f in Family::ALL {
            assert_eq!(qs.iter().filter(|q| q.family == f).count(), 4, "{f:?}");
        }
    }

    #[test]
    fn min_gap_respects_direction() {
        assert_eq!(min_gap(&[5], &[3, 9], true), Some(4));
        assert_eq!(min_gap(&[5], &[3, 9], false), Some(2));
        assert_eq!(min_gap(&[5], &[3], true), None);
    }
}
