//! Query depth is bounded at the parser, so no query text can exhaust a
//! thread's stack: queries exactly at `MAX_QUERY_DEPTH` run end to end
//! (parse, plan, evaluate, rank) on a serve-pool worker's default stack,
//! one level deeper is an error, and hostile inputs (tens of thousands of
//! parentheses, hundreds of thousands of chained terms) are errors too —
//! after which the worker keeps serving.

use ftsl_core::{FtslError, LiveConfig, LiveFtsl, RankModel};
use ftsl_lang::MAX_QUERY_DEPTH;
use ftsl_serve::{QueryRequest, ServeConfig, ServePool, Served};
use std::sync::Arc;

/// A query of exactly `depth` levels in each generated shape: nested
/// parentheses, a `NOT` chain, left-deep `OR` and `AND` chains (wide
/// queries), and a mix that nests `NOT ('x' OR …)` wrappers.
fn shapes(depth: usize) -> Vec<(&'static str, String)> {
    let chain = |op: &str| {
        (0..depth)
            .map(|i| format!("'t{}'", i % 5))
            .collect::<Vec<_>>()
            .join(op)
    };
    // Each wrapper adds three levels (NOT, parenthesis, OR) around a
    // one-level literal; leftover levels become outer parentheses.
    let wrappers = (depth - 1) / 3;
    let outer = depth - 1 - 3 * wrappers;
    let mut mixed = "'t0'".to_string();
    for i in 0..wrappers {
        mixed = format!("NOT ('t{}' OR {mixed})", i % 5);
    }
    let mixed = format!("{}{mixed}{}", "(".repeat(outer), ")".repeat(outer));
    vec![
        (
            "parens",
            format!("{}'t1'{}", "(".repeat(depth - 1), ")".repeat(depth - 1)),
        ),
        ("not", format!("{}'t2'", "NOT ".repeat(depth - 1))),
        ("or", chain(" OR ")),
        ("and", chain(" AND ")),
        ("mixed", mixed),
    ]
}

fn engine() -> Arc<LiveFtsl> {
    let engine = LiveFtsl::with_config(LiveConfig {
        background_merge: false,
        ..LiveConfig::default()
    });
    engine.add("t0 t1 t2 t3 t4");
    engine.add("t1 t3");
    engine.flush();
    engine.add("t0 t2 t4");
    Arc::new(engine)
}

fn requests(query: &str) -> [QueryRequest; 3] {
    [
        QueryRequest::search(query),
        QueryRequest::top_k(query, RankModel::TfIdf, 3),
        QueryRequest::top_k(query, RankModel::Pra, 3),
    ]
}

fn is_depth_error(reply: &Result<Served, FtslError>) -> bool {
    matches!(reply, Err(e) if e.to_string().contains("deeper than"))
}

#[test]
fn pool_worker_runs_queries_at_the_limit_and_refuses_deeper_ones() {
    let pool = ServePool::new(
        engine(),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    for (name, query) in shapes(MAX_QUERY_DEPTH) {
        for req in requests(&query) {
            let reply = pool.execute(req);
            assert!(reply.is_ok(), "{name} at the limit: {:?}", reply.err());
        }
    }
    for (name, query) in shapes(MAX_QUERY_DEPTH + 1) {
        for req in requests(&query) {
            assert!(is_depth_error(&pool.execute(req)), "{name} over the limit");
        }
    }
    let hostile = [
        format!("{}'t1'{}", "(".repeat(20_000), ")".repeat(20_000)),
        vec!["'t1'"; 200_000].join(" OR "),
    ];
    for query in &hostile {
        for req in requests(query) {
            assert!(is_depth_error(&pool.execute(req)));
        }
    }
    // The worker survived all of it.
    let reply = pool
        .execute(QueryRequest::search("'t3'"))
        .expect("still serving");
    assert_eq!(reply.answer.as_search().unwrap().len(), 2);
}

#[test]
fn facade_refuses_hostile_depth_on_the_calling_thread() {
    let engine = engine();
    let parens = format!("{}'t1'{}", "(".repeat(20_000), ")".repeat(20_000));
    let err = engine.search(&parens).unwrap_err();
    assert!(err.to_string().contains("deeper than"), "{err}");
    let chain = vec!["'t1'"; 200_000].join(" OR ");
    assert!(engine.search_top_k(&chain, RankModel::TfIdf, 3).is_err());
    assert!(engine.search_ranked(&chain, RankModel::Pra).is_err());
}
