//! Differential property test for per-version scoring statistics.
//!
//! After any interleaving of adds (empty documents and repeated tokens
//! included), deletes, whole-segment deletes, flushes and merges,
//! [`SnapshotStats::compute`] — which works from each segment's cached
//! term rows — must agree bit for bit with [`ScoreStats::compute`] on a
//! monolithic rebuild of the surviving documents: `db_size`, every
//! token's `df` and idf, and every live node's `unique_tokens` and L2 norm.
//! Per-segment `max_node_boost` must bound its live nodes' factors, exactly
//! so when the segment has no tombstones. Snapshots that share a segment
//! must share its row table, not rebuild it.

use ftsl_index::{IndexBuilder, LiveConfig, LiveIndex, Snapshot};
use ftsl_model::{Corpus, NodeId};
use ftsl_scoring::{ScoreStats, SnapshotStats};
use proptest::prelude::*;

const VOCAB: [&str; 10] = [
    "alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta", "iota", "kappa",
];

fn prop_cases() -> u32 {
    std::env::var("FTSL_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48)
}

#[derive(Clone, Debug)]
enum Op {
    /// Add a document of vocabulary indices (possibly empty, with repeats).
    Add(Vec<usize>),
    /// Delete the `i % added`-th ever-added document.
    Delete(usize),
    /// Delete every document of the `i % segments`-th sealed segment.
    DeleteSegment(usize),
    Flush,
    MergeTier,
    MergeAll,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            6 => proptest::collection::vec(0..VOCAB.len(), 0..14).prop_map(Op::Add),
            3 => (0usize..64).prop_map(Op::Delete),
            1 => (0usize..8).prop_map(Op::DeleteSegment),
            2 => Just(Op::Flush),
            1 => Just(Op::MergeTier),
            1 => Just(Op::MergeAll),
        ],
        1..40,
    )
}

fn apply(live: &LiveIndex, ops: &[Op]) {
    let mut added = 0u32;
    for op in ops {
        match op {
            Op::Add(tokens) => {
                let text: Vec<&str> = tokens.iter().map(|&t| VOCAB[t]).collect();
                live.add_document(&text.join(" "));
                added += 1;
            }
            Op::Delete(i) if added > 0 => {
                live.delete_node(NodeId(*i as u32 % added));
            }
            Op::DeleteSegment(i) => {
                let snap = live.snapshot();
                let sealed = snap.num_segments() - usize::from(live.buffered_docs() > 0);
                if sealed > 0 {
                    let seg = &snap.segments()[i % sealed];
                    for &g in seg.data().globals() {
                        live.delete_node(NodeId(g));
                    }
                }
            }
            Op::Delete(_) => {}
            Op::Flush => {
                live.flush();
            }
            Op::MergeTier => {
                live.maybe_merge();
            }
            Op::MergeAll => {
                live.merge_all();
            }
        }
    }
}

/// The monolithic oracle: every live document in global order, rebuilt
/// from its token strings.
fn rebuild(snap: &Snapshot) -> (Corpus, ScoreStats) {
    let names = snap.widest_interner().cloned().unwrap_or_default();
    let texts: Vec<String> = snap
        .live_documents()
        .map(|(_, d)| {
            d.tokens
                .iter()
                .map(|&(t, _)| names.name(t))
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect();
    let corpus = Corpus::from_texts(&texts);
    let index = IndexBuilder::new().build(&corpus);
    let stats = ScoreStats::compute(&corpus, &index);
    (corpus, stats)
}

/// `1/(unique_tokens·‖n‖₂)`, the per-node factor `max_node_boost` maximizes
/// (0 for empty nodes, which it skips).
fn boost(stats: &ScoreStats, node: NodeId, empty: bool) -> f64 {
    if empty {
        0.0
    } else {
        1.0 / (stats.unique_tokens(node) as f64 * stats.l2_norm(node))
    }
}

fn check(snap: &Snapshot) {
    let stats = SnapshotStats::compute(snap);
    let (corpus, mono) = rebuild(snap);
    prop_assert_eq!(stats.db_size(), mono.db_size);
    if let Some(names) = snap.widest_interner() {
        for (id, name) in names.iter() {
            let m = corpus.token_id(name);
            prop_assert_eq!(stats.df_id(id), m.map_or(0, |m| mono.df(m)), "df({})", name);
            let mono_idf = m.map_or(0.0, |m| mono.idf(m));
            prop_assert_eq!(
                stats.idf_id(id).to_bits(),
                mono_idf.to_bits(),
                "idf({})",
                name
            );
        }
    }
    let mut mono_node = 0u32;
    let mut overall = 0.0f64;
    for (i, seg) in snap.segments().iter().enumerate() {
        let per = stats.segment(i);
        let mut seg_max = 0.0f64;
        for local in 0..seg.data().num_docs() {
            if !seg.deletes().is_live(local) {
                continue;
            }
            let (l, m) = (NodeId(local as u32), NodeId(mono_node));
            prop_assert_eq!(per.unique_tokens(l), mono.unique_tokens(m));
            prop_assert_eq!(
                per.l2_norm(l).to_bits(),
                mono.l2_norm(m).to_bits(),
                "norm of live node {}",
                mono_node
            );
            let empty = corpus.document(m).tokens.is_empty();
            seg_max = seg_max.max(boost(&mono, m, empty));
            mono_node += 1;
        }
        prop_assert!(per.max_node_boost() >= seg_max, "segment {} boost", i);
        if seg.fully_live() {
            prop_assert_eq!(per.max_node_boost().to_bits(), seg_max.to_bits());
        }
        overall = overall.max(seg_max);
    }
    prop_assert_eq!(overall.to_bits(), mono.max_node_boost().to_bits());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(prop_cases()))]

    #[test]
    fn snapshot_stats_match_a_monolithic_rebuild(ops in arb_ops()) {
        let live = LiveIndex::with_config(LiveConfig {
            background_merge: false,
            ..LiveConfig::default()
        });
        apply(&live, &ops);
        check(&live.snapshot());
        // Seal everything, read once, then change only the write buffer
        // and one tombstone: the sealed segments (and their rows) carry
        // over to the next snapshot untouched.
        live.flush();
        let before = live.snapshot();
        check(&before);
        live.add_document("alpha alpha omega");
        if let Some(&g) = before.segments().first().and_then(|s| s.data().globals().first()) {
            live.delete_node(NodeId(g));
        }
        let after = live.snapshot();
        check(&after);
        for (a, b) in before.segments().iter().zip(after.segments()) {
            prop_assert_eq!(a.data().id(), b.data().id());
            prop_assert!(
                std::ptr::eq(a.data().term_rows(), b.data().term_rows()),
                "segment {} rebuilt its rows",
                a.data().id()
            );
        }
    }
}
