//! The word-pair index build against the position-intersection oracle.
//!
//! Random documents over a five-token vocabulary exercise the shapes the
//! sort-based build has to get right: repeated tokens (self pairs),
//! non-contiguous offsets, empty documents, and corpora where more than
//! 128 documents share a pair so its list spans blocks. Each corpus is
//! built under every combination of `window ∈ {1, 2, 16, ≥ doc length}`
//! and `df_cutoff ∈ {0, 2, large}`, and then:
//!
//! * every indexed list equals [`min_forward_gaps`] over the two tokens'
//!   postings, and
//! * every covered key absent from the index has an empty oracle result.
//!
//! The scheduled CI fuzz job raises the case count via
//! `FTSL_PROPTEST_CASES`; the default keeps PR builds quick.

use ftsl_index::pair::min_forward_gaps;
use ftsl_index::{AccessCounters, IndexBuilder, PairConfig, PairLookup};
use ftsl_model::{Corpus, Position, TokenId};
use proptest::prelude::*;

fn prop_cases() -> u32 {
    std::env::var("FTSL_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48)
}

const VOCAB: u32 = 5;
/// Offsets in generated documents never reach this, so a window this
/// wide indexes every forward pair.
const WIDE_WINDOW: u32 = 1_000;

/// One document: `(token, step)` per occurrence, where `step ≥ 1` is the
/// offset distance from the previous token (steps above 1 leave holes).
type RawDoc = Vec<(u32, u32)>;

fn arb_doc(len: std::ops::Range<usize>) -> impl Strategy<Value = RawDoc> {
    proptest::collection::vec((0..VOCAB, 1u32..4), len)
}

fn arb_docs() -> impl Strategy<Value = Vec<RawDoc>> {
    prop_oneof![
        3 => proptest::collection::vec(arb_doc(0..20), 0..10),
        // Every document opens with `t0 t1`, so that pair's list holds
        // more than one block's worth of entries.
        1 => proptest::collection::vec(arb_doc(0..6), 129..170).prop_map(|docs| {
            docs.into_iter()
                .map(|tail| [(0, 1), (1, 1)].into_iter().chain(tail).collect())
                .collect()
        }),
    ]
}

fn corpus_of(docs: &[RawDoc]) -> Corpus {
    let mut corpus = Corpus::new();
    for t in 0..VOCAB {
        corpus.intern(&format!("t{t}"));
    }
    for (d, doc) in docs.iter().enumerate() {
        let mut offset = 0u32;
        let tokens = doc
            .iter()
            .enumerate()
            .map(|(i, &(token, step))| {
                offset = if i == 0 { step - 1 } else { offset + step };
                (TokenId(token), Position::new(offset, 0, 0))
            })
            .collect();
        corpus.add_tokens(format!("doc{d}"), tokens);
    }
    corpus
}

fn check(corpus: &Corpus, config: PairConfig) {
    let index = IndexBuilder::new().pair_config(config).build(corpus);
    let pairs = index.pairs();
    let oracle = |a: TokenId, b: TokenId| {
        min_forward_gaps(
            index.list(a),
            index.list(b),
            config.window,
            &mut AccessCounters::new(),
        )
    };
    let mut total = 0u64;
    for (a, b, list) in pairs.iter() {
        assert!(
            !list.is_empty(),
            "{config:?}: empty list for ({a:?}, {b:?})"
        );
        assert_eq!(
            list.to_entries(),
            oracle(a, b),
            "{config:?}: ({a:?}, {b:?})"
        );
        total += list.num_entries() as u64;
    }
    assert_eq!(pairs.num_entries(), total, "{config:?}");
    for a in (0..VOCAB).map(TokenId) {
        let df = index.list(a).num_entries() as u32;
        assert_eq!(pairs.covers(a), df >= config.df_cutoff, "{config:?}: {a:?}");
        for b in (0..VOCAB).map(TokenId) {
            if let PairLookup::Empty = pairs.lookup(a, b) {
                assert!(oracle(a, b).is_empty(), "{config:?}: ({a:?}, {b:?})");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(prop_cases()))]

    #[test]
    fn built_pair_lists_match_the_intersection_oracle(docs in arb_docs()) {
        let corpus = corpus_of(&docs);
        for window in [1, 2, 16, WIDE_WINDOW] {
            for df_cutoff in [0, 2, u32::MAX] {
                check(&corpus, PairConfig { window, df_cutoff });
            }
        }
    }
}

#[test]
fn shared_pair_lists_span_blocks() {
    let docs: Vec<RawDoc> = (0..140).map(|i| vec![(0, 1), (1, 1), (i % 3, 2)]).collect();
    let corpus = corpus_of(&docs);
    let config = PairConfig::default();
    let index = IndexBuilder::new().pair_config(config).build(&corpus);
    match index.pairs().lookup(TokenId(0), TokenId(1)) {
        PairLookup::List(list) => {
            assert_eq!(list.num_entries(), 140);
            assert_eq!(list.num_blocks(), 2);
        }
        other => panic!("expected a list, got {other:?}"),
    }
    check(&corpus, config);
}
