//! Per-document term rows: the corpus-derived half of TF-IDF statistics.
//!
//! A node's L2 norm needs its distinct tokens with their occurrence
//! counts, and `idf` needs every token's document frequency. Both depend
//! only on the documents, never on the rest of the collection, so a sealed
//! segment derives them once ([`crate::SegmentData::term_rows`]) and every
//! snapshot containing the segment reads the same table; only the
//! collection-wide combination (merged `df`, `db_size`, idf) is redone per
//! version. The table sits beside the corpus rather than inside
//! [`crate::InvertedIndex`]: it is scoring data, not an access path, and it
//! is not persisted (a loaded segment rebuilds it on first use).
//!
//! Layout is CSR: `offsets[d]..offsets[d + 1]` indexes document `d`'s
//! `(token, count)` rows, one per distinct token, **in order of first
//! occurrence** — the order in which a monolithic rebuild meets them, which
//! is what keeps floating-point sums over a row bit-identical to it. That is
//! 8 bytes per distinct (document, token) pair, at most half of the
//! corpus's 16 bytes per token occurrence, plus 4 bytes per document and
//! per vocabulary entry.

use ftsl_model::{Corpus, TokenId};

/// Distinct tokens with counts per document, plus per-token document
/// frequency, for one corpus.
///
/// ```
/// use ftsl_index::rows::TermRows;
/// use ftsl_model::Corpus;
///
/// let corpus = Corpus::from_texts(&["b a b", "a"]);
/// let rows = TermRows::build(&corpus);
/// let (a, b) = (corpus.token_id("a").unwrap(), corpus.token_id("b").unwrap());
/// assert_eq!(rows.row(0), &[(b, 2), (a, 1)], "first-occurrence order");
/// assert_eq!(rows.df()[a.index()], 2);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TermRows {
    /// `offsets[d]..offsets[d + 1]` are document `d`'s rows.
    offsets: Vec<u32>,
    /// `(token, occurrences)` per distinct token of each document.
    rows: Vec<(TokenId, u32)>,
    /// Documents containing each token id of the corpus vocabulary.
    df: Vec<u32>,
}

impl TermRows {
    /// Build the table in one pass over the corpus's token occurrences.
    ///
    /// # Panics
    /// Panics if the corpus holds 2³² or more distinct (document, token)
    /// pairs (the offsets are 32-bit).
    pub fn build(corpus: &Corpus) -> Self {
        let vocab = corpus.interner().len();
        let mut df = vec![0u32; vocab];
        // `slot[t]` is the index of t's row in the document that last
        // contained it; a slot below the current document's first row is
        // stale, so nothing needs clearing between documents.
        let mut slot = vec![usize::MAX; vocab];
        let mut offsets = Vec::with_capacity(corpus.len() + 1);
        let mut rows: Vec<(TokenId, u32)> = Vec::new();
        offsets.push(0);
        for doc in corpus.documents() {
            let start = rows.len();
            for &(t, _) in &doc.tokens {
                let s = &mut slot[t.index()];
                if *s != usize::MAX && *s >= start {
                    rows[*s].1 += 1;
                } else {
                    *s = rows.len();
                    rows.push((t, 1));
                    df[t.index()] += 1;
                }
            }
            offsets.push(u32::try_from(rows.len()).expect("term rows exceed u32 offsets"));
        }
        TermRows { offsets, rows, df }
    }

    /// Number of documents covered.
    pub fn num_docs(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Document `doc`'s distinct tokens with their occurrence counts, in
    /// order of first occurrence.
    pub fn row(&self, doc: usize) -> &[(TokenId, u32)] {
        &self.rows[self.offsets[doc] as usize..self.offsets[doc + 1] as usize]
    }

    /// Document frequency by token id (as long as the corpus vocabulary).
    pub fn df(&self) -> &[u32] {
        &self.df
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_count_distinct_tokens_in_first_occurrence_order() {
        let corpus = Corpus::from_texts(&["c a c b a c", "", "b", "a a"]);
        let rows = TermRows::build(&corpus);
        let id = |s| corpus.token_id(s).unwrap();
        let (a, b, c) = (id("a"), id("b"), id("c"));
        assert_eq!(rows.num_docs(), 4);
        assert_eq!(rows.row(0), &[(c, 3), (a, 2), (b, 1)]);
        assert_eq!(rows.row(1), &[]);
        assert_eq!(rows.row(2), &[(b, 1)]);
        assert_eq!(rows.row(3), &[(a, 2)]);
        assert_eq!(rows.df()[a.index()], 2);
        assert_eq!(rows.df()[b.index()], 2);
        assert_eq!(rows.df()[c.index()], 1);
        assert_eq!(std::mem::size_of::<(TokenId, u32)>(), 8, "8 B per row");
    }

    #[test]
    fn empty_corpus_has_no_rows() {
        let rows = TermRows::build(&Corpus::new());
        assert_eq!(rows.num_docs(), 0);
        assert!(rows.df().is_empty());
    }
}
