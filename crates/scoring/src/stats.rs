//! Corpus statistics needed by the scoring formulas of Section 3.1.

use ftsl_index::{InvertedIndex, TermRows};
use ftsl_model::{Corpus, NodeId, TokenId};
use std::sync::Arc;

/// Precomputed per-corpus statistics: `df(t)`, `db_size`,
/// `unique_tokens(n)`, and the L2 norm `‖n‖₂` of every node's TF-IDF vector.
#[derive(Clone, Debug)]
pub struct ScoreStats {
    /// Number of context nodes (`db_size`).
    pub db_size: usize,
    /// Document frequency per token id. Shared (`Arc`) so the per-segment
    /// views of a live snapshot all reference one merged vector instead of
    /// cloning it per segment.
    df: Arc<Vec<usize>>,
    /// `unique_tokens(n)` per node.
    unique_tokens: Vec<usize>,
    /// `‖n‖₂` per node (L2 norm of the node's tf·idf vector).
    l2_norm: Vec<f64>,
    /// `max_n 1/(unique_tokens(n)·‖n‖₂)` over non-empty nodes — the
    /// node-dependent factor of the TF-IDF per-occurrence mass, maximized
    /// once so scored cursors can turn a term-frequency ceiling into a
    /// corpus-wide score upper bound.
    max_node_boost: f64,
}

impl ScoreStats {
    /// Compute statistics for a corpus and its index.
    ///
    /// Everything derives from the corpus's [`TermRows`] (built here and
    /// dropped afterwards) through the same routine a live snapshot uses
    /// per segment, so the static and live paths cannot drift apart.
    pub fn compute(corpus: &Corpus, index: &InvertedIndex) -> Self {
        let rows = TermRows::build(corpus);
        let df: Vec<usize> = rows.df().iter().map(|&d| d as usize).collect();
        debug_assert!(
            df.iter()
                .enumerate()
                .all(|(t, &d)| index.df(TokenId(t as u32)) == d),
            "index df disagrees with the corpus"
        );
        let idf = idf_table(corpus.len(), &df);
        Self::from_rows(&rows, Arc::new(df), &idf, corpus.len())
    }

    /// Per-node statistics for the documents of `rows` against
    /// collection-level numbers: `df` and `idf` by token id (both may be
    /// longer than the rows' vocabulary; `idf` is [`idf_table`] of `df`)
    /// and `db_size`.
    ///
    /// This is how one segment of a live index gets statistics that are
    /// correct for the *whole* collection: token ids are prefix-consistent
    /// across segments, so the merged `df` vector indexes directly, and
    /// since each row lists a document's tokens in first-occurrence order,
    /// every `unique_tokens`/`‖n‖₂` value comes out bit-identical to a
    /// monolithic index over the same live documents. Documents whose
    /// tokens have `df = 0` (possible only for tombstoned documents, whose
    /// tokens may survive nowhere) get an infinite norm — harmless, since
    /// nothing live ever reads their rows. Cost: one multiply-add per row.
    pub(crate) fn from_rows(
        rows: &TermRows,
        df: Arc<Vec<usize>>,
        idf: &[f64],
        db_size: usize,
    ) -> Self {
        debug_assert!(
            idf.len() >= rows.df().len(),
            "idf must cover the vocabulary"
        );
        let num_docs = rows.num_docs();
        let mut unique_tokens = Vec::with_capacity(num_docs);
        let mut l2_norm = Vec::with_capacity(num_docs);
        let mut max_node_boost = 0.0f64;
        for doc in 0..num_docs {
            let row = rows.row(doc);
            let unique = row.len().max(1);
            let mut sum_sq = 0.0;
            for &(t, count) in row {
                let tf = f64::from(count) / unique as f64;
                let w = tf * idf[t.index()];
                sum_sq += w * w;
            }
            unique_tokens.push(unique);
            let norm = if sum_sq > 0.0 { sum_sq.sqrt() } else { 1.0 };
            l2_norm.push(norm);
            if sum_sq > 0.0 {
                max_node_boost = max_node_boost.max(1.0 / (unique as f64 * norm));
            }
        }
        ScoreStats {
            db_size,
            df,
            unique_tokens,
            l2_norm,
            max_node_boost,
        }
    }

    /// `df(t)`: number of nodes containing the token (0 if out of
    /// vocabulary).
    pub fn df(&self, token: TokenId) -> usize {
        self.df.get(token.index()).copied().unwrap_or(0)
    }

    /// `idf(t) = ln(1 + db_size/df(t))` (Section 3.1); 0 for unseen tokens.
    pub fn idf(&self, token: TokenId) -> f64 {
        let df = self.df(token);
        if df == 0 {
            0.0
        } else {
            idf_value(self.db_size, df)
        }
    }

    /// `unique_tokens(n)`.
    pub fn unique_tokens(&self, node: NodeId) -> usize {
        self.unique_tokens[node.index()]
    }

    /// `‖n‖₂`.
    pub fn l2_norm(&self, node: NodeId) -> f64 {
        self.l2_norm[node.index()]
    }

    /// `max_n 1/(unique_tokens(n)·‖n‖₂)` over non-empty nodes (0 for an
    /// empty corpus): multiplied by a token weight and a term-frequency
    /// ceiling it bounds any node's TF-IDF contribution from that token,
    /// which is what makes list- and block-level top-k pruning sound.
    pub fn max_node_boost(&self) -> f64 {
        self.max_node_boost
    }
}

pub(crate) fn idf_value(db_size: usize, df: usize) -> f64 {
    (1.0 + db_size as f64 / df as f64).ln()
}

/// [`idf_value`] for every token id, taken as is: `df = 0` entries come out
/// infinite (or NaN when `db_size` is 0 too), which is what the norm of a
/// tombstoned document holding a token no live document has always used.
/// Readers of a *token's* idf must map `df = 0` to 0 themselves.
pub(crate) fn idf_table(db_size: usize, df: &[usize]) -> Vec<f64> {
    df.iter().map(|&d| idf_value(db_size, d)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsl_index::IndexBuilder;

    #[test]
    fn df_and_idf_follow_the_formulas() {
        let corpus = Corpus::from_texts(&["a b", "a", "c"]);
        let index = IndexBuilder::new().build(&corpus);
        let stats = ScoreStats::compute(&corpus, &index);
        let a = corpus.token_id("a").unwrap();
        let c = corpus.token_id("c").unwrap();
        assert_eq!(stats.df(a), 2);
        assert_eq!(stats.df(c), 1);
        assert!((stats.idf(a) - (1.0f64 + 3.0 / 2.0).ln()).abs() < 1e-12);
        // Rarer tokens have higher idf.
        assert!(stats.idf(c) > stats.idf(a));
    }

    #[test]
    fn unique_tokens_and_norms() {
        let corpus = Corpus::from_texts(&["a a b", ""]);
        let index = IndexBuilder::new().build(&corpus);
        let stats = ScoreStats::compute(&corpus, &index);
        assert_eq!(stats.unique_tokens(NodeId(0)), 2);
        assert!(stats.l2_norm(NodeId(0)) > 0.0);
        // Empty nodes get a safe norm of 1.
        assert_eq!(stats.l2_norm(NodeId(1)), 1.0);
    }

    #[test]
    fn out_of_vocabulary_token_scores_zero() {
        let corpus = Corpus::from_texts(&["a"]);
        let index = IndexBuilder::new().build(&corpus);
        let stats = ScoreStats::compute(&corpus, &index);
        assert_eq!(stats.idf(TokenId(999)), 0.0);
    }
}
