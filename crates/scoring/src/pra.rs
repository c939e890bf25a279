//! Probabilistic scoring (Section 3.2): the probabilistic relational algebra
//! adapted to full-text relations.
//!
//! Tuple scores are probabilities in `[0, 1]`. The initial score of an
//! `R_token` tuple is `IDF/NF` as the paper suggests — we normalize by the
//! maximum possible idf (`ln(1 + db_size)`, attained at `df = 1`) so scores
//! land in `(0, 1]`.

use crate::stats::ScoreStats;
use crate::ScoringModel;
use ftsl_model::{NodeId, Position};
use ftsl_predicates::Predicate;

/// Probabilistic relational algebra scoring.
#[derive(Clone, Debug)]
pub struct PraModel {
    /// Precomputed normalization factor `ln(1 + db_size)`.
    max_idf: f64,
    idf_lookup: std::collections::HashMap<String, f64>,
}

impl PraModel {
    /// Build the model for a query's search tokens over a corpus. Only
    /// those tokens are looked up ([`ScoringModel::token_tuple`] is never
    /// asked about any other), so the cost follows the query, not the
    /// vocabulary.
    pub fn for_query<S: AsRef<str>>(
        tokens: &[S],
        corpus: &ftsl_model::Corpus,
        stats: &ScoreStats,
    ) -> Self {
        Self::for_query_with_idf(
            tokens,
            |name| corpus.token_id(name).map_or(0.0, |id| stats.idf(id)),
            stats.db_size,
        )
    }

    /// Build the model from an arbitrary idf source and a collection size —
    /// how a live snapshot supplies collection-wide values spanning every
    /// segment's vocabulary.
    pub fn for_query_with_idf<S: AsRef<str>>(
        tokens: &[S],
        idf_of: impl Fn(&str) -> f64,
        db_size: usize,
    ) -> Self {
        let idf_lookup = tokens
            .iter()
            .map(|t| {
                let name = t.as_ref();
                (name.to_string(), idf_of(name))
            })
            .collect();
        PraModel {
            max_idf: (1.0 + db_size as f64).ln(),
            idf_lookup,
        }
    }
}

impl ScoringModel for PraModel {
    fn token_tuple(&self, token: &str, _node: NodeId, _stats: &ScoreStats) -> f64 {
        let idf = self.idf_lookup.get(token).copied().unwrap_or(0.0);
        if self.max_idf > 0.0 {
            (idf / self.max_idf).clamp(0.0, 1.0)
        } else {
            0.0
        }
    }

    fn any_tuple(&self) -> f64 {
        1.0
    }

    fn context_tuple(&self) -> f64 {
        1.0
    }

    fn join(&self, s1: f64, s2: f64, _left_group: usize, _right_group: usize) -> f64 {
        s1 * s2
    }

    fn project(&self, scores: &[f64]) -> f64 {
        // 1 − ∏(1 − sᵢ): probabilistic OR of the collapsing tuples.
        1.0 - scores.iter().fold(1.0, |acc, &s| acc * (1.0 - s))
    }

    fn select(&self, s: f64, pred: &dyn Predicate, args: &[Position], consts: &[i64]) -> f64 {
        // The paper's example: f = 1 − |p1 − p2|/dist for the distance
        // predicate; other predicates keep f = 1.
        let f = if pred.name() == "distance" && args.len() == 2 && !consts.is_empty() {
            let dist = consts[0].max(1) as f64;
            let delta = f64::from(args[0].intervening(&args[1]));
            (1.0 - delta / dist).clamp(0.0, 1.0)
        } else {
            1.0
        };
        s * f
    }

    fn union(&self, s1: Option<f64>, s2: Option<f64>) -> f64 {
        let a = s1.unwrap_or(0.0);
        let b = s2.unwrap_or(0.0);
        1.0 - (1.0 - a) * (1.0 - b)
    }

    fn intersect(&self, s1: f64, s2: f64) -> f64 {
        s1 * s2
    }

    fn difference(&self, s1: f64) -> f64 {
        // Expr1 − Expr2 = Expr1 ∩ ¬Expr2; surviving tuples are absent from
        // Expr2 (score 0 there), so ¬Expr2 contributes factor 1.
        s1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsl_index::IndexBuilder;
    use ftsl_model::Corpus;

    fn model() -> (Corpus, ScoreStats, PraModel) {
        let corpus = Corpus::from_texts(&["a b", "a", "c d e"]);
        let index = IndexBuilder::new().build(&corpus);
        let stats = ScoreStats::compute(&corpus, &index);
        let tokens: Vec<&str> = corpus.interner().iter().map(|(_, name)| name).collect();
        let model = PraModel::for_query(&tokens, &corpus, &stats);
        (corpus, stats, model)
    }

    #[test]
    fn tuple_scores_are_probabilities() {
        let (corpus, stats, model) = model();
        for (_, name) in corpus.interner().iter() {
            let s = model.token_tuple(name, NodeId(0), &stats);
            assert!((0.0..=1.0).contains(&s), "{name}: {s}");
            assert!(s > 0.0);
        }
        // Rarer tokens score higher.
        assert!(
            model.token_tuple("c", NodeId(2), &stats) > model.token_tuple("a", NodeId(0), &stats)
        );
    }

    #[test]
    fn tokens_outside_the_query_score_zero() {
        let (corpus, stats, _) = model();
        let model = PraModel::for_query(&["a", "zzz"], &corpus, &stats);
        assert!(model.token_tuple("a", NodeId(0), &stats) > 0.0);
        assert_eq!(model.token_tuple("zzz", NodeId(0), &stats), 0.0);
        assert_eq!(model.token_tuple("c", NodeId(2), &stats), 0.0);
    }

    #[test]
    fn transformations_stay_in_unit_interval() {
        let (_, _, model) = model();
        assert!((model.join(0.7, 0.9, 3, 4) - 0.63).abs() < 1e-12);
        assert!((model.project(&[0.5, 0.5]) - 0.75).abs() < 1e-12);
        assert!((model.union(Some(0.5), Some(0.5)) - 0.75).abs() < 1e-12);
        assert_eq!(model.union(Some(0.4), None), 0.4);
        assert!((model.intersect(0.5, 0.5) - 0.25).abs() < 1e-12);
        assert_eq!(model.difference(0.8), 0.8);
    }

    #[test]
    fn distance_selection_scales_by_gap() {
        let (_, _, model) = model();
        let reg = ftsl_predicates::PredicateRegistry::with_builtins();
        let distance = reg.get(reg.lookup("distance").unwrap());
        let close = [Position::flat(0), Position::flat(1)];
        let far = [Position::flat(0), Position::flat(5)];
        let s_close = model.select(1.0, distance, &close, &[5]);
        let s_far = model.select(1.0, distance, &far, &[5]);
        assert!(s_close > s_far);
        assert!((0.0..=1.0).contains(&s_far));
    }
}
