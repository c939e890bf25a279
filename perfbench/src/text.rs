//! Structured synthetic text: INEX-like documents rendered with sentence
//! terminators and blank-line paragraphs, so the tokenizer gives every
//! token the sentence and paragraph ordinals the generator chose.
//!
//! Flattening a generated document into one space-separated line makes it a
//! single sentence and a single paragraph, and then `samesent`,
//! `not_samesent`, `samepara` and `not_samepara` measure nothing.

use ftsl_corpus::SynthConfig;
use ftsl_model::{Corpus, Document, TokenInterner};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Planted tokens: `(name, share of documents holding it, occurrences per
/// holding document)`. Every workload's corpus carries all three, so the
/// query families can name them on any seed.
pub const PLANTED: [(&str, f64, usize); 3] =
    [("common", 0.40, 4), ("mid", 0.15, 3), ("rare", 0.03, 3)];

/// Generate `docs` INEX-like documents of about `tokens_per_doc` tokens
/// each. The same `(docs, tokens_per_doc, seed)` gives the same corpus.
pub fn synth_corpus(docs: usize, tokens_per_doc: usize, seed: u64) -> Corpus {
    let mut config = SynthConfig::inex_like(docs);
    config.tokens_per_doc = tokens_per_doc;
    config.seed = seed;
    for (name, share, occurrences) in PLANTED {
        config = config.plant(name, share, occurrences);
    }
    config.build()
}

/// Render one generated document as text whose tokenization reproduces
/// the document's token sequence and `Position`s exactly: `.` closes a
/// sentence and `.` plus a blank line closes a paragraph.
pub fn render(doc: &Document, interner: &TokenInterner) -> String {
    let mut text = String::with_capacity(doc.tokens.len() * 6);
    let mut prev: Option<(u32, u32)> = None;
    for &(token, pos) in &doc.tokens {
        match prev {
            None => {}
            Some((_, para)) if para != pos.paragraph => text.push_str(".\n\n"),
            Some((sent, _)) if sent != pos.sentence => text.push_str(". "),
            Some(_) => text.push(' '),
        }
        text.push_str(interner.name(token));
        prev = Some((pos.sentence, pos.paragraph));
    }
    if prev.is_some() {
        text.push('.');
    }
    text
}

/// Every document of `corpus`, rendered.
pub fn render_all(corpus: &Corpus) -> Vec<String> {
    corpus
        .documents()
        .iter()
        .map(|d| render(d, corpus.interner()))
        .collect()
}

/// `synth_corpus` rendered to texts.
pub fn synth_texts(docs: usize, tokens_per_doc: usize, seed: u64) -> Vec<String> {
    render_all(&synth_corpus(docs, tokens_per_doc, seed))
}

/// Total bytes of a set of texts.
pub fn bytes_of<S: AsRef<str>>(texts: &[S]) -> usize {
    texts.iter().map(|t| t.as_ref().len()).sum()
}

/// Derive an independent seed for one purpose from the run seed, so that
/// corpus, queries and arrival schedules do not share random streams.
pub fn sub_seed(seed: u64, purpose: u64) -> u64 {
    let mut x = seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The seeded generator of query and schedule choices.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(sub_seed(seed, 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsl_model::Tokenizer;

    #[test]
    fn rendered_text_tokenizes_to_the_generated_positions() {
        let corpus = synth_corpus(40, 120, 7);
        let mut interner = TokenInterner::new();
        for doc in corpus.documents() {
            let text = render(doc, corpus.interner());
            let tokens = Tokenizer::new().tokenize(&text, &mut interner);
            assert_eq!(tokens.len(), doc.tokens.len());
            for (&(got, got_pos), &(want, want_pos)) in tokens.iter().zip(&doc.tokens) {
                assert_eq!(interner.name(got), corpus.interner().name(want));
                assert_eq!(got_pos, want_pos);
            }
        }
    }

    #[test]
    fn documents_have_several_sentences_and_paragraphs() {
        let corpus = synth_corpus(5, 150, 1);
        for doc in corpus.documents() {
            let last = doc.tokens.last().expect("non-empty document").1;
            assert!(last.sentence >= 5, "{last:?}");
            assert!(last.paragraph >= 1, "{last:?}");
        }
    }
}
