//! Index-construction scaling probe over an INEX-like corpus, at a few
//! corpus sizes: wall time of sequential vs sharded full builds, then the
//! build split into its two parts — postings only
//! (`PairConfig::disabled()`) and the word-pair index on its own — with
//! the pair build's throughput in pair entries per second.
//!
//! ```text
//! cargo run --release -p ftsl-bench --bin build-scaling
//! ```

use ftsl_corpus::SynthConfig;
use ftsl_index::{IndexBuilder, PairConfig, PairIndex};
use std::time::{Duration, Instant};

/// Warm once, then take the best of 3 to damp scheduler noise. Only one
/// output is alive at a time, so a large corpus needs memory for a single
/// index.
fn best_of_3<T>(mut run: impl FnMut() -> T) -> (Duration, T) {
    let mut out = run();
    let mut best = Duration::MAX;
    for _ in 0..3 {
        drop(out);
        let start = Instant::now();
        out = run();
        best = best.min(start.elapsed());
    }
    (best, out)
}

fn main() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("cores: {cores}");
    for cnodes in [1_000usize, 4_000, 12_000] {
        let corpus = SynthConfig::inex_like(cnodes).build();
        let mut line = format!("cnodes {cnodes:>6}:");
        for threads in [1, cores] {
            let builder = IndexBuilder::new().threads(threads);
            let (best, index) = best_of_3(|| builder.build(&corpus));
            assert_eq!(index.stats().cnodes, cnodes);
            line.push_str(&format!("  {threads:>2} thread(s) {best:>8.1?}"));
        }
        println!("{line}");

        let postings_builder = IndexBuilder::new()
            .threads(1)
            .pair_config(PairConfig::disabled());
        let (postings_t, postings) = best_of_3(|| postings_builder.build(&corpus));
        let dfs: Vec<u32> = (0..postings.num_tokens())
            .map(|t| postings.df(ftsl_model::TokenId(t as u32)) as u32)
            .collect();
        drop(postings);
        let (pairs_t, pairs) =
            best_of_3(|| PairIndex::build(corpus.documents(), &dfs, PairConfig::default()));
        let entries = pairs.num_entries();
        println!(
            "              postings {postings_t:>8.1?}  pairs {pairs_t:>8.1?}  \
             ({:.0}% of the build; {} keys, {entries} entries, {:.2} M entries/s)",
            100.0 * pairs_t.as_secs_f64() / (postings_t + pairs_t).as_secs_f64(),
            pairs.num_keys(),
            entries as f64 / pairs_t.as_secs_f64() / 1e6,
        );
    }
}
