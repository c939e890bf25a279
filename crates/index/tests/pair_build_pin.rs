//! Byte-identity pin for index construction.
//!
//! The persisted image of an index built from a fixed synthetic corpus is
//! hashed and compared against a constant recorded before the word-pair
//! build was rewritten from hashing to sorting. Any change to the bytes a
//! build writes (keys, pair blocks, headers, coverage bitmap, postings)
//! fails here, so an "equivalent" rebuild of the construction path has to
//! be equivalent down to the last byte.

use ftsl_corpus::synth::SynthConfig;
use ftsl_index::{persist, IndexBuilder};

/// FNV-1a, 64-bit: tiny, dependency-free and stable across toolchains
/// (unlike `std`'s default hasher, whose algorithm is unspecified).
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn inex_like_image_is_byte_identical_to_the_recorded_build() {
    // 200 documents of 400 Zipf tokens: the most frequent pairs occur in
    // more than 128 documents, so multi-block pair lists are covered.
    let corpus = SynthConfig::inex_like(200).build();
    let index = IndexBuilder::new().threads(1).build(&corpus);
    let image = persist::encode(&index);
    let pairs = index.pairs();
    assert!(
        pairs.iter().any(|(_, _, list)| list.num_blocks() > 1),
        "the pin must cover pair lists spanning blocks"
    );
    assert_eq!(
        (pairs.num_keys(), pairs.num_entries(), image.len()),
        (404_731, 757_548, 20_358_202)
    );
    assert_eq!(fnv1a64(image.as_slice()), 0xea98_3f01_35db_e05b);
}
