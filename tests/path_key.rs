//! The negation walk's structural path key agrees with the `{:?}` text
//! signature it replaced: over every path the walk records, two paths
//! have equal [`PathKey`]s exactly when their path conditions and
//! outcome variants print the same. The text survives only here, as
//! the reference.

use std::collections::HashMap;

use igjit::native_catalog;
use igjit_bytecode::{instruction_catalog, Instruction};
use igjit_concolic::{ExplorationResult, Explorer, InstrUnderTest, PathKey};
use igjit_difftest::SEQUENCE_POOL;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The signature the walk deduplicated by before the structural key.
fn text_signature(path: &igjit_concolic::ExploredPath) -> String {
    let disc = std::mem::discriminant(&path.outcome);
    format!("{:?}|{disc:?}", path.constraints)
}

/// Checks that key classes and text classes partition the recorded
/// paths of `results` identically; returns (paths, distinct classes).
fn assert_key_classes_are_text_classes(results: &[ExplorationResult]) -> (usize, usize) {
    let paths: Vec<_> = results.iter().flat_map(|r| &r.paths).collect();
    let mut by_key: HashMap<PathKey<'_>, usize> = HashMap::new();
    let mut by_text: HashMap<String, usize> = HashMap::new();
    for (i, p) in paths.iter().enumerate() {
        let key_class = *by_key.entry(PathKey::of(p)).or_insert(i);
        let text_class = *by_text.entry(text_signature(p)).or_insert(i);
        assert_eq!(
            key_class, text_class,
            "path {i} ({:?}) keys with path {key_class} but prints like path {text_class}",
            p.constraints
        );
    }
    assert_eq!(by_key.len(), by_text.len());
    (paths.len(), by_key.len())
}

fn explore_sequences(sequences: &[Vec<Instruction>]) -> Vec<ExplorationResult> {
    let explorer = Explorer::new();
    sequences
        .iter()
        .map(|s| explorer.explore_sequence(s).expect("non-empty"))
        .collect()
}

fn pairs() -> Vec<Vec<Instruction>> {
    SEQUENCE_POOL
        .iter()
        .flat_map(|&a| SEQUENCE_POOL.iter().map(move |&b| vec![a, b]))
        .collect()
}

#[test]
fn key_equality_is_text_equality_over_catalog_and_sampled_sequences() {
    let explorer = Explorer::new();
    let mut results: Vec<ExplorationResult> = instruction_catalog()
        .into_iter()
        .map(|s| InstrUnderTest::Bytecode(s.instruction))
        .chain(native_catalog().into_iter().map(|s| InstrUnderTest::Native(s.id)))
        .map(|i| explorer.explore(i))
        .collect();
    // All 576 pairs, and one seeded third instruction after each pair:
    // a 576-sequence sample of the 13,824 triples.
    let mut rng = StdRng::seed_from_u64(23);
    let mut sequences = pairs();
    let triples: Vec<Vec<Instruction>> = sequences
        .iter()
        .map(|p| {
            let mut t = p.clone();
            t.push(SEQUENCE_POOL[rng.gen_range(0..SEQUENCE_POOL.len())]);
            t
        })
        .collect();
    sequences.extend(triples);
    results.extend(explore_sequences(&sequences));
    let (paths, classes) = assert_key_classes_are_text_classes(&results);
    // Distinct sequences share paths (a constant push records no
    // constraint), so the classes must actually merge somewhere.
    assert!(classes < paths, "{classes} classes over {paths} paths");
}

/// Every two- and three-instruction pool sequence (14,400); run it
/// with `cargo test --release --test path_key -- --ignored`.
#[test]
#[ignore]
fn key_equality_is_text_equality_over_every_short_pool_sequence() {
    let mut sequences = pairs();
    let triples: Vec<Vec<Instruction>> = sequences
        .iter()
        .flat_map(|p| {
            SEQUENCE_POOL.iter().map(move |&c| {
                let mut t = p.clone();
                t.push(c);
                t
            })
        })
        .collect();
    sequences.extend(triples);
    assert_eq!(sequences.len(), 14_400);
    let (paths, classes) = assert_key_classes_are_text_classes(&explore_sequences(&sequences));
    println!("{} sequences, {paths} recorded paths, {classes} distinct keys", sequences.len());
}
