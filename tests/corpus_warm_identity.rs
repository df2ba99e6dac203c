//! The persistent corpus must be invisible in every output (engine
//! v7): a warm re-run replays row-identical reports with every
//! instruction served from the corpus, and a corrupted corpus file
//! silently degrades to a cold run — same rows, no panic. Only the
//! metrics (corpus hit/miss counters) may, and must, differ.
//!
//! Since format v3 a warm campaign decodes only the outcome section
//! and re-saves unchanged sections from their loaded bytes. The golden
//! tests below pin that shortcut to the eager semantics: in every case
//! the bytes `save_corpus` leaves on disk equal `file::encode` of the
//! previous file, fully decoded, merged with everything the campaign
//! holds.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use igjit::{
    Campaign, CampaignConfig, CampaignReport, CompilerKind, ExplorationCache, Explorer,
    InstrUnderTest, Isa, NativeMethodId, Target,
};
use igjit_corpus::{Corpus, Image, SaveOutcome, Section};

fn assert_row_identical(a: &CampaignReport, b: &CampaignReport) {
    assert_eq!(a.row, b.row);
    assert_eq!(a.causes(), b.causes());
    assert_eq!(a.causes_by_category(), b.causes_by_category());
    assert_eq!(a.outcomes.len(), b.outcomes.len());
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(x.causes(), y.causes());
        assert_eq!(x.paths_found, y.paths_found);
        assert_eq!(x.curated, y.curated);
        assert_eq!(x.witness_errors, y.witness_errors);
        assert_eq!(x.verdicts.len(), y.verdicts.len());
        for (va, vb) in x.verdicts.iter().zip(&y.verdicts) {
            assert_eq!(va.interp_exit, vb.interp_exit);
            assert_eq!(va.verdict.is_difference(), vb.verdict.is_difference());
            assert_eq!(va.cause, vb.cause);
            assert_eq!(va.found_by_probe, vb.found_by_probe);
            assert_eq!(va.isa, vb.isa);
        }
    }
}

/// A scratch corpus path that cleans up after itself.
struct ScratchCorpus(PathBuf);

impl ScratchCorpus {
    fn new(tag: &str) -> ScratchCorpus {
        let path = std::env::temp_dir()
            .join(format!("igjit-test-{tag}-{}.corpus", std::process::id()));
        let _ = std::fs::remove_file(&path);
        ScratchCorpus(path)
    }
}

impl Drop for ScratchCorpus {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn config(corpus: Option<PathBuf>) -> CampaignConfig {
    CampaignConfig { isas: vec![Isa::X86ish], probes: false, threads: 1, corpus }
}

#[test]
fn warm_rerun_is_row_identical_and_fully_corpus_served() {
    let scratch = ScratchCorpus::new("warm");

    // Reference run without any corpus involvement.
    let reference = Campaign::new(config(None)).run_bytecodes(CompilerKind::SimpleStackBased);

    // Cold run: empty corpus, every instruction is a miss, then save.
    let cold_campaign = Campaign::new(config(Some(scratch.0.clone())));
    assert!(cold_campaign.corpus_load_stats().expect("corpus attached").cold);
    let cold = cold_campaign.run_bytecodes(CompilerKind::SimpleStackBased);
    assert_row_identical(&reference, &cold);
    assert_eq!(cold.metrics.corpus_hits, 0);
    assert_eq!(cold.metrics.corpus_misses, cold.row.tested_instructions);
    let outcome = cold_campaign.save_corpus().expect("corpus attached").expect("save succeeds");
    assert!(matches!(outcome, igjit_corpus::SaveOutcome::Written { .. }));

    // Warm run: a fresh campaign over the saved file replays the row
    // without recomputing a single instruction.
    let warm_campaign = Campaign::new(config(Some(scratch.0.clone())));
    let stats = warm_campaign.corpus_load_stats().expect("corpus attached");
    assert!(!stats.cold, "saved corpus must load warm: {:?}", stats.warnings);
    assert_eq!(stats.outcomes, cold.row.tested_instructions);
    let warm = warm_campaign.run_bytecodes(CompilerKind::SimpleStackBased);
    assert_row_identical(&reference, &warm);
    assert_eq!(warm.metrics.corpus_hits, warm.row.tested_instructions);
    assert_eq!(warm.metrics.corpus_misses, 0);
    // A fully warm sweep never needs the exploration or code sections,
    // so it never decodes them.
    assert_eq!(warm_campaign.cache().len(), 0);
    assert_eq!(warm_campaign.code_cache().len(), 0);

    // Re-saving an unchanged corpus must not rewrite the file.
    let outcome = warm_campaign.save_corpus().expect("corpus attached").expect("save succeeds");
    assert!(matches!(outcome, igjit_corpus::SaveOutcome::Unchanged));
}

#[test]
fn corrupted_corpus_degrades_to_a_cold_run_with_identical_rows() {
    let scratch = ScratchCorpus::new("corrupt");

    let reference = Campaign::new(config(None)).run_bytecodes(CompilerKind::SimpleStackBased);

    let cold_campaign = Campaign::new(config(Some(scratch.0.clone())));
    cold_campaign.run_bytecodes(CompilerKind::SimpleStackBased);
    cold_campaign.save_corpus().expect("corpus attached").expect("save succeeds");

    // Flip a byte in the middle of the file: the damaged section's
    // checksum fails and the run recomputes it — same rows, no panic.
    let mut bytes = std::fs::read(&scratch.0).expect("corpus written");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&scratch.0, &bytes).expect("rewrite");

    let damaged_campaign = Campaign::new(config(Some(scratch.0.clone())));
    let damaged = damaged_campaign.run_bytecodes(CompilerKind::SimpleStackBased);
    assert_row_identical(&reference, &damaged);
    assert_eq!(damaged.metrics.corpus_hits + damaged.metrics.corpus_misses,
               damaged.row.tested_instructions);

    // Truncation likewise: keep the header plus half a section.
    std::fs::write(&scratch.0, &bytes[..bytes.len() / 3]).expect("truncate");
    let truncated_campaign = Campaign::new(config(Some(scratch.0.clone())));
    let truncated = truncated_campaign.run_bytecodes(CompilerKind::SimpleStackBased);
    assert_row_identical(&reference, &truncated);
}

// ------------------------------------------------------- golden saves

fn fingerprints() -> igjit_corpus::Fingerprints {
    let cfg = config(None);
    igjit_corpus::fingerprints(cfg.probes, &cfg.isas)
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).expect("corpus file exists")
}

/// A corpus file holding one cold SimpleStackBased row (every section
/// populated), and its bytes.
fn base_corpus(tag: &str) -> (ScratchCorpus, Vec<u8>) {
    let scratch = ScratchCorpus::new(tag);
    let cold = Campaign::new(config(Some(scratch.0.clone())));
    cold.run_bytecodes(CompilerKind::SimpleStackBased);
    let saved = cold.save_corpus().expect("corpus attached").expect("save succeeds");
    assert!(matches!(saved, SaveOutcome::Written { .. }));
    let bytes = read(&scratch.0);
    (scratch, bytes)
}

/// What the eager save wrote: `before`'s accepted sections, fully
/// decoded, merged with the campaign's exploration and code caches and
/// with the outcomes of the rows it ran.
fn merged_encoding(
    before: &[u8],
    campaign: &Campaign,
    rows: &[(Target, &CampaignReport)],
) -> Vec<u8> {
    let fps = fingerprints();
    let (file, _) = igjit_corpus::file::decode(before, &fps);
    let mut explorations: HashMap<_, _> = file.explorations.into_iter().collect();
    for (key, exploration) in campaign.cache().snapshot() {
        explorations.entry(key).or_insert(exploration);
    }
    let mut code: HashMap<_, _> = file.code.into_iter().collect();
    for (key, entry) in campaign.code_cache().snapshot() {
        code.entry(key).or_insert_with(|| (*entry).clone());
    }
    let mut outcomes: HashMap<_, _> = file.outcomes.into_iter().collect();
    for (target, report) in rows {
        for o in &report.outcomes {
            outcomes.entry((*target, o.instruction)).or_insert_with(|| o.clone());
        }
    }
    let merged = Corpus {
        explorations: explorations.into_iter().collect(),
        code: code.into_iter().collect(),
        outcomes: outcomes.into_iter().collect(),
    };
    igjit_corpus::file::encode(&merged, &fps)
}

/// Where `section`'s payload lies in a file image.
fn payload_range(bytes: &[u8], section: Section) -> std::ops::Range<usize> {
    let (image, _) = Image::parse(bytes.to_vec(), &fingerprints());
    let payload = image.payload(section).expect("section accepted");
    let start = payload.as_ptr() as usize - image.bytes().as_ptr() as usize;
    start..start + payload.len()
}

const SIMPLE: Target = Target::Bytecode(CompilerKind::SimpleStackBased);
const STACK: Target = Target::Bytecode(CompilerKind::StackToRegister);
const NATIVE: Target = Target::NativeMethods;

#[test]
fn golden_save_fully_warm_and_unchanged() {
    let (scratch, before) = base_corpus("golden-warm");
    // Files `encode` writes decode and re-encode to themselves.
    let (decoded, _) = igjit_corpus::file::decode(&before, &fingerprints());
    assert_eq!(igjit_corpus::file::encode(&decoded, &fingerprints()), before);

    let warm = Campaign::new(config(Some(scratch.0.clone())));
    let report = warm.run_bytecodes(CompilerKind::SimpleStackBased);
    assert_eq!(report.metrics.corpus_hits, report.row.tested_instructions);
    assert_eq!((warm.cache().len(), warm.code_cache().len()), (0, 0));
    let saved = warm.save_corpus().expect("corpus attached").expect("save succeeds");
    assert_eq!(saved, SaveOutcome::Unchanged);
    assert_eq!(read(&scratch.0), merged_encoding(&before, &warm, &[(SIMPLE, &report)]));
    assert_eq!(read(&scratch.0), before);
}

#[test]
fn golden_save_with_new_outcomes_recorded() {
    let (scratch, before) = base_corpus("golden-new");
    let warm = Campaign::new(config(Some(scratch.0.clone())));
    let simple = warm.run_bytecodes(CompilerKind::SimpleStackBased);
    let stack = warm.run_bytecodes(CompilerKind::StackToRegister);
    assert_eq!(stack.metrics.corpus_misses, stack.row.tested_instructions);
    // The first miss brought the loaded explorations in: no re-explore.
    assert_eq!(stack.metrics.cache_misses, 0);
    let saved = warm.save_corpus().expect("corpus attached").expect("save succeeds");
    assert!(matches!(saved, SaveOutcome::Written { .. }));
    let expected = merged_encoding(&before, &warm, &[(SIMPLE, &simple), (STACK, &stack)]);
    assert_eq!(read(&scratch.0), expected);
}

#[test]
fn golden_save_with_stale_outcomes_and_warm_explorations() {
    let (scratch, mut before) = base_corpus("golden-stale");
    // The outcome fingerprint sits 24 bytes before its payload (after
    // the tag byte); flipping it makes the section stale, not corrupt.
    let fingerprint_at = payload_range(&before, Section::Outcomes).start - 24;
    before[fingerprint_at] ^= 0x01;
    std::fs::write(&scratch.0, &before).expect("patch");

    let warm = Campaign::new(config(Some(scratch.0.clone())));
    let stats = warm.corpus_load_stats().expect("corpus attached");
    assert_eq!(stats.stale_sections, 1);
    assert!(stats.warnings.is_empty(), "{:?}", stats.warnings);
    let report = warm.run_bytecodes(CompilerKind::SimpleStackBased);
    assert_eq!(report.metrics.corpus_misses, report.row.tested_instructions);
    assert_eq!(report.metrics.cache_misses, 0, "explorations replay from the file");
    let saved = warm.save_corpus().expect("corpus attached").expect("save succeeds");
    assert!(matches!(saved, SaveOutcome::Written { .. }));
    assert_eq!(read(&scratch.0), merged_encoding(&before, &warm, &[(SIMPLE, &report)]));
}

#[test]
fn golden_save_with_one_section_corrupted() {
    let (scratch, mut before) = base_corpus("golden-corrupt");
    let code = payload_range(&before, Section::Code);
    before[(code.start + code.end) / 2] ^= 0x10;
    std::fs::write(&scratch.0, &before).expect("corrupt");

    let warm = Campaign::new(config(Some(scratch.0.clone())));
    let stats = warm.corpus_load_stats().expect("corpus attached");
    assert!(stats.warnings.iter().any(|w| w.contains("failed its checksum")), "{stats:?}");
    let report = warm.run_bytecodes(CompilerKind::SimpleStackBased);
    assert_eq!(report.metrics.corpus_hits, report.row.tested_instructions);
    let saved = warm.save_corpus().expect("corpus attached").expect("save succeeds");
    assert!(matches!(saved, SaveOutcome::Written { .. }));
    assert_eq!(read(&scratch.0), merged_encoding(&before, &warm, &[(SIMPLE, &report)]));
}

#[test]
fn golden_save_with_a_non_empty_shared_exploration_cache() {
    let (scratch, before) = base_corpus("golden-shared");
    let shared = Arc::new(ExplorationCache::new());
    shared.get_or_explore(&Explorer::new(), InstrUnderTest::Native(NativeMethodId(1)), false);
    let warm = Campaign::with_exploration_cache(config(Some(scratch.0.clone())), Arc::clone(&shared));
    // A non-empty shared cache gets the file's entries at attach, as
    // it always has.
    let file_entries = warm.corpus_load_stats().expect("corpus attached").explorations;
    assert_eq!(shared.len(), file_entries + 1);
    assert!(!warm.code_cache().is_empty());
    let report = warm.run_bytecodes(CompilerKind::SimpleStackBased);
    let saved = warm.save_corpus().expect("corpus attached").expect("save succeeds");
    assert!(matches!(saved, SaveOutcome::Written { .. }), "the native exploration is new");
    assert_eq!(read(&scratch.0), merged_encoding(&before, &warm, &[(SIMPLE, &report)]));
}

#[test]
fn golden_save_twice_in_a_row() {
    let (scratch, before) = base_corpus("golden-twice");
    let warm = Campaign::new(config(Some(scratch.0.clone())));
    let stack = warm.run_bytecodes(CompilerKind::StackToRegister);
    let saved = warm.save_corpus().expect("corpus attached").expect("save succeeds");
    assert!(matches!(saved, SaveOutcome::Written { .. }));
    let first = read(&scratch.0);
    assert_eq!(first, merged_encoding(&before, &warm, &[(STACK, &stack)]));

    // Natives are new to every section, the loaded explorations
    // included.
    let explorations = warm.cache().len();
    let natives = warm.run_native_methods();
    assert!(warm.cache().len() > explorations);
    let saved = warm.save_corpus().expect("corpus attached").expect("save succeeds");
    assert!(matches!(saved, SaveOutcome::Written { .. }));
    let second = read(&scratch.0);
    assert_eq!(second, merged_encoding(&first, &warm, &[(STACK, &stack), (NATIVE, &natives)]));

    // Nothing new since: the written image is the baseline, and the
    // file is left alone.
    let saved = warm.save_corpus().expect("corpus attached").expect("save succeeds");
    assert_eq!(saved, SaveOutcome::Unchanged);
    assert_eq!(read(&scratch.0), second);
}
