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
//!
//! A corpus file is untrusted input. The last tests flip bits inside
//! its payloads and re-seal the section checksums, so that the damage
//! reaches the decoders and the campaign; neither may panic or abort.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use igjit::{
    Campaign, CampaignConfig, CampaignReport, CompilerKind, ExplorationCache,
    InstrUnderTest, Instruction, Isa, NativeMethodId, Target,
};
use igjit_corpus::{encode_section, Corpus, Image, SaveOutcome, Section};
use proptest::prelude::*;

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
        code.entry(key).or_insert(entry);
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
fn golden_save_with_a_duplicate_exploration_key() {
    let (scratch, before) = base_corpus("golden-duplicate");
    let fps = fingerprints();
    // Re-encode the exploration section with one entry listed twice;
    // `encode_section` keeps both copies and the section still verifies.
    let (image, _) = Image::parse(before, &fps);
    let mut entries =
        image.explorations().expect("explorations accepted").expect("explorations decode");
    let distinct = entries.len();
    entries.push(entries[0].clone());
    let payload = encode_section(entries.iter().map(|(k, v)| (k, &**v)));
    let mut bytes = image.rebuild(&fps, [Some(payload), None, None]).bytes().to_vec();
    // A stale outcome section sends the row down the pipeline, which
    // preloads the duplicated section.
    let fingerprint_at = payload_range(&bytes, Section::Outcomes).start - 24;
    bytes[fingerprint_at] ^= 0x01;
    std::fs::write(&scratch.0, &bytes).expect("patch");

    let warm = Campaign::new(config(Some(scratch.0.clone())));
    let stats = warm.corpus_load_stats().expect("corpus attached");
    assert_eq!((stats.explorations, stats.stale_sections), (distinct + 1, 1));
    assert!(stats.warnings.is_empty(), "{:?}", stats.warnings);
    let report = warm.run_bytecodes(CompilerKind::SimpleStackBased);
    assert_eq!(report.metrics.cache_misses, 0, "explorations replay from the file");
    assert_eq!(warm.cache().len(), distinct);
    // The duplicate makes the section dirty: the save re-encodes it,
    // deduplicated, instead of reusing the loaded bytes.
    let saved = warm.save_corpus().expect("corpus attached").expect("save succeeds");
    assert!(matches!(saved, SaveOutcome::Written { .. }));
    assert_eq!(read(&scratch.0), merged_encoding(&bytes, &warm, &[(SIMPLE, &report)]));
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
    shared.get_or_explore(InstrUnderTest::Native(NativeMethodId(1)), false);
    let warm = Campaign::with_exploration_cache(config(Some(scratch.0.clone())), Arc::clone(&shared));
    let report = warm.run_bytecodes(CompilerKind::SimpleStackBased);
    let saved = warm.save_corpus().expect("corpus attached").expect("save succeeds");
    assert!(matches!(saved, SaveOutcome::Written { .. }), "the native exploration is new");
    // The fully warm row decoded nothing; the save brought the file's
    // entries into the shared cache so that it writes the union.
    let file_entries = warm.corpus_load_stats().expect("corpus attached").explorations;
    assert_eq!(shared.len(), file_entries + 1);
    assert!(!warm.code_cache().is_empty());
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

    // Nothing new since: the save encodes what is already on disk,
    // and the file is left alone.
    let saved = warm.save_corpus().expect("corpus attached").expect("save succeeds");
    assert_eq!(saved, SaveOutcome::Unchanged);
    assert_eq!(read(&scratch.0), second);
}

// ---------------------------------------------------- re-sealed files

/// A corpus file holding one campaign's run of `Add` on
/// StackToRegister (every section populated), built once.
fn add_corpus() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let scratch = ScratchCorpus::new("add");
        let campaign = Campaign::new(config(Some(scratch.0.clone())));
        campaign.test_bytecode_instruction(Instruction::Add, CompilerKind::StackToRegister);
        campaign.save_corpus().expect("corpus attached").expect("save succeeds");
        read(&scratch.0)
    })
}

/// Recomputes the checksum of the section whose payload lies at
/// `payload`, as a writer would. The checksum sits in the 8 bytes
/// before the payload.
fn reseal(bytes: &mut [u8], payload: std::ops::Range<usize>) {
    let sum = igjit_corpus::wire::checksum(&bytes[payload.clone()]);
    bytes[payload.start - 8..payload.start].copy_from_slice(&sum.to_le_bytes());
}

#[test]
fn resealed_out_of_range_ntemps_is_rejected_at_decode() {
    let mut bytes = add_corpus().to_vec();
    let fps = fingerprints();
    let code = payload_range(&bytes, Section::Code);
    let (image, _) = Image::parse(bytes.clone(), &fps);
    let entries = image.code().expect("code accepted").expect("code decodes");
    let (key, artifact) =
        entries.iter().find(|(_, artifact)| artifact.is_ok()).expect("a compiled artifact");
    // An entry is its key, then its value; a compiled artifact's value
    // ends with its u32 temp count.
    let entry = [igjit_corpus::to_bytes(key), igjit_corpus::to_bytes(artifact)].concat();
    let at = bytes[code.clone()]
        .windows(entry.len())
        .position(|w| w == entry)
        .expect("the entry lies in the payload");
    let ntemps = code.start + at + entry.len() - 4;
    bytes[ntemps..ntemps + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    reseal(&mut bytes, code);

    let (image, stats) = Image::parse(bytes.clone(), &fps);
    assert!(stats.warnings.is_empty(), "the re-sealed section passes its checksum: {stats:?}");
    assert!(matches!(image.code(), Some(Err(_))), "an out-of-range temp count must not decode");
    let (corpus, stats) = igjit_corpus::file::decode(&bytes, &fps);
    assert!(corpus.code.is_empty());
    assert!(stats.warnings.contains(&Section::Code.decode_warning()), "{stats:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A bit flip inside any payload, re-sealed, decodes and runs
    /// without a panic or an abort. Verdicts may change: a re-sealed
    /// exploration is a different, well-formed one.
    #[test]
    fn prop_resealed_bit_flip_never_panics(
        section in 0usize..3,
        pos in any::<u32>(),
        bit in 0u8..8,
    ) {
        let mut bytes = add_corpus().to_vec();
        let section = Section::ALL[section];
        let payload = payload_range(&bytes, section);
        let outcomes = payload_range(&bytes, Section::Outcomes);
        bytes[payload.start + pos as usize % payload.len()] ^= 1 << bit;
        reseal(&mut bytes, payload);
        if section != Section::Outcomes {
            // A stale outcome section sends the campaign down the
            // pipeline, through the flipped explorations or code.
            bytes[outcomes.start - 24] ^= 0x01;
        }
        let _ = igjit_corpus::file::decode(&bytes, &fingerprints());

        let scratch = ScratchCorpus::new("resealed");
        std::fs::write(&scratch.0, &bytes).expect("write the flipped corpus");
        let campaign = Campaign::new(config(Some(scratch.0.clone())));
        let outcome =
            campaign.test_bytecode_instruction(Instruction::Add, CompilerKind::StackToRegister);
        prop_assert_eq!(outcome.oracle_panics, 0);
        if section != Section::Outcomes {
            prop_assert!(!campaign.code_cache().is_empty(), "the pipeline ran");
        }
    }
}
