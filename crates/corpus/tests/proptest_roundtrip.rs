//! Property tests of the corpus wire format: randomized domain values
//! must survive an encode/decode round trip bit-for-bit, a real
//! three-section file must re-encode to itself, and random corruption
//! of that file must degrade (cold sections, warnings) without ever
//! panicking or inventing entries.

use std::sync::OnceLock;

use igjit_bytecode::Instruction;
use igjit_concolic::{ExplorationCache, InstrUnderTest};
use igjit_corpus::{from_bytes, to_bytes, Corpus, Fingerprints, Image, Section};
use igjit_difftest::{test_instruction_with, Target};
use igjit_jit::{CodeCache, CompileKey, CompilerKind, FrontEnd};
use igjit_machine::Isa;
use igjit_solver::{Assignment, CmpOp, Constraint, Kind, LinExpr, Model, VarId};
use proptest::prelude::*;

fn arb_kind() -> impl Strategy<Value = Kind> {
    (0usize..Kind::ALL.len()).prop_map(|i| Kind::ALL[i])
}

fn arb_cmp() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
    ]
}

fn arb_lin() -> impl Strategy<Value = LinExpr> {
    (
        -1000i64..1000,
        proptest::collection::vec((-4i64..5, (0u32..8).prop_map(VarId)), 0..3),
    )
        .prop_map(|(constant, terms)| LinExpr { constant, terms })
}

/// Leaf constraints plus one level of `Or`/`And` nesting — deeper
/// nesting exercises the same recursive codec path.
fn arb_constraint() -> impl Strategy<Value = Constraint> {
    let var = (0u32..8).prop_map(VarId);
    let leaf = prop_oneof![
        (var.clone(), arb_kind()).prop_map(|(v, k)| Constraint::kind_is(v, k)),
        (var.clone(), arb_kind()).prop_map(|(v, k)| Constraint::kind_is_not(v, k)),
        (arb_cmp(), arb_lin(), arb_lin()).prop_map(|(op, l, r)| Constraint::Int(op, l, r)),
        (var.clone(), var.clone()).prop_map(|(a, b)| Constraint::ObjEq(a, b)),
        (var.clone(), var).prop_map(|(a, b)| Constraint::ObjNe(a, b)),
    ];
    (
        proptest::collection::vec(leaf, 1..4),
        0u8..3,
    )
        .prop_map(|(leaves, wrap)| match wrap {
            0 => leaves.into_iter().next().unwrap(),
            1 => Constraint::Or(leaves),
            _ => Constraint::And(leaves),
        })
}

fn arb_model() -> impl Strategy<Value = Model> {
    proptest::collection::vec(
        (arb_kind(), any::<i64>(), any::<i32>(), any::<u32>())
            .prop_map(|(kind, int, float, alias)| Assignment {
                kind,
                int,
                // The vendored proptest has no float strategies; a
                // scaled integer covers sign, fractions and magnitude.
                float: f64::from(float) / 64.0,
                alias,
            }),
        0..6,
    )
    .prop_map(Model::from_assignments)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn prop_constraints_round_trip(c in arb_constraint()) {
        let rt: Constraint = from_bytes(&to_bytes(&c)).unwrap();
        prop_assert_eq!(rt, c);
    }

    #[test]
    fn prop_models_round_trip(m in arb_model()) {
        let rt: Model = from_bytes(&to_bytes(&m)).unwrap();
        prop_assert_eq!(rt, m);
    }

    #[test]
    fn prop_constraint_vectors_round_trip(
        cs in proptest::collection::vec(arb_constraint(), 0..8)
    ) {
        let rt: Vec<Constraint> = from_bytes(&to_bytes(&cs)).unwrap();
        prop_assert_eq!(rt, cs);
    }
}

/// A small real corpus with all three sections populated by the live
/// pipeline: one exploration, the artifacts its tests compiled on a
/// hand-written tier and on the meta tier, and their outcomes. Built
/// once; every case corrupts a copy.
fn sample_corpus_bytes(fp: &Fingerprints) -> Vec<u8> {
    static SAMPLE: OnceLock<Corpus> = OnceLock::new();
    let corpus = SAMPLE.get_or_init(|| {
        let instr = InstrUnderTest::Bytecode(Instruction::Add);
        let lookup = ExplorationCache::new().get_or_explore(instr, false);
        let code_cache = CodeCache::new();
        let outcomes = [Target::Bytecode(CompilerKind::StackToRegister), Target::MetaCompiled]
            .map(|target| {
                let (outcome, _) =
                    test_instruction_with(instr, target, &[Isa::X86ish], &lookup, &code_cache);
                ((target, instr), outcome)
            });
        Corpus {
            explorations: vec![((instr, false), lookup.exploration)],
            code: code_cache.snapshot(),
            outcomes: outcomes.into(),
        }
    });
    igjit_corpus::file::encode(corpus, fp)
}

fn sample_fp() -> Fingerprints {
    igjit_corpus::fingerprints(false, &[Isa::X86ish])
}

/// Entries per section of a decoded corpus.
fn counts(corpus: &Corpus) -> [usize; 3] {
    [corpus.explorations.len(), corpus.code.len(), corpus.outcomes.len()]
}

#[test]
fn sample_file_has_three_populated_sections_and_round_trips() {
    let fp = sample_fp();
    let bytes = sample_corpus_bytes(&fp);
    let (corpus, stats) = igjit_corpus::file::decode(&bytes, &fp);
    assert!(stats.warnings.is_empty() && !stats.cold, "{stats:?}");
    let n = counts(&corpus);
    assert!(n.iter().all(|&c| c > 0), "every section populated: {n:?}");
    let meta = |key: &CompileKey| {
        matches!(key, CompileKey::Bytecode { front_end: FrontEnd::Meta, .. })
    };
    assert!(corpus.code.iter().any(|(key, _)| meta(key)), "the code section holds meta keys");
    assert!(!corpus.code.iter().all(|(key, _)| meta(key)), "and tier keys");
    assert_eq!([stats.explorations, stats.code, stats.outcomes], n);
    // Files `encode` writes are canonical: decoding and re-encoding
    // reproduces them byte for byte, and so does reusing every
    // verified payload.
    assert_eq!(igjit_corpus::file::encode(&corpus, &fp), bytes);
    let (image, _) = Image::parse(bytes.clone(), &fp);
    assert_eq!(image.rebuild(&fp, [None, None, None]).bytes(), &bytes[..]);
}

/// Byte offsets of each accepted section's payload in `bytes`.
fn payload_ranges(bytes: &[u8], fp: &Fingerprints) -> Vec<(Section, std::ops::Range<usize>)> {
    let (image, _) = Image::parse(bytes.to_vec(), fp);
    Section::ALL
        .iter()
        .map(|&s| {
            let p = image.payload(s).expect("pristine sections are accepted");
            let start = p.as_ptr() as usize - image.bytes().as_ptr() as usize;
            (s, start..start + p.len())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Any single-bit flip anywhere in the file decodes without a
    /// panic and never yields more entries than the pristine file; a
    /// flip inside a payload drops exactly that section, by checksum.
    #[test]
    fn prop_flipped_byte_degrades_gracefully(pos in any::<u32>(), bit in 0u8..8) {
        let fp = sample_fp();
        let mut bytes = sample_corpus_bytes(&fp);
        let pristine = counts(&igjit_corpus::file::decode(&bytes, &fp).0);
        let ranges = payload_ranges(&bytes, &fp);
        let pos = pos as usize % bytes.len();
        bytes[pos] ^= 1 << bit;
        let (corpus, stats) = igjit_corpus::file::decode(&bytes, &fp);
        let got = counts(&corpus);
        for i in 0..3 {
            prop_assert!(got[i] <= pristine[i], "section {i}: {got:?} vs {pristine:?}");
        }
        if let Some((hit, _)) = ranges.iter().find(|(_, r)| r.contains(&pos)) {
            let mut expect = pristine;
            expect[*hit as usize] = 0;
            prop_assert_eq!(got, expect);
            let warning = format!("corpus section {} failed its checksum", hit.tag());
            prop_assert!(stats.warnings.iter().any(|w| w.starts_with(&warning)), "{:?}", stats.warnings);
        }
    }

    /// Any truncation decodes without a panic and without inventing
    /// entries; the sections wholly before the cut survive.
    #[test]
    fn prop_truncation_degrades_gracefully(cut in any::<u32>()) {
        let fp = sample_fp();
        let bytes = sample_corpus_bytes(&fp);
        let pristine = counts(&igjit_corpus::file::decode(&bytes, &fp).0);
        let ranges = payload_ranges(&bytes, &fp);
        let cut = cut as usize % bytes.len();
        let (corpus, _stats) = igjit_corpus::file::decode(&bytes[..cut], &fp);
        let got = counts(&corpus);
        for (s, r) in &ranges {
            let i = *s as usize;
            let expect = if r.end <= cut { pristine[i] } else { 0 };
            prop_assert_eq!(got[i], expect, "section {:?}, cut {}", s, cut);
        }
    }
}
