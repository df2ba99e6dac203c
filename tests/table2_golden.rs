//! The whole-catalog golden test: the five Table 2 rows, the Table 3
//! cause set and the per-path verdicts of the one engine the campaign
//! runs, pinned to their published values — at any worker count, and
//! still moved by an armed compiler mutant. The aggregate work counters
//! repeat exactly across worker counts too, which is what lets CI pin
//! them. The fifth row is the meta-compiled tier: the partial evaluator
//! carries most of the catalog, and the hand-written tiers never touch
//! it.

use std::sync::OnceLock;

use igjit::mutate::ops;
use igjit::{instruction_catalog, native_catalog, Campaign, CampaignConfig, CampaignReport,
            DefectCategory, FaultInjector};

/// Per row, in `Campaign::run_all` order: tested instructions,
/// interpreter paths, curated paths, differences.
const GOLDEN_ROWS: [[usize; 4]; 5] = [
    [112, 753, 753, 437],
    [148, 512, 511, 37],
    [148, 512, 511, 16],
    [148, 512, 511, 16],
    [148, 512, 511, 0],
];

/// The Table 3 causes outside the missing-functionality family (which
/// is exactly the 60 FFI natives), by family.
const GOLDEN_CAUSES: [(DefectCategory, &[&str]); 5] = [
    (DefectCategory::MissingInterpreterTypeCheck, &["primitiveAsFloat"]),
    (
        DefectCategory::MissingCompiledTypeCheck,
        &[
            "primitiveFloatAdd",
            "primitiveFloatDivide",
            "primitiveFloatEqual",
            "primitiveFloatGreaterOrEqual",
            "primitiveFloatGreaterThan",
            "primitiveFloatLessOrEqual",
            "primitiveFloatLessThan",
            "primitiveFloatMultiply",
            "primitiveFloatNotEqual",
            "primitiveFloatSubtract",
            "primitiveFloatTruncated",
        ],
    ),
    (
        DefectCategory::OptimisationDifference,
        &[
            "ArithmeticAdd",
            "ArithmeticDivide",
            "ArithmeticIntegerDivide",
            "ArithmeticModulo",
            "ArithmeticMultiply",
            "ArithmeticSubtract",
            "BitwiseAnd",
            "BitwiseOr",
            "BitwiseShift",
            "CompareEqual",
            "CompareGreater",
            "CompareGreaterOrEqual",
            "CompareLess",
            "CompareLessOrEqual",
            "CompareNotEqual",
        ],
    ),
    (
        DefectCategory::BehaviouralDifference,
        &["primitiveBitAnd", "primitiveBitOr", "primitiveBitShift", "primitiveBitXor", "primitiveQuo"],
    ),
    (
        DefectCategory::SimulationError,
        &["primitiveFloatExponent", "primitiveFloatFractionPart"],
    ),
];

fn config(threads: usize) -> CampaignConfig {
    CampaignConfig { threads, ..CampaignConfig::default() }
}

/// A full five-row sweep with the compiler pristine.
fn sweep(threads: usize) -> Vec<CampaignReport> {
    let _off = FaultInjector::pinned_off();
    Campaign::new(config(threads)).run_all()
}

/// The sequential sweep every other run is compared against.
fn reference() -> &'static [CampaignReport] {
    static REFERENCE: OnceLock<Vec<CampaignReport>> = OnceLock::new();
    REFERENCE.get_or_init(|| sweep(1))
}

fn rows(reports: &[CampaignReport]) -> Vec<[usize; 4]> {
    reports
        .iter()
        .map(|r| {
            [r.row.tested_instructions, r.row.interpreter_paths, r.row.curated_paths, r.row.differences]
        })
        .collect()
}

/// Everything a report says about its instructions, verdict by verdict.
fn assert_reports_identical(a: &[CampaignReport], b: &[CampaignReport]) {
    assert_eq!(a.len(), b.len());
    for (ra, rb) in a.iter().zip(b) {
        assert_eq!(ra.row, rb.row);
        assert_eq!(ra.causes(), rb.causes());
        assert_eq!(ra.outcomes.len(), rb.outcomes.len());
        for (x, y) in ra.outcomes.iter().zip(&rb.outcomes) {
            assert_eq!(x.instruction, y.instruction);
            assert_eq!(x.paths_found, y.paths_found);
            assert_eq!(x.curated, y.curated);
            assert_eq!(x.curated_out, y.curated_out);
            assert_eq!(x.witness_errors, y.witness_errors);
            assert_eq!(x.oracle_panics, y.oracle_panics);
            assert_eq!(x.verdicts.len(), y.verdicts.len());
            for (va, vb) in x.verdicts.iter().zip(&y.verdicts) {
                assert_eq!(va.interp_exit, vb.interp_exit, "{:?}", x.instruction);
                assert_eq!(va.verdict.is_difference(), vb.verdict.is_difference());
                assert_eq!(va.all_causes, vb.all_causes, "{:?}", x.instruction);
                assert_eq!(va.found_by_probe, vb.found_by_probe);
                assert_eq!(va.isa, vb.isa);
            }
        }
    }
}

/// The aggregate work counters a sweep records: solver solves, sat
/// answers, nodes and pushes; code-cache hits and misses; per-model
/// heap seals, restores and dirty words; exploration-cache hits and
/// misses.
fn work_counters(reports: &[CampaignReport]) -> [(&'static str, u64); 11] {
    let m = igjit::aggregate_metrics(reports);
    [
        ("solver.solves", m.solver.solves as u64),
        ("solver.sat", m.solver.sat as u64),
        ("solver.nodes_visited", m.solver.nodes_visited as u64),
        ("solver.pushes", m.solver.pushes as u64),
        ("compile_cache.hits", m.compile_hits as u64),
        ("compile_cache.misses", m.compile_misses as u64),
        ("snapshot.seals", m.snapshot.seals),
        ("snapshot.restores", m.snapshot.restores),
        ("snapshot.dirty_words", m.snapshot.dirty_words),
        ("cache.hits", m.cache_hits as u64),
        ("cache.misses", m.cache_misses as u64),
    ]
}

/// Identical reports and identical work counters.
fn assert_runs_identical(a: &[CampaignReport], b: &[CampaignReport]) {
    assert_reports_identical(a, b);
    assert_eq!(work_counters(a), work_counters(b));
}

#[test]
fn rows_match_the_golden_tuples() {
    let reports = reference();
    assert_eq!(rows(reports), GOLDEN_ROWS);
    let totals = GOLDEN_ROWS.iter().fold([0; 4], |mut acc, row| {
        for (a, v) in acc.iter_mut().zip(row) {
            *a += v;
        }
        acc
    });
    assert_eq!(totals, [704, 2801, 2797, 506]);
    let m = igjit::aggregate_metrics(reports);
    assert_eq!(m.witness_errors + m.oracle_panics, 0);
}

#[test]
fn table3_cause_set_is_golden() {
    let mut causes: Vec<(DefectCategory, String)> = reference()
        .iter()
        .flat_map(|r| r.causes())
        .map(|c| (c.category, c.instruction.into_owned()))
        .collect();
    causes.sort();
    causes.dedup();
    for (category, golden) in GOLDEN_CAUSES {
        let got: Vec<&str> =
            causes.iter().filter(|c| c.0 == category).map(|c| c.1.as_str()).collect();
        assert_eq!(got, golden, "{}", category.name());
    }
    let mut ffi: Vec<String> = native_catalog()
        .iter()
        .map(|spec| spec.name.to_string())
        .filter(|name| name.starts_with("primitiveFFI"))
        .collect();
    ffi.sort();
    let missing: Vec<String> = causes
        .iter()
        .filter(|c| c.0 == DefectCategory::MissingFunctionality)
        .map(|c| c.1.clone())
        .collect();
    assert_eq!(missing, ffi);
    assert_eq!(causes.len(), 94, "Table 3 total");
}

#[test]
fn meta_row_covers_the_catalog_through_the_evaluator() {
    let reports = reference();
    // The hand-written tiers never touch the evaluator.
    for r in &reports[..4] {
        assert_eq!(r.row.meta_compiled_runs, 0, "{}", r.row.label);
        assert_eq!(r.row.meta_trampolines, 0, "{}", r.row.label);
    }
    // The fifth row is the meta tier, it covers the whole catalog, and
    // the partial evaluator — not the trampoline — carries it.
    let meta = &reports[4].row;
    assert_eq!(meta.label, "Meta-Compiled (tier 5)");
    assert_eq!(meta.tested_instructions, instruction_catalog().len());
    assert!(meta.meta_compiled_runs > 0);
    assert!(
        meta.meta_coverage() >= 0.6,
        "meta tier must fully compile >= 60% of the catalog, got {:.1}% \
         ({} of {} instructions; {} compiled runs, {} trampolined)",
        100.0 * meta.meta_coverage(),
        meta.meta_full_instructions,
        meta.tested_instructions,
        meta.meta_compiled_runs,
        meta.meta_trampolines,
    );
}

#[test]
fn rows_are_identical_at_one_and_two_threads() {
    assert_runs_identical(&sweep(2), reference());
}

#[test]
fn armed_flip_compare_cond_still_changes_verdicts() {
    let armed = {
        let _armed = FaultInjector::arm(ops::FLIP_COMPARE_COND).expect("catalog mutant arms");
        Campaign::new(config(1)).run_all()
    };
    // Flipped compare branches surface on the two register tiers only.
    let mut expected = GOLDEN_ROWS;
    expected[2][3] = 28;
    expected[3][3] = 28;
    assert_eq!(rows(&armed), expected);
    let less_than = |reports: &[CampaignReport]| {
        reports[2]
            .outcomes
            .iter()
            .find(|o| o.instruction == igjit::InstrUnderTest::Bytecode(igjit::Instruction::LessThan))
            .map(|o| o.difference_count())
            .expect("LessThan is in the catalog")
    };
    assert!(less_than(&armed) > less_than(reference()), "the LessThan verdicts must move");
}
