//! Engine v8 invariants: the predecoded interpreter pipeline must be
//! invisible in every campaign output. Table 2 rows, Table 3 cause
//! sets and per-path verdicts are byte-identical with
//! `interp_predecode` on and off — on both rows, combined with the
//! other performance knobs, and under an armed mutant (predecoding
//! must not mask a planted defect by changing how the oracle sees it).

use igjit::{Campaign, CampaignConfig, CampaignReport, CompilerKind, FaultInjector, Instruction,
            Isa};

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
        assert_eq!(x.oracle_panics, y.oracle_panics);
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

fn bytecode_config(interp_predecode: bool) -> CampaignConfig {
    CampaignConfig {
        isas: vec![Isa::X86ish],
        probes: false,
        threads: 1,
        interp_predecode,
        ..CampaignConfig::default()
    }
}

#[test]
fn bytecode_row_is_identical_with_interp_predecode_on_and_off() {
    // The whole-catalog bytecode row: the predecoded single-step
    // oracle consumes the instruction from the cached encoded-and-
    // redecoded program view, so any encode/decode drift would show
    // up here as a verdict change.
    let _off = FaultInjector::pinned_off();
    let run = |interp_predecode: bool| {
        Campaign::new(bytecode_config(interp_predecode))
            .run_bytecodes(CompilerKind::StackToRegister)
    };
    let (on, off) = (run(true), run(false));
    assert_row_identical(&on, &off);
}

#[test]
fn native_row_is_identical_with_interp_predecode_on_and_off() {
    // Native methods run through `run_method_with`, where predecoding
    // actually changes the fetch loop (dense step array + fused
    // pairs). The probe pass is on so the kind-probe re-solve paths
    // are covered too.
    let _off = FaultInjector::pinned_off();
    let run = |interp_predecode: bool| {
        Campaign::new(CampaignConfig {
            isas: vec![Isa::X86ish],
            probes: true,
            threads: 1,
            interp_predecode,
            ..CampaignConfig::default()
        })
        .run_native_methods()
    };
    let (on, off) = (run(true), run(false));
    assert_row_identical(&on, &off);
}

#[test]
fn bytecode_row_is_identical_with_predecode_stacked_on_other_knobs() {
    // The knob must compose: flipping interp_predecode under the full
    // performance stack (code cache, heap snapshots, machine-side
    // predecode, family sharing) changes nothing either.
    let _off = FaultInjector::pinned_off();
    let run = |interp_predecode: bool| {
        Campaign::new(CampaignConfig {
            isas: vec![Isa::X86ish],
            probes: false,
            threads: 1,
            heap_snapshot: true,
            predecode: true,
            family_share: true,
            interp_predecode,
            ..CampaignConfig::default()
        })
        .run_bytecodes(CompilerKind::StackToRegister)
    };
    let (on, off) = (run(true), run(false));
    assert_row_identical(&on, &off);
}

#[test]
fn armed_mutant_verdicts_do_not_depend_on_interp_predecode() {
    // A killable mutant must look exactly as dead with the predecoded
    // oracle as with the historical fetch loop: same difference
    // counts, same verdicts. Otherwise predecoding could mask (or
    // fabricate) kills and corrupt the mutation-campaign scores.
    let run = |interp_predecode: bool| {
        let _armed = FaultInjector::arm(igjit::mutate::ops::FLIP_COMPARE_COND).unwrap();
        Campaign::new(bytecode_config(interp_predecode))
            .test_bytecode_instruction(Instruction::LessThan, CompilerKind::StackToRegister)
    };
    let (on, off) = (run(true), run(false));
    assert_eq!(on.paths_found, off.paths_found);
    assert_eq!(on.curated, off.curated);
    assert_eq!(on.difference_count(), off.difference_count());
    assert_eq!(on.causes(), off.causes());
    // And the mutant still visibly diverges from a disarmed run, so
    // the comparison above is not vacuous.
    let baseline = {
        let _off = FaultInjector::pinned_off();
        Campaign::new(bytecode_config(true))
            .test_bytecode_instruction(Instruction::LessThan, CompilerKind::StackToRegister)
    };
    assert_ne!(baseline.difference_count(), on.difference_count(),
               "flipped comparisons must diverge from the interpreter");
}
