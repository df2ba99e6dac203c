//! Engine v10 invariants: the trail-based solver must be invisible in
//! every campaign output. Table 2 rows, Table 3 cause sets and
//! per-path verdicts are byte-identical with `solver_trail` on and off
//! — on both rows, stacked under the other performance knobs, and
//! under an armed mutant (replacing store clones with an undo log must
//! not mask a planted defect by perturbing which models the probes
//! hand the oracle).

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

fn bytecode_config(solver_trail: bool) -> CampaignConfig {
    CampaignConfig {
        isas: vec![Isa::X86ish],
        probes: false,
        threads: 1,
        solver_trail,
        ..CampaignConfig::default()
    }
}

#[test]
fn bytecode_row_is_identical_with_solver_trail_on_and_off() {
    // The whole-catalog bytecode row: exploration's negation walk is
    // where sibling scopes are pushed and unwound thousands of times,
    // so a mis-unwound trail entry would leak one scope's narrowing
    // into the next sibling's model and change a verdict here.
    let _off = FaultInjector::pinned_off();
    let run = |solver_trail: bool| {
        Campaign::new(bytecode_config(solver_trail))
            .run_bytecodes(CompilerKind::StackToRegister)
    };
    let (on, off) = (run(true), run(false));
    assert_row_identical(&on, &off);
}

#[test]
fn native_row_is_identical_with_solver_trail_on_and_off() {
    // Native methods with the probe pass on: `solve_under_prepared` is
    // the probe sweep's entry point and the trail's main customer —
    // every probe hypothesis runs mark/propagate/search/unwind against
    // the live store instead of a clone.
    let _off = FaultInjector::pinned_off();
    let run = |solver_trail: bool| {
        Campaign::new(CampaignConfig {
            isas: vec![Isa::X86ish],
            probes: true,
            threads: 1,
            solver_trail,
            ..CampaignConfig::default()
        })
        .run_native_methods()
    };
    let (on, off) = (run(true), run(false));
    assert_row_identical(&on, &off);
}

#[test]
fn bytecode_row_is_identical_with_trail_stacked_on_other_knobs() {
    // The knob must compose: flipping solver_trail under the full
    // performance stack (code cache, heap snapshots, machine-side and
    // interpreter predecode, hash-consing, family sharing) changes
    // nothing either. Family sharing matters here because replayed
    // family members reuse a sibling's exploration — the trail must
    // produce the same models for the family representative too.
    let _off = FaultInjector::pinned_off();
    let run = |solver_trail: bool| {
        Campaign::new(CampaignConfig {
            isas: vec![Isa::X86ish],
            probes: false,
            threads: 1,
            heap_snapshot: true,
            predecode: true,
            family_share: true,
            interp_predecode: true,
            hash_cons: true,
            solver_trail,
            ..CampaignConfig::default()
        })
        .run_bytecodes(CompilerKind::StackToRegister)
    };
    let (on, off) = (run(true), run(false));
    assert_row_identical(&on, &off);
}

#[test]
fn armed_mutant_verdicts_do_not_depend_on_solver_trail() {
    // A killable mutant must look exactly as dead with the trail as
    // with per-scope clones: same difference counts, same verdicts.
    // The trail only changes how scope state is restored, but a bug in
    // the undo log would change which witness inputs get generated —
    // and a lucky witness set could mask (or fabricate) a kill.
    let run = |solver_trail: bool| {
        let _armed = FaultInjector::arm(igjit::mutate::ops::FLIP_COMPARE_COND).unwrap();
        Campaign::new(bytecode_config(solver_trail))
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
