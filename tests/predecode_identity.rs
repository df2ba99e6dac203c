//! The predecoded execution mode (engine v5) must be invisible in
//! every campaign output: Table 2 rows, Table 3 cause sets and
//! per-path verdicts are identical with `predecode` on and off — the
//! predecoded artifact changes how instructions are *fetched*, never
//! what they *do*. And because the predecoded view is derived from the
//! compiled artifact **after** fault injection, an armed mutant's
//! planted bug must surface identically in both modes: predecoding
//! must not mask (or invent) kills, or the mutation score would
//! silently depend on a performance knob.

use igjit::mutate::ops;
use igjit::{Campaign, CampaignConfig, CampaignReport, CompilerKind, FaultInjector, Isa};

const BOTH: [Isa; 2] = [Isa::X86ish, Isa::Arm32ish];

fn config(predecode: bool) -> CampaignConfig {
    CampaignConfig {
        isas: BOTH.to_vec(),
        probes: true,
        threads: 1,
        heap_snapshot: true,
        predecode,
        ..CampaignConfig::default()
    }
}

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

#[test]
fn native_row_is_identical_with_predecode_on_and_off() {
    let _off = FaultInjector::pinned_off();
    let on = Campaign::new(config(true)).run_native_methods();
    let off = Campaign::new(config(false)).run_native_methods();
    assert_row_identical(&on, &off);
}

#[test]
fn bytecode_rows_are_identical_with_predecode_on_and_off() {
    let _off = FaultInjector::pinned_off();
    for kind in CompilerKind::ALL {
        let on = Campaign::new(config(true)).run_bytecodes(kind);
        let off = Campaign::new(config(false)).run_bytecodes(kind);
        assert_row_identical(&on, &off);
    }
}

/// An armed compiler mutant's planted bug reaches the verdicts through
/// the predecoded fetch exactly as through the byte decoder: same
/// rows, same cause sets — and visibly different from the disarmed
/// baseline, so the kill is real in both modes.
#[test]
fn armed_mutant_is_not_masked_by_predecoding() {
    let baseline = {
        let _off = FaultInjector::pinned_off();
        Campaign::new(config(true)).run_bytecodes(CompilerKind::StackToRegister)
    };
    let (mutant_on, mutant_off) = {
        let _armed =
            FaultInjector::arm(ops::FLIP_COMPARE_COND).expect("catalog mutant arms");
        (
            Campaign::new(config(true)).run_bytecodes(CompilerKind::StackToRegister),
            Campaign::new(config(false)).run_bytecodes(CompilerKind::StackToRegister),
        )
    };
    // The fault surfaces identically whether or not fetch is predecoded…
    assert_row_identical(&mutant_on, &mutant_off);
    // …and it does surface: the mutant run deviates from the baseline
    // in both modes (the kill signal the mutation foundry counts).
    assert_ne!(
        baseline.row, mutant_on.row,
        "flip-compare-cond must change the StackToRegister row"
    );
}
