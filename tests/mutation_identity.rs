//! The fault injector must be invisible when disarmed: with the
//! injector pinned off, every Table 2/Table 3/testgen output is
//! byte-identical to a run of a build with no injection sites at all,
//! and compiled artifacts carry no residue after a mutant guard drops.
//! Conversely, an armed killable mutant must visibly change a
//! differential verdict — otherwise the foundry would be measuring a
//! disconnected knob.

use igjit::{Campaign, CampaignConfig, CampaignReport, CompilerKind, FaultInjector, Instruction,
            InstrUnderTest, Isa, Target};
use igjit::GeneratedSuite;
use igjit_heap::Oop;
use igjit_jit::{compile_bytecode_test, BytecodeTestInput};
use proptest::prelude::*;

const BOTH: [Isa; 2] = [Isa::X86ish, Isa::Arm32ish];

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

fn full_config() -> CampaignConfig {
    CampaignConfig {
        isas: BOTH.to_vec(),
        probes: true,
        threads: 1,
        heap_snapshot: true,
        predecode: true,
        ..CampaignConfig::default()
    }
}

/// The §5.1 native-method row with the injector pinned off, twice:
/// identical verdict-for-verdict, and exactly the seed baseline the
/// rest of the repo pins (the disarmed injector is a no-op, not merely
/// "close to one").
#[test]
fn native_row_is_identical_with_injector_pinned_off() {
    let _off = FaultInjector::pinned_off();
    let a = Campaign::new(full_config()).run_native_methods();
    let b = Campaign::new(full_config()).run_native_methods();
    assert_row_identical(&a, &b);
    assert_eq!(
        (a.row.tested_instructions, a.row.interpreter_paths, a.row.curated_paths,
         a.row.differences),
        (112, 753, 753, 437),
        "disarmed sweep drifted from the pinned Table 2 native row"
    );
}

/// A killable mutant visibly changes the differential verdicts — the
/// injector is wired to the code the campaign actually measures.
#[test]
fn flip_compare_cond_changes_the_lessthan_verdicts() {
    let baseline = {
        let _off = FaultInjector::pinned_off();
        Campaign::quick()
            .test_bytecode_instruction(Instruction::LessThan, CompilerKind::StackToRegister)
    };
    let mutated = {
        let _armed = FaultInjector::arm(igjit::mutate::ops::FLIP_COMPARE_COND).unwrap();
        Campaign::quick()
            .test_bytecode_instruction(Instruction::LessThan, CompilerKind::StackToRegister)
    };
    assert_eq!(baseline.paths_found, mutated.paths_found, "exploration is JIT-independent");
    assert_ne!(
        baseline.difference_count(),
        mutated.difference_count(),
        "flipped comparisons must diverge from the interpreter"
    );
}

/// The generated unit-test suite is stable under the pinned-off
/// injector and still finds the planted defect (the quickstart's
/// Add/StackToRegister float-path divergence on one ISA).
#[test]
fn generated_suite_is_stable_and_still_finds_planted_defects() {
    let _off = FaultInjector::pinned_off();
    let gen = || {
        GeneratedSuite::generate_for(
            InstrUnderTest::Bytecode(Instruction::Add),
            Target::Bytecode(CompilerKind::StackToRegister),
            &[Isa::X86ish],
        )
    };
    let (first, second) = (gen(), gen());
    assert_eq!(first.manifest(), second.manifest());
    let (ra, rb) = (first.run(), second.run());
    assert_eq!((ra.passed, ra.failed, ra.skipped), (rb.passed, rb.failed, rb.skipped));
    assert_eq!(ra.failed, 1, "the planted Add defect must stay detected with mutants disabled");
}

fn compile_probe() -> Vec<Option<Vec<u8>>> {
    let stack = [Oop::from_small_int(7), Oop::from_small_int(3)];
    let temps = [Oop::from_small_int(11)];
    let literals = [Oop::from_small_int(5)];
    let mut out = Vec::new();
    for instruction in [
        Instruction::Add,
        Instruction::LessThan,
        Instruction::Divide,
        Instruction::BitAnd,
        Instruction::SpecialSendAt,
        Instruction::PushTemp(0),
    ] {
        let input = BytecodeTestInput {
            instruction,
            operand_stack: &stack,
            temps: &temps,
            literals: &literals,
            nil: Oop(0x100),
            true_obj: Oop(0x108),
            false_obj: Oop(0x110),
        };
        for kind in [
            CompilerKind::SimpleStackBased,
            CompilerKind::StackToRegister,
            CompilerKind::RegisterAllocating,
        ] {
            for isa in BOTH {
                out.push(compile_bytecode_test(kind, &input, isa).ok().map(|c| c.code));
            }
        }
    }
    out
}

proptest! {
    /// Arm any catalog mutant, compile, disarm: recompilation is
    /// byte-identical to the pre-arming baseline. No mutant leaves
    /// residue in the compilers once its guard drops.
    #[test]
    fn prop_no_compile_residue_after_any_mutant(idx in 0usize..igjit::mutate::CATALOG.len()) {
        let op = &igjit::mutate::CATALOG[idx];
        let baseline = {
            let _off = FaultInjector::pinned_off();
            compile_probe()
        };
        {
            let _armed = FaultInjector::arm(op.id).unwrap();
            let _ = compile_probe();
        }
        let _off = FaultInjector::pinned_off();
        prop_assert_eq!(compile_probe(), baseline, "{} left residue", op.name);
    }
}
