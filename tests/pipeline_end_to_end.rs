//! End-to-end pipeline tests spanning every crate: concolic
//! exploration → materialization → oracle → compilation → machine
//! execution → comparison → classification.

use igjit::{
    instruction_catalog, test_instruction, CompilerKind, DefectCategory, InstrUnderTest,
    Instruction, Isa, NativeMethodId, PathVerdict, Target, Verdict,
};
use igjit_difftest::test_sequence;

const BOTH: [Isa; 2] = [Isa::X86ish, Isa::Arm32ish];

#[test]
fn the_production_tier_agrees_on_every_stack_bytecode() {
    // Pure stack manipulation has no planted defects anywhere: the
    // whole pipeline must report agreement on every curated path, on
    // both ISAs.
    for instr in [
        Instruction::PushReceiver,
        Instruction::PushTrue,
        Instruction::PushFalse,
        Instruction::PushNil,
        Instruction::PushZero,
        Instruction::PushOne,
        Instruction::PushMinusOne,
        Instruction::PushTwo,
        Instruction::PushInteger(-5),
        Instruction::Dup,
        Instruction::Pop,
        Instruction::Nop,
        Instruction::PushTemp(0),
        Instruction::PushTemp(3),
        Instruction::StoreTemp(1),
        Instruction::PopIntoTemp(0),
        Instruction::PushLiteralConstant(0),
        Instruction::IdentityEqual,
        Instruction::ReturnReceiver,
        Instruction::ReturnTrue,
        Instruction::ReturnTop,
        Instruction::ShortJumpForward(4),
        Instruction::ShortJumpTrue(2),
        Instruction::LongJumpFalse(9),
    ] {
        let o = test_instruction(
            InstrUnderTest::Bytecode(instr),
            Target::Bytecode(CompilerKind::StackToRegister),
            &BOTH,
            true,
        );
        assert_eq!(
            o.difference_count(),
            0,
            "{instr:?} must agree everywhere: {:#?}",
            o.verdicts
                .iter()
                .filter(|v| v.verdict.is_difference())
                .collect::<Vec<_>>()
        );
    }
}

#[test]
fn receiver_variable_bytecodes_agree_including_side_effects() {
    for instr in [
        Instruction::PushReceiverVariable(0),
        Instruction::PushReceiverVariable(2),
        Instruction::PopIntoReceiverVariable(1),
        Instruction::StoreReceiverVariableLong(0),
    ] {
        for kind in CompilerKind::ALL {
            let o = test_instruction(
                InstrUnderTest::Bytecode(instr),
                Target::Bytecode(kind),
                &BOTH,
                false,
            );
            assert_eq!(o.difference_count(), 0, "{instr:?} {kind:?}");
        }
    }
}

#[test]
fn int_arithmetic_agrees_on_register_tiers() {
    // With static type prediction on, integer fast paths agree; only
    // the interpreter-inlined float paths may differ.
    for instr in [
        Instruction::Add,
        Instruction::Subtract,
        Instruction::Multiply,
        Instruction::Modulo,
        Instruction::IntegerDivide,
        Instruction::BitAnd,
        Instruction::BitOr,
        Instruction::BitShift,
    ] {
        for kind in [CompilerKind::StackToRegister, CompilerKind::RegisterAllocating] {
            let o = test_instruction(
                InstrUnderTest::Bytecode(instr),
                Target::Bytecode(kind),
                &BOTH,
                true,
            );
            for v in &o.verdicts {
                if let Verdict::Difference(_) = v.verdict {
                    let cat = v.cause.as_ref().unwrap().category;
                    assert_eq!(
                        cat,
                        DefectCategory::OptimisationDifference,
                        "{instr:?} {kind:?}: only the optimisation gap may differ: {:?}",
                        v
                    );
                }
            }
        }
    }
}

#[test]
fn correct_native_methods_agree_on_both_isas() {
    // Primitives with no planted defect must agree on every curated
    // path, even under aggressive probing.
    for id in [
        1u16, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, // SmallInteger arith except quo
        60, 61, 62, 63, 64, 65, 66, 67, 70, 71, 72, 73, 76, 77, 78, 79, 80,
    ] {
        let o = test_instruction(
            InstrUnderTest::Native(NativeMethodId(id)),
            Target::NativeMethods,
            &BOTH,
            true,
        );
        assert_eq!(
            o.difference_count(),
            0,
            "primitive {id} must agree: {:#?}",
            o.verdicts
                .iter()
                .filter(|v| v.verdict.is_difference())
                .collect::<Vec<_>>()
        );
    }
}

#[test]
fn every_planted_defect_family_is_found() {
    use std::collections::BTreeSet;
    let mut found: BTreeSet<DefectCategory> = BTreeSet::new();
    // One representative per family.
    for id in [40u16, 41, 14, 13, 120, 52] {
        let o = test_instruction(
            InstrUnderTest::Native(NativeMethodId(id)),
            Target::NativeMethods,
            &BOTH,
            true,
        );
        for c in o.causes() {
            found.insert(c.category);
        }
    }
    let o = test_instruction(
        InstrUnderTest::Bytecode(Instruction::Add),
        Target::Bytecode(CompilerKind::SimpleStackBased),
        &BOTH,
        false,
    );
    for c in o.causes() {
        found.insert(c.category);
    }
    for cat in DefectCategory::ALL {
        assert!(found.contains(&cat), "{cat:?} not rediscovered; found {found:?}");
    }
}

#[test]
fn simple_tier_differs_strictly_more_than_register_tiers() {
    // The Table 2 ordering: SimpleStack (no type prediction) diverges
    // on int fast paths too.
    let mut counts = Vec::new();
    for kind in CompilerKind::ALL {
        let mut n = 0;
        for instr in [Instruction::Add, Instruction::LessThan, Instruction::Multiply] {
            let o = test_instruction(
                InstrUnderTest::Bytecode(instr),
                Target::Bytecode(kind),
                &BOTH,
                false,
            );
            n += o.difference_count();
        }
        counts.push((kind, n));
    }
    let simple = counts[0].1;
    let s2r = counts[1].1;
    let alloc = counts[2].1;
    assert!(simple > s2r, "{counts:?}");
    assert_eq!(s2r, alloc, "{counts:?}");
}

#[test]
fn every_bytecode_is_a_sequence_of_length_one() {
    // The campaign without probes and the sequence tester run the same
    // differential step on the same exploration, so for every catalog
    // bytecode on every tier they agree on the paths, the curated paths
    // and each path's difference, cause and ISA.
    let outcome = |v: &PathVerdict| {
        (v.instruction, v.verdict.is_difference(), v.cause.clone(), v.isa, v.interp_exit)
    };
    let mut pairs = 0;
    for spec in instruction_catalog() {
        let i = spec.instruction;
        for kind in CompilerKind::ALL {
            let single =
                test_instruction(InstrUnderTest::Bytecode(i), Target::Bytecode(kind), &BOTH, false);
            let sequence = test_sequence(&[i], kind, &BOTH);
            assert_eq!(
                (sequence.paths_found, sequence.curated),
                (single.paths_found, single.curated),
                "{i:?} on {kind:?}"
            );
            assert_eq!(
                sequence.verdicts.iter().map(outcome).collect::<Vec<_>>(),
                single.verdicts.iter().map(outcome).collect::<Vec<_>>(),
                "{i:?} on {kind:?}"
            );
            pairs += 1;
        }
    }
    assert_eq!(pairs, 444);
}

