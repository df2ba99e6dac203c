//! Differential testing of bytecode **sequences** — the paper's
//! stated future work ("generate minimal and relevant byte-code
//! sequences for unit testing the JIT compiler"), implemented.
//!
//! A sequence test chains several instructions in one compiled
//! method: fast-path results of one instruction flow into the next
//! through the parse-time stack, which is exactly the interaction the
//! single-instruction schema cannot exercise (§4.2 notes the
//! StackToRegister tier only emits stack accesses when a *consumer*
//! shows up — a sequence provides real consumers).
//!
//! The module also derives *minimal relevant sequences* from explored
//! paths: the materialized operands of a path become real push
//! bytecodes, yielding a self-contained test method.

use igjit_bytecode::Instruction;
use igjit_concolic::{AbstractState, Explorer};
use igjit_jit::{CodeCache, CompilerKind};
use igjit_machine::Isa;
use igjit_metajit::MetaCache;
use igjit_solver::Model;

use crate::campaign::{PathVerdict, Target};
use crate::step::{Harness, Program};

/// The instructions a random sequence is drawn from: each is supported
/// by every tier and makes bounded frame demands.
pub const SEQUENCE_POOL: [Instruction; 24] = [
    Instruction::PushZero,
    Instruction::PushOne,
    Instruction::PushTwo,
    Instruction::PushMinusOne,
    Instruction::PushInteger(13),
    Instruction::PushInteger(-77),
    Instruction::PushTrue,
    Instruction::PushFalse,
    Instruction::PushNil,
    Instruction::PushReceiver,
    Instruction::Dup,
    Instruction::Pop,
    Instruction::Add,
    Instruction::Subtract,
    Instruction::Multiply,
    Instruction::Modulo,
    Instruction::LessThan,
    Instruction::GreaterOrEqual,
    Instruction::Equal,
    Instruction::BitAnd,
    Instruction::BitOr,
    Instruction::IdentityEqual,
    Instruction::SpecialSendSize,
    Instruction::ShortJumpTrue(3),
];

/// Result of differentially testing one sequence.
#[derive(Clone, Debug)]
pub struct SequenceOutcome {
    /// The instruction sequence.
    pub instructions: Vec<Instruction>,
    /// Paths the sequence exploration discovered.
    pub paths_found: usize,
    /// Paths surviving curation.
    pub curated: usize,
    /// One verdict per curated path.
    pub verdicts: Vec<PathVerdict>,
    /// Models whose materialization produced an unrealizable witness
    /// (test errors; not compared).
    pub witness_errors: usize,
    /// Models whose materialization or oracle run panicked (test
    /// errors; not compared).
    pub oracle_panics: usize,
}

impl SequenceOutcome {
    /// Number of differing paths.
    pub fn difference_count(&self) -> usize {
        self.verdicts.iter().filter(|v| v.verdict.is_difference()).count()
    }
}

/// Differentially tests a bytecode sequence against one tier: every
/// curated path of the sequence's exploration goes through the same
/// differential step as a single instruction's, with kind probes off
/// and one artifact cache for the call, so paths whose compile keys
/// agree (they differ only in the receiver, say) share one compile.
/// Verdicts are filed under the sequence's last instruction; a
/// difference is classified under the instruction whose fast path
/// diverged when the compiled send names one.
pub fn test_sequence(
    instrs: &[Instruction],
    kind: CompilerKind,
    isas: &[Isa],
) -> SequenceOutcome {
    // An empty sequence has no instruction under test; report the
    // trivially empty outcome instead of panicking deep in the engine.
    let Ok(exploration) = Explorer::new().explore_sequence(instrs) else {
        return SequenceOutcome {
            instructions: Vec::new(),
            paths_found: 0,
            curated: 0,
            verdicts: Vec::new(),
            witness_errors: 0,
            oracle_panics: 0,
        };
    };
    let program = Program::Bytecode(instrs);
    let curated = exploration.curated_paths();
    let code_cache = CodeCache::new();
    let meta_cache = MetaCache::new();
    let mut harness = Harness::new(Target::Bytecode(kind), isas, &code_cache, &meta_cache);
    let verdicts = curated
        .iter()
        .map(|path| {
            let mut verdict = PathVerdict::new(program.tag());
            harness.check(&exploration.state, &path.model, program, false, &mut verdict);
            verdict
        })
        .collect();
    let tally = harness.finish();
    SequenceOutcome {
        instructions: instrs.to_vec(),
        paths_found: exploration.paths.len(),
        curated: curated.len(),
        verdicts,
        witness_errors: tally.witness_errors,
        oracle_panics: tally.oracle_panics,
    }
}

/// Derives a *minimal relevant sequence* from one explored
/// single-instruction path: the materialized operand-stack values
/// become real push bytecodes in front of the instruction.
///
/// Answers `None` when an operand cannot be expressed as a push
/// bytecode (non-trivial heap objects need the literal frame, which a
/// standalone sequence does not carry).
pub fn minimal_sequence_for_path(
    state: &AbstractState,
    model: &Model,
    instr: Instruction,
) -> Option<Vec<Instruction>> {
    let stack_size = model.int_value(state.stack_size).clamp(0, 8) as usize;
    let mut seq = Vec::with_capacity(stack_size + 1);
    // Deepest first.
    for d in (0..stack_size).rev() {
        let var = *state.stack_vars.get(d)?;
        let a = model.assignment(var);
        let push = match a.kind {
            igjit_solver::Kind::SmallInt => {
                let v = a.int.clamp(igjit_heap::SMALL_INT_MIN, igjit_heap::SMALL_INT_MAX);
                match v {
                    0 => Instruction::PushZero,
                    1 => Instruction::PushOne,
                    -1 => Instruction::PushMinusOne,
                    2 => Instruction::PushTwo,
                    v if (-128..=127).contains(&v) => Instruction::PushInteger(v as i8),
                    _ => return None, // would need a literal slot
                }
            }
            igjit_solver::Kind::Nil => Instruction::PushNil,
            igjit_solver::Kind::True => Instruction::PushTrue,
            igjit_solver::Kind::False => Instruction::PushFalse,
            _ => return None,
        };
        seq.push(push);
    }
    seq.push(instr);
    Some(seq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::Verdict;
    use igjit_concolic::InstrUnderTest;

    const BOTH: [Isa; 2] = [Isa::X86ish, Isa::Arm32ish];

    #[test]
    fn empty_sequence_yields_empty_outcome() {
        let o = test_sequence(&[], CompilerKind::StackToRegister, &BOTH);
        assert_eq!(o.paths_found, 0);
        assert_eq!(o.curated, 0);
        assert!(o.verdicts.is_empty());
        assert_eq!(o.difference_count(), 0);
    }

    #[test]
    fn constant_sequences_agree_on_inlining_tiers() {
        for kind in [CompilerKind::StackToRegister, CompilerKind::RegisterAllocating] {
            let o = test_sequence(
                &[
                    Instruction::PushTwo,
                    Instruction::PushInteger(40),
                    Instruction::Add,
                    Instruction::Dup,
                    Instruction::Pop,
                ],
                kind,
                &BOTH,
            );
            assert!(o.paths_found >= 1);
            assert_eq!(o.difference_count(), 0, "{kind:?}: {:?}", o.verdicts);
        }
    }

    #[test]
    fn constant_arith_sequence_exposes_simple_tier_gap() {
        // The same sequence on the Simple tier diverges: its Add
        // always sends, the interpreter's does not — the optimisation
        // difference shows up in sequences too.
        let o = test_sequence(
            &[Instruction::PushTwo, Instruction::PushInteger(40), Instruction::Add],
            CompilerKind::SimpleStackBased,
            &BOTH,
        );
        assert_eq!(o.difference_count(), 1, "{:?}", o.verdicts);
    }

    #[test]
    fn pure_stack_sequences_agree_on_every_tier() {
        for kind in CompilerKind::ALL {
            let o = test_sequence(
                &[
                    Instruction::PushTwo,
                    Instruction::Dup,
                    Instruction::PushTrue,
                    Instruction::Pop,
                    Instruction::Pop,
                ],
                kind,
                &BOTH,
            );
            assert_eq!(o.difference_count(), 0, "{kind:?}: {:?}", o.verdicts);
        }
    }

    #[test]
    fn chained_arith_flows_through_the_parse_time_stack() {
        // Two adds back to back: the first result is consumed by the
        // second without touching the machine stack on the register
        // tiers — and the engines still agree on the integer paths.
        let o = test_sequence(
            &[Instruction::Add, Instruction::Add],
            CompilerKind::StackToRegister,
            &BOTH,
        );
        assert!(o.paths_found >= 4);
        for v in &o.verdicts {
            if let Verdict::Difference(_) = v.verdict {
                // Only the float-optimisation gap may show up.
                assert_eq!(
                    v.cause.as_ref().unwrap().category,
                    crate::DefectCategory::OptimisationDifference,
                    "{v:?}"
                );
            }
        }
    }

    #[test]
    fn sequences_with_stores_and_jumps_agree() {
        let o = test_sequence(
            &[
                Instruction::PushOne,
                Instruction::PopIntoTemp(0),
                Instruction::PushTemp(0),
                Instruction::PushTrue,
                Instruction::ShortJumpFalse(4),
                Instruction::Pop,
            ],
            CompilerKind::StackToRegister,
            &BOTH,
        );
        assert_eq!(o.difference_count(), 0, "{:?}", o.verdicts);
    }

    #[test]
    fn minimal_sequences_replay_their_paths() {
        // Derive a standalone sequence from each int-only Add path and
        // check the derived sequence tests clean.
        let r = Explorer::new().explore(InstrUnderTest::Bytecode(Instruction::Add));
        let mut derived = 0;
        for p in r.curated_paths() {
            if let Some(seq) =
                minimal_sequence_for_path(&r.state, &p.model, Instruction::Add)
            {
                derived += 1;
                let o = test_sequence(&seq, CompilerKind::RegisterAllocating, &[Isa::X86ish]);
                // The derived sequence may re-expose the known
                // float-path optimisation gap (its exploration covers
                // all of Add's branches again), but nothing else.
                for v in &o.verdicts {
                    if let Verdict::Difference(_) = v.verdict {
                        assert_eq!(
                            v.cause.as_ref().unwrap().category,
                            crate::DefectCategory::OptimisationDifference,
                            "derived {seq:?}: {v:?}"
                        );
                    }
                }
            }
        }
        assert!(derived >= 1, "at least the int paths derive");
    }
}
