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
use igjit_concolic::{materialize_shared, AbstractState, Explorer, InstrUnderTest};
use igjit_heap::{ObjectMemory, Oop};
use igjit_interp::{resolve_sequence, ConcreteContext, Frame, Selector, StepOutcome};
use igjit_jit::CompilerKind;
use igjit_machine::Isa;
use igjit_solver::Model;

use crate::campaign::PathVerdict;
use crate::classify::classify;
use crate::compare::{compare_runs, Verdict};
use crate::compiled::run_compiled_sequence;
use crate::oracle::{concrete_frame, EngineExit, SelectorId};

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
}

impl SequenceOutcome {
    /// Number of differing paths.
    pub fn difference_count(&self) -> usize {
        self.verdicts.iter().filter(|v| v.verdict.is_difference()).count()
    }
}

/// The concrete interpreter oracle for a sequence: step instructions
/// until an exit, running off the end is success. The sequence's step
/// functions are resolved once up front ([`resolve_sequence`]) and run
/// against one [`ConcreteContext`] — the resolved functions *are* what
/// [`igjit_interp::step`] dispatches to.
pub fn run_oracle_sequence(
    state: &AbstractState,
    model: &Model,
    instrs: &[Instruction],
) -> (EngineExit, ObjectMemory, Frame<Oop>) {
    let mut mem = ObjectMemory::new();
    let mat = materialize_shared(state, model, &mut mem);
    let input_frame = concrete_frame(&mat.frame);
    let mut frame = input_frame.clone();
    let mut early_exit = None;
    {
        let fns = resolve_sequence(instrs);
        let mut ctx = ConcreteContext::new(&mut mem);
        for (&instr, f) in instrs.iter().zip(&fns) {
            let outcome = f(&mut ctx, &mut frame, instr);
            let exit = match outcome {
                StepOutcome::Continue => continue,
                StepOutcome::Jump { .. } => EngineExit::JumpTaken,
                StepOutcome::MethodReturn { value } => EngineExit::Return { value },
                StepOutcome::MessageSend { selector, receiver, args } => {
                    let selector = match selector {
                        Selector::Special(s) => SelectorId::Special(s),
                        Selector::MustBeBoolean => SelectorId::MustBeBoolean,
                        Selector::Literal(v) => SelectorId::Literal(v),
                    };
                    EngineExit::Send { selector, receiver, args }
                }
                StepOutcome::InvalidFrame => EngineExit::InvalidFrame,
                StepOutcome::InvalidMemoryAccess => EngineExit::InvalidMemory,
                StepOutcome::Unsupported { reason } => EngineExit::EngineError(reason.into()),
            };
            early_exit = Some(exit);
            break;
        }
    }
    let exit = early_exit.unwrap_or_else(|| EngineExit::Success {
        stack: frame.stack.clone(),
        temps: frame.temps.clone(),
        result: None,
    });
    (exit, mem, input_frame)
}

/// Finds the sequence instruction a divergent compiled send points
/// at: when the compiled code bailed to a send the interpreter inlined
/// past, the sent *selector* names the diverging instruction.
fn diverging_instruction(
    instrs: &[Instruction],
    compiled: &crate::compiled::CompiledRun,
) -> Option<Instruction> {
    let crate::compiled::CompiledRun::Ran(EngineExit::Send {
        selector: SelectorId::Special(sel),
        ..
    }) = compiled
    else {
        return None;
    };
    instrs.iter().copied().find(|i| i.special_selector() == Some(*sel))
}

/// Differentially tests a bytecode sequence against one tier.
pub fn test_sequence(
    instrs: &[Instruction],
    kind: CompilerKind,
    isas: &[Isa],
) -> SequenceOutcome {
    // An empty sequence has no instruction under test; report the
    // trivially empty outcome instead of panicking deep in the engine.
    let Some(&last) = instrs.last() else {
        return SequenceOutcome {
            instructions: Vec::new(),
            paths_found: 0,
            curated: 0,
            verdicts: Vec::new(),
        };
    };
    let exploration = Explorer::new()
        .explore_sequence(instrs)
        .expect("sequence checked non-empty above");
    let curated: Vec<_> = exploration.curated_paths().into_iter().cloned().collect();
    let mut verdicts = Vec::new();
    let tag = InstrUnderTest::Bytecode(last);

    for path in &curated {
        let mut verdict = Verdict::Agree;
        let mut cause = None;
        let mut on_isa = None;
        let (interp_exit, interp_mem, _input) =
            run_oracle_sequence(&exploration.state, &path.model, instrs);
        if interp_exit.is_testable() {
            'isas: for &isa in isas {
                let mut mem2 = ObjectMemory::new();
                let mat = materialize_shared(&exploration.state, &path.model, &mut mem2);
                let frame2 = concrete_frame(&mat.frame);
                let arity = instrs.iter().map(|i| i.stack_arity() as usize).max().unwrap_or(0);
                let (compiled, compiled_mem) = run_compiled_sequence(
                    kind,
                    isa,
                    instrs,
                    &frame2,
                    mem2,
                    arity.saturating_sub(1),
                );
                let v = compare_runs(
                    &interp_exit,
                    &interp_mem,
                    &compiled,
                    &compiled_mem,
                    &mat.var_oops,
                );
                if let Verdict::Difference(d) = v {
                    // Attribute the cause to the instruction whose
                    // fast path diverged, not the sequence tail.
                    let culprit = diverging_instruction(instrs, &compiled)
                        .map(InstrUnderTest::Bytecode)
                        .unwrap_or(tag);
                    cause = Some(classify(culprit, Some(kind), &d));
                    verdict = Verdict::Difference(d);
                    on_isa = Some(isa);
                    break 'isas;
                }
            }
        }
        let all_causes = cause.clone().into_iter().collect();
        verdicts.push(PathVerdict {
            instruction: tag,
            interp_exit: String::new(),
            verdict,
            cause,
            all_causes,
            found_by_probe: false,
            isa: on_isa,
        });
    }

    SequenceOutcome {
        instructions: instrs.to_vec(),
        paths_found: exploration.paths.len(),
        curated: curated.len(),
        verdicts,
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
