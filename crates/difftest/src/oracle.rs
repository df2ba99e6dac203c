//! The interpreter oracle: concrete re-execution of an explored path.

use std::cell::Cell;

use igjit_bytecode::fxhash::FxHashMap;
use igjit_bytecode::{decode, encode, Instruction, SpecialSelector};
use igjit_concolic::{materialize_shared, AbstractState, InstrUnderTest};
use igjit_heap::{ObjectMemory, Oop};
use igjit_interp::{
    native_spec, run_native, step, ConcreteContext, Frame, MethodInfo, NativeOutcome, Selector,
    StepOutcome,
};
use igjit_solver::Model;

use crate::step::Program;

/// A message-send selector, comparable across engines.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SelectorId {
    /// Entry of the special-selector table.
    Special(SpecialSelector),
    /// The `mustBeBoolean` error send.
    MustBeBoolean,
    /// A literal selector oop.
    Literal(Oop),
}

/// Engine-neutral observable behaviour of one instruction execution.
#[derive(Clone, PartialEq, Debug)]
pub enum EngineExit {
    /// Fell through to the next instruction (bytecode) or returned to
    /// the caller (native method).
    Success {
        /// Operand stack after execution, bottom first (bytecodes).
        stack: Vec<Oop>,
        /// Temps after execution.
        temps: Vec<Oop>,
        /// The primitive's result (native methods).
        result: Option<Oop>,
    },
    /// A jump was taken.
    JumpTaken,
    /// The native method failed its operand validation.
    Failure,
    /// The method returned.
    Return {
        /// Returned value.
        value: Oop,
    },
    /// A message send left compiled/interpreted code.
    Send {
        /// The selector.
        selector: SelectorId,
        /// Receiver.
        receiver: Oop,
        /// Arguments.
        args: Vec<Oop>,
    },
    /// Frame too small — an expected failure the runner skips.
    InvalidFrame,
    /// Out-of-bounds object access.
    InvalidMemory,
    /// The simulated runtime itself failed (reflection table hole).
    SimulationError(String),
    /// Harness-level failure (step limits, undecodable code).
    EngineError(String),
}

impl EngineExit {
    /// Whether the differential runner should execute compiled code
    /// for a path with this interpreter exit (§3.4: invalid frame and
    /// invalid memory are expected failures for bytecodes).
    pub fn is_testable(&self) -> bool {
        matches!(
            self,
            EngineExit::Success { .. }
                | EngineExit::JumpTaken
                | EngineExit::Failure
                | EngineExit::Return { .. }
                | EngineExit::Send { .. }
        )
    }
}

/// Strips symbolic shadows from a materialized frame.
pub fn concrete_frame(frame: &Frame<igjit_concolic::SymOop>) -> Frame<Oop> {
    let mut f = Frame::new(Oop::ZERO, MethodInfo::empty());
    concrete_frame_into(frame, &mut f);
    f
}

/// [`concrete_frame`] into an existing frame, reusing its buffers.
pub(crate) fn concrete_frame_into(frame: &Frame<igjit_concolic::SymOop>, into: &mut Frame<Oop>) {
    fn fill(into: &mut Vec<Oop>, from: &[igjit_concolic::SymOop]) {
        into.clear();
        into.extend(from.iter().map(|v| v.concrete));
    }
    into.receiver = frame.receiver.concrete;
    fill(&mut into.method.literals, &frame.method.literals);
    into.method.num_args = frame.method.num_args;
    into.method.num_temps = frame.method.num_temps;
    fill(&mut into.temps, &frame.temps);
    fill(&mut into.stack, &frame.stack);
}

/// Everything an oracle run produced.
#[derive(Debug)]
pub struct OracleRun {
    /// Observable exit of the interpreter.
    pub exit: EngineExit,
    /// The heap after the run (for side-effect comparison).
    pub mem: ObjectMemory,
    /// The materialized input frame (for the compiled run to reuse).
    pub input_frame: Frame<Oop>,
    /// Variable→oop mapping of the materialization.
    pub var_oops: FxHashMap<igjit_solver::VarId, Oop>,
    /// Model assignments the materializer could not realize
    /// faithfully. Non-empty means the run used fallback inputs and
    /// must be reported as a test error, not compared.
    pub witness_errors: Vec<igjit_concolic::WitnessError>,
}

/// The oracle run: materializes `model` into a fresh heap and runs the
/// interpreter concretely (see [`run_oracle_on`]).
pub fn run_oracle(state: &AbstractState, model: &Model, instr: InstrUnderTest) -> OracleRun {
    let mut mem = ObjectMemory::new();
    let mat = materialize_shared(state, model, &mut mem);
    let input_frame = concrete_frame(&mat.frame);
    let mut frame = input_frame.clone();
    let exit = run_oracle_on(&mut mem, &mut frame, instr);
    OracleRun { exit, mem, input_frame, var_oops: mat.var_oops, witness_errors: mat.witness_errors }
}

/// Runs the interpreter concretely on an already-materialized frame
/// and heap, mutating both. This is the replay-friendly half of
/// [`run_oracle`]: the campaign materializes a sealed base image once
/// and feeds it here instead of rebuilding the heap.
///
/// A bytecode runs as the decoder reads its encoding, not as the enum
/// value handed in, so encoder/decoder drift shows up as a changed
/// oracle row.
pub fn run_oracle_on(
    mem: &mut ObjectMemory,
    frame: &mut Frame<Oop>,
    instr: InstrUnderTest,
) -> EngineExit {
    run_program_on(mem, frame, Program::of(&instr))
}

thread_local! {
    /// The encoded program of the thread's current oracle run, kept
    /// across runs so encoding allocates nothing once it has grown. A
    /// panicking run drops it and the next run starts a new one.
    static ENCODED: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// [`run_oracle_on`] for a whole program. The bytecodes are encoded and
/// decoded sequentially, and run in order as the decoder reads them; a
/// send, return, taken jump or fault ends the run with that exit, and
/// running off the end is a success.
pub(crate) fn run_program_on(
    mem: &mut ObjectMemory,
    frame: &mut Frame<Oop>,
    program: Program<'_>,
) -> EngineExit {
    match program {
        Program::Bytecode(instrs) => {
            let mut bytes = ENCODED.take();
            bytes.clear();
            for &i in instrs {
                encode(i, &mut bytes);
            }
            let exit = run_encoded(mem, frame, instrs, &bytes);
            ENCODED.set(bytes);
            exit
        }
        Program::Native(id) => match run_native(&mut ConcreteContext::new(mem), frame, id) {
            NativeOutcome::Success { result } => EngineExit::Success {
                stack: frame.stack.clone(),
                temps: frame.temps.clone(),
                result: Some(result),
            },
            NativeOutcome::Failure => EngineExit::Failure,
            NativeOutcome::InvalidFrame => EngineExit::InvalidFrame,
            NativeOutcome::InvalidMemoryAccess => EngineExit::InvalidMemory,
            NativeOutcome::Unsupported { reason } => EngineExit::EngineError(reason.into()),
        },
    }
}

/// Runs `instrs` as the decoder reads their encoding `bytes`.
fn run_encoded(
    mem: &mut ObjectMemory,
    frame: &mut Frame<Oop>,
    instrs: &[Instruction],
    bytes: &[u8],
) -> EngineExit {
    let mut ctx = ConcreteContext::new(mem);
    let mut pc = 0;
    let mut reading = std::iter::from_fn(|| {
        let (decoded, len) = decode(bytes, pc).ok()?;
        pc += len;
        Some(decoded)
    })
    .fuse();
    for &instr in instrs {
        // The decoder's reading; the enum value only past the
        // point where decoding stopped.
        let instr = reading.next().unwrap_or(instr);
        let exit = match step(&mut ctx, frame, instr) {
            StepOutcome::Continue => continue,
            StepOutcome::Jump { displacement: _ } => EngineExit::JumpTaken,
            StepOutcome::MethodReturn { value } => EngineExit::Return { value },
            StepOutcome::MessageSend { selector, receiver, args } => EngineExit::Send {
                selector: match selector {
                    Selector::Special(s) => SelectorId::Special(s),
                    Selector::MustBeBoolean => SelectorId::MustBeBoolean,
                    Selector::Literal(v) => SelectorId::Literal(v),
                },
                receiver,
                args,
            },
            StepOutcome::InvalidFrame => EngineExit::InvalidFrame,
            StepOutcome::InvalidMemoryAccess => EngineExit::InvalidMemory,
            StepOutcome::Unsupported { reason } => EngineExit::EngineError(reason.into()),
        };
        return exit;
    }
    EngineExit::Success {
        stack: frame.stack.clone(),
        temps: frame.temps.clone(),
        result: None,
    }
}

/// The receiver and argument slice of a native-method frame (receiver
/// deepest, per the native calling convention), borrowed from the
/// frame's stack.
pub(crate) fn native_operands(
    frame: &Frame<Oop>,
    id: igjit_interp::NativeMethodId,
) -> Option<(Oop, &[Oop])> {
    let argc = native_spec(id)?.argc as usize;
    let depth = frame.stack.len();
    if depth < argc + 1 {
        return None;
    }
    Some((frame.stack[depth - 1 - argc], &frame.stack[depth - argc..]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use igjit_bytecode::Instruction;
    use igjit_concolic::Explorer;
    use igjit_interp::NativeMethodId;

    #[test]
    fn oracle_reproduces_explored_outcomes() {
        let r = Explorer::new().explore(InstrUnderTest::Bytecode(Instruction::Add));
        for path in r.curated_paths() {
            let run = run_oracle(&r.state, &path.model, path.instruction);
            assert!(run.witness_errors.is_empty(), "solver witnesses are in range");
            // The oracle's exit class must match what the concolic run
            // observed for the same model.
            let expected = path.outcome.exit_condition().unwrap();
            let got = match &run.exit {
                EngineExit::Success { .. } | EngineExit::JumpTaken => {
                    igjit_interp::ExitCondition::Success
                }
                EngineExit::Failure => igjit_interp::ExitCondition::Failure,
                EngineExit::Return { .. } => igjit_interp::ExitCondition::MethodReturn,
                EngineExit::Send { .. } => igjit_interp::ExitCondition::MessageSend,
                EngineExit::InvalidFrame => igjit_interp::ExitCondition::InvalidFrame,
                EngineExit::InvalidMemory => igjit_interp::ExitCondition::InvalidMemoryAccess,
                other => panic!("{other:?}"),
            };
            assert_eq!(got, expected, "{:?}", path.constraints);
        }
    }

    #[test]
    fn native_operand_extraction() {
        let r = Explorer::new().explore(InstrUnderTest::Native(NativeMethodId(1)));
        let ok = r
            .curated_paths()
            .iter()
            .any(|p| {
                let run = run_oracle(&r.state, &p.model, p.instruction);
                matches!(run.exit, EngineExit::Success { .. })
                    && native_operands(&run.input_frame, NativeMethodId(1)).is_some()
            });
        assert!(ok, "at least one successful path with extractable operands");
    }
}
