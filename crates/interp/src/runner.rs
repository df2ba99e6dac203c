//! A concrete whole-method runner.
//!
//! The differential tester exercises single instructions, but the
//! examples (and the VM's own sanity tests) want to run entire
//! methods. This module drives [`step`](crate::step) through a
//! method's bytecode with proper pc management.

use igjit_bytecode::{decode, CompiledMethod, DecodeError};
use igjit_heap::{ObjectMemory, Oop};

use crate::concrete::ConcreteContext;
use crate::exit::{Selector, StepOutcome};
use crate::frame::{Frame, MethodInfo};
use crate::natives::{run_native, NativeMethodId, NativeOutcome};
use crate::predecode::PredecodedProgram;
use crate::step::step;

/// Why a method run stopped without returning a value.
#[derive(Clone, PartialEq, Debug)]
pub enum RunError {
    /// Bytecode decoding failed.
    Decode(DecodeError),
    /// A frame access was out of range.
    InvalidFrame,
    /// An object access was out of range.
    InvalidMemoryAccess,
    /// Unsupported VM feature was reached.
    Unsupported(&'static str),
    /// The step budget was exhausted (runaway loop).
    StepLimit,
    /// The method oop is malformed.
    BadMethod,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Decode(e) => write!(f, "decode error: {e}"),
            RunError::InvalidFrame => write!(f, "invalid frame access"),
            RunError::InvalidMemoryAccess => write!(f, "invalid memory access"),
            RunError::Unsupported(r) => write!(f, "unsupported: {r}"),
            RunError::StepLimit => write!(f, "step limit exhausted"),
            RunError::BadMethod => write!(f, "malformed compiled method"),
        }
    }
}

impl std::error::Error for RunError {}

/// How a method run finished.
#[derive(Clone, PartialEq, Debug)]
pub enum MethodResult {
    /// The method returned this value.
    Returned(Oop),
    /// The method performed a message send the standalone runner does
    /// not dispatch (described for diagnostics).
    Sent {
        /// Human-readable selector description.
        selector: String,
        /// The receiver of the send.
        receiver: Oop,
    },
}

const STEP_LIMIT: usize = 100_000;

/// Runs `method` (a compiled-method oop) with `receiver` and `args`.
///
/// If the method declares a primitive, the native method is attempted
/// first, falling back to the bytecode body on failure — exactly the
/// hybrid structure of §4.2. Uses the predecoded fetch loop; see
/// [`run_method_with`] for the knob.
pub fn run_method(
    mem: &mut ObjectMemory,
    method: Oop,
    receiver: Oop,
    args: &[Oop],
) -> Result<MethodResult, RunError> {
    run_method_with(mem, method, receiver, args, true)
}

/// [`run_method`] with explicit control over the fetch loop:
/// `predecode = true` decodes and dispatch-resolves the method once up
/// front ([`PredecodedProgram`], engine v8) and executes fused
/// push-pairs; `predecode = false` is the byte-at-a-time loop, kept as
/// the reference the predecoded one is property-tested against. The two
/// are step-for-step identical, including every decode error.
pub fn run_method_with(
    mem: &mut ObjectMemory,
    method: Oop,
    receiver: Oop,
    args: &[Oop],
    predecode: bool,
) -> Result<MethodResult, RunError> {
    let cm = CompiledMethod::new(method);
    let header = cm.header(mem).map_err(|_| RunError::BadMethod)?;
    let bytes = cm.bytecodes(mem).map_err(|_| RunError::BadMethod)?;
    let mut literals = Vec::with_capacity(usize::from(header.num_literals));
    for i in 0..u32::from(header.num_literals) {
        literals.push(cm.literal(mem, i).map_err(|_| RunError::BadMethod)?);
    }
    let nil = mem.nil();
    let mut frame = Frame::new(
        receiver,
        MethodInfo { literals, num_args: header.num_args, num_temps: header.num_temps },
    );
    frame.temps.extend_from_slice(args);
    frame.temps.resize(
        usize::from(header.num_args) + usize::from(header.num_temps),
        nil,
    );

    // Hybrid native methods: native behaviour first (§4.2).
    if header.primitive != 0 {
        let mut ctx = ConcreteContext::new(mem);
        // The native-method calling convention keeps receiver+args on
        // the operand stack.
        frame.push(receiver);
        for &a in args {
            frame.push(a);
        }
        match run_native(&mut ctx, &mut frame, NativeMethodId(header.primitive)) {
            NativeOutcome::Success { result } => return Ok(MethodResult::Returned(result)),
            NativeOutcome::Failure => {
                // Fall through to the bytecode body; drop the operands.
                frame.pop_n(args.len() + 1);
            }
            NativeOutcome::InvalidFrame => return Err(RunError::InvalidFrame),
            NativeOutcome::InvalidMemoryAccess => return Err(RunError::InvalidMemoryAccess),
            NativeOutcome::Unsupported { reason } => return Err(RunError::Unsupported(reason)),
        }
    }

    if predecode {
        run_predecoded(mem, &mut frame, &bytes)
    } else {
        run_bytes(mem, &mut frame, &bytes)
    }
}

/// What one settled step outcome means for the fetch loop.
enum Flow {
    /// Keep fetching at this pc.
    Next(usize),
    /// The run is over.
    Done(Result<MethodResult, RunError>),
}

/// Folds a [`StepOutcome`] into the runner's control flow; `pc`/`len`
/// locate the instruction that produced it and `code_len` sizes the
/// negative-jump decode error exactly as the byte loop always has.
fn apply_outcome(outcome: StepOutcome<Oop>, pc: usize, len: usize, code_len: usize) -> Flow {
    match outcome {
        StepOutcome::Continue => Flow::Next(pc + len),
        StepOutcome::Jump { displacement } => {
            let next = pc as i64 + len as i64 + i64::from(displacement);
            if next < 0 {
                Flow::Done(Err(RunError::Decode(DecodeError::PcOutOfRange {
                    pc: 0,
                    len: code_len,
                })))
            } else {
                Flow::Next(next as usize)
            }
        }
        StepOutcome::MethodReturn { value } => Flow::Done(Ok(MethodResult::Returned(value))),
        StepOutcome::MessageSend { selector, receiver, .. } => {
            let name = match selector {
                Selector::Special(s) => s.name().to_string(),
                Selector::MustBeBoolean => "mustBeBoolean".to_string(),
                Selector::Literal(oop) => format!("{oop:?}"),
            };
            Flow::Done(Ok(MethodResult::Sent { selector: name, receiver }))
        }
        StepOutcome::InvalidFrame => Flow::Done(Err(RunError::InvalidFrame)),
        StepOutcome::InvalidMemoryAccess => Flow::Done(Err(RunError::InvalidMemoryAccess)),
        StepOutcome::Unsupported { reason } => Flow::Done(Err(RunError::Unsupported(reason))),
    }
}

/// The historical fetch loop: decode at pc, dispatch, repeat.
fn run_bytes(
    mem: &mut ObjectMemory,
    frame: &mut Frame<Oop>,
    bytes: &[u8],
) -> Result<MethodResult, RunError> {
    let mut pc: usize = 0;
    for _ in 0..STEP_LIMIT {
        if pc >= bytes.len() {
            // Falling off the end answers the receiver, like an
            // implicit `^self`.
            return Ok(MethodResult::Returned(frame.receiver));
        }
        let (instr, len) = decode(bytes, pc).map_err(RunError::Decode)?;
        let mut ctx = ConcreteContext::new(mem);
        match apply_outcome(step(&mut ctx, frame, instr), pc, len, bytes.len()) {
            Flow::Next(next) => pc = next,
            Flow::Done(r) => return r,
        }
    }
    Err(RunError::StepLimit)
}

/// The engine-v8 fetch loop: decode and dispatch-resolve the whole
/// method once, then fetch steps through the jump table, chaining
/// fused push-pairs without a re-fetch. Off-boundary pcs fall back to
/// the byte decoder so decode faults reproduce exactly.
fn run_predecoded(
    mem: &mut ObjectMemory,
    frame: &mut Frame<Oop>,
    bytes: &[u8],
) -> Result<MethodResult, RunError> {
    let prog = PredecodedProgram::new(bytes);
    let mut ctx = ConcreteContext::new(mem);
    let fns = prog.resolve();
    let steps = prog.steps();
    let mut pc: usize = 0;
    let mut steps_left = STEP_LIMIT;
    while steps_left > 0 {
        steps_left -= 1;
        if pc >= bytes.len() {
            return Ok(MethodResult::Returned(frame.receiver));
        }
        let (outcome, len) = match prog.lookup(pc) {
            Some(i) => {
                let s = steps[i];
                let o = fns[i](&mut ctx, frame, s.instr);
                if s.fuse_next && matches!(o, StepOutcome::Continue) && steps_left > 0 {
                    // Superinstruction: the next sequential step starts
                    // exactly at pc + len; execute it without a
                    // re-fetch, charging it one step of budget.
                    steps_left -= 1;
                    pc += usize::from(s.len);
                    let n = steps[i + 1];
                    (fns[i + 1](&mut ctx, frame, n.instr), usize::from(n.len))
                } else {
                    (o, usize::from(s.len))
                }
            }
            None => {
                let (instr, len) = decode(bytes, pc).map_err(RunError::Decode)?;
                (step(&mut ctx, frame, instr), len)
            }
        };
        match apply_outcome(outcome, pc, len, bytes.len()) {
            Flow::Next(next) => pc = next,
            Flow::Done(r) => return r,
        }
    }
    Err(RunError::StepLimit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use igjit_bytecode::{Instruction, MethodBuilder};

    #[test]
    fn straight_line_arithmetic() {
        let mut mem = ObjectMemory::new();
        let mut b = MethodBuilder::new(0, 0);
        b.push_small_int(6);
        b.push_small_int(7);
        b.emit(Instruction::Multiply);
        b.emit(Instruction::ReturnTop);
        let m = b.install(&mut mem).unwrap();
        let nil = mem.nil();
        assert_eq!(
            run_method(&mut mem, m, nil, &[]).unwrap(),
            MethodResult::Returned(Oop::from_small_int(42))
        );
    }

    #[test]
    fn arguments_are_temps() {
        let mut mem = ObjectMemory::new();
        let mut b = MethodBuilder::new(2, 0);
        b.emit(Instruction::PushTemp(0));
        b.emit(Instruction::PushTemp(1));
        b.emit(Instruction::Subtract);
        b.emit(Instruction::ReturnTop);
        let m = b.install(&mut mem).unwrap();
        let nil = mem.nil();
        let r = run_method(
            &mut mem,
            m,
            nil,
            &[Oop::from_small_int(50), Oop::from_small_int(8)],
        )
        .unwrap();
        assert_eq!(r, MethodResult::Returned(Oop::from_small_int(42)));
    }

    #[test]
    fn conditional_branches_execute() {
        // if 3 < 5 then 1 else 2
        let mut mem = ObjectMemory::new();
        let mut b = MethodBuilder::new(0, 0);
        b.push_small_int(3);
        b.push_small_int(5);
        b.emit(Instruction::LessThan);
        b.emit(Instruction::ShortJumpFalse(2)); // skip "push 1; return"
        b.emit(Instruction::PushOne);
        b.emit(Instruction::ReturnTop);
        b.emit(Instruction::PushTwo);
        b.emit(Instruction::ReturnTop);
        let m = b.install(&mut mem).unwrap();
        let nil = mem.nil();
        assert_eq!(
            run_method(&mut mem, m, nil, &[]).unwrap(),
            MethodResult::Returned(Oop::from_small_int(1))
        );
    }

    #[test]
    fn backward_jumps_loop() {
        // temp0 := 0; [temp0 := temp0 + 1. temp0 < 5] whileTrue. ^temp0
        let mut mem = ObjectMemory::new();
        let mut b = MethodBuilder::new(0, 1);
        b.emit(Instruction::PushZero);
        b.emit(Instruction::PopIntoTemp(0)); // pc 0..2
        // loop body starts at pc 2
        b.emit(Instruction::PushTemp(0));
        b.emit(Instruction::PushOne);
        b.emit(Instruction::Add);
        b.emit(Instruction::PopIntoTemp(0));
        b.emit(Instruction::PushTemp(0));
        b.push_small_int(5);
        b.emit(Instruction::LessThan);
        // jump back to pc 2 when true: after this instr pc = 11; target 2 → disp -9
        b.emit(Instruction::LongJumpTrue(0)); // placeholder, patched below
        b.emit(Instruction::PushTemp(0));
        b.emit(Instruction::ReturnTop);
        let m = b.install(&mut mem).unwrap();
        // Patch: LongJumpTrue takes u8 (forward only); use LongJumpForward
        // semantics via a handcrafted method instead.
        let mut b2 = MethodBuilder::new(0, 1);
        b2.emit(Instruction::PushZero);
        b2.emit(Instruction::PopIntoTemp(0));
        b2.emit(Instruction::PushTemp(0));
        b2.emit(Instruction::PushOne);
        b2.emit(Instruction::Add);
        b2.emit(Instruction::PopIntoTemp(0));
        b2.emit(Instruction::PushTemp(0));
        b2.push_small_int(5);
        b2.emit(Instruction::GreaterOrEqual);
        // if >= 5 skip the back jump (2 bytes)
        b2.emit(Instruction::ShortJumpTrue(2));
        b2.emit(Instruction::LongJumpForward(-11)); // back to pc 2
        b2.emit(Instruction::PushTemp(0));
        b2.emit(Instruction::ReturnTop);
        let m2 = b2.install(&mut mem).unwrap();
        let _ = m;
        let nil = mem.nil();
        assert_eq!(
            run_method(&mut mem, m2, nil, &[]).unwrap(),
            MethodResult::Returned(Oop::from_small_int(5))
        );
    }

    #[test]
    fn hybrid_native_method_success_and_fallback() {
        let mut mem = ObjectMemory::new();
        // primitiveAdd with a bytecode fallback answering 99.
        let mut b = MethodBuilder::new(1, 0);
        b.primitive(1);
        b.push_small_int(99);
        b.emit(Instruction::ReturnTop);
        let m = b.install(&mut mem).unwrap();
        let five = Oop::from_small_int(5);
        let three = Oop::from_small_int(3);
        assert_eq!(
            run_method(&mut mem, m, five, &[three]).unwrap(),
            MethodResult::Returned(Oop::from_small_int(8))
        );
        // Failure path: non-integer argument → bytecode body.
        let arr = mem.instantiate_array(&[]).unwrap();
        assert_eq!(
            run_method(&mut mem, m, five, &[arr]).unwrap(),
            MethodResult::Returned(Oop::from_small_int(99))
        );
    }

    #[test]
    fn sends_are_reported() {
        let mut mem = ObjectMemory::new();
        let mut b = MethodBuilder::new(0, 0);
        let f = mem.instantiate_float(1.5).unwrap();
        b.push_literal(f);
        b.push_small_int(1);
        b.emit(Instruction::Add);
        b.emit(Instruction::ReturnTop);
        let m = b.install(&mut mem).unwrap();
        let nil = mem.nil();
        match run_method(&mut mem, m, nil, &[]).unwrap() {
            MethodResult::Sent { selector, .. } => assert_eq!(selector, "+"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn infinite_loop_hits_step_limit() {
        let mut mem = ObjectMemory::new();
        let mut b = MethodBuilder::new(0, 0);
        b.emit(Instruction::Nop);
        b.emit(Instruction::LongJumpForward(-3));
        let m = b.install(&mut mem).unwrap();
        let nil = mem.nil();
        assert_eq!(run_method(&mut mem, m, nil, &[]), Err(RunError::StepLimit));
    }

    #[test]
    fn implicit_return_of_receiver() {
        let mut mem = ObjectMemory::new();
        let mut b = MethodBuilder::new(0, 0);
        b.emit(Instruction::Nop);
        let m = b.install(&mut mem).unwrap();
        let rcvr = Oop::from_small_int(123);
        assert_eq!(
            run_method(&mut mem, m, rcvr, &[]).unwrap(),
            MethodResult::Returned(rcvr)
        );
    }
}
