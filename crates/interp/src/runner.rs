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
/// hybrid structure of §4.2. The body runs one instruction at a time:
/// decode at pc, [`step`], move pc.
pub fn run_method(
    mem: &mut ObjectMemory,
    method: Oop,
    receiver: Oop,
    args: &[Oop],
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
    let mut ctx = ConcreteContext::new(mem);

    // Hybrid native methods: native behaviour first (§4.2).
    if header.primitive != 0 {
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

    let mut pc: usize = 0;
    for _ in 0..STEP_LIMIT {
        if pc >= bytes.len() {
            // Falling off the end answers the receiver, like an
            // implicit `^self`.
            return Ok(MethodResult::Returned(frame.receiver));
        }
        let (instr, len) = decode(&bytes, pc).map_err(RunError::Decode)?;
        pc = match step(&mut ctx, &mut frame, instr) {
            StepOutcome::Continue => pc + len,
            StepOutcome::Jump { displacement } => {
                let next = pc as i64 + len as i64 + i64::from(displacement);
                usize::try_from(next).map_err(|_| {
                    RunError::Decode(DecodeError::PcOutOfRange { pc: 0, len: bytes.len() })
                })?
            }
            StepOutcome::MethodReturn { value } => return Ok(MethodResult::Returned(value)),
            StepOutcome::MessageSend { selector, receiver, .. } => {
                let selector = match selector {
                    Selector::Special(s) => s.name().to_string(),
                    Selector::MustBeBoolean => "mustBeBoolean".to_string(),
                    Selector::Literal(oop) => format!("{oop:?}"),
                };
                return Ok(MethodResult::Sent { selector, receiver });
            }
            StepOutcome::InvalidFrame => return Err(RunError::InvalidFrame),
            StepOutcome::InvalidMemoryAccess => return Err(RunError::InvalidMemoryAccess),
            StepOutcome::Unsupported { reason } => return Err(RunError::Unsupported(reason)),
        };
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
