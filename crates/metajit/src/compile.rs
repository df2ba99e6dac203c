//! Driving the evaluator and assembling the compiled artifact.

use igjit_bytecode::Instruction;
use igjit_heap::Oop;
use igjit_interp::{step_spec, Frame, MethodInfo, Selector, StepOutcome};
use igjit_jit::{backend, CompileError, CompiledCode, Convention, Ir, VReg,
                MUST_BE_BOOLEAN_SELECTOR, SPILL_BYTES};
use igjit_machine::{AluOp, Isa};

use crate::eval::{MetaContext, MetaVal};

/// Partially evaluates `instr` against the concrete frame shape and
/// emits a compiled test method following the §4.2 schema — same
/// preamble, exit tails and breakpoint codes as the hand-written
/// tiers, so the differential runner's machine-exit decoding applies
/// unchanged.
///
/// Whatever the evaluator cannot decide is a refusal,
/// [`CompileError::Unsupported`]; the tier stays total, since every
/// refusal routes the run through the interpreter trampoline instead.
/// A back-end failure keeps its own [`CompileError`].
///
/// The receiver is the only dynamic input: it rides in the
/// convention's receiver register and is deliberately absent from the
/// embedded constants, exactly like the hand tiers. Everything else
/// (operand stack, temps, literals, the special oops) is baked in.
pub fn compile_meta(
    instr: Instruction,
    frame: &Frame<Oop>,
    nil: Oop,
    true_obj: Oop,
    false_obj: Oop,
    isa: Isa,
) -> Result<CompiledCode, CompileError> {
    if !step_spec(instr).supported {
        return Err(CompileError::Unsupported("instruction unsupported by the interpreter"));
    }
    let conv = Convention::for_isa(isa);
    let mut ctx = MetaContext::new(conv, nil, true_obj, false_obj);

    // Lift the frame: every value is a compile-time constant except
    // the receiver, which enters as the receiver register.
    let method = MethodInfo {
        literals: frame.method.literals.iter().map(|&o| MetaVal::Static(o)).collect(),
        num_args: frame.method.num_args,
        num_temps: frame.method.num_temps,
    };
    let mut mframe = Frame::new(MetaVal::Dyn(conv.receiver), method);
    mframe.temps = frame.temps.iter().map(|&o| MetaVal::Static(o)).collect();
    mframe.stack = frame.stack.iter().map(|&o| MetaVal::Static(o)).collect();

    // One step of the interpreter — the single copy of the semantics —
    // with values that fold or emit IR.
    let outcome = igjit_interp::step(&mut ctx, &mut mframe, instr);
    if let Some(reason) = ctx.stuck {
        return Err(CompileError::Unsupported(reason));
    }

    // Assemble: preamble (frame pointer, *final* temp values, spill
    // reserve), then the heap accesses the evaluation recorded, then
    // the exit tail for the statically-decided outcome.
    let mut ir: Vec<Ir> = Vec::new();
    let sp = VReg::phys(conv.sp);
    let fp = VReg::phys(conv.fp);
    let t_mat = VReg::phys(conv.arg2);
    ir.push(Ir::MovReg { dst: fp, src: sp });
    for &t in &mframe.temps {
        let MetaVal::Static(o) = t else {
            // A runtime value cannot be pushed before the body that
            // loads it has run; no current opcode produces this.
            return Err(CompileError::Unsupported("runtime value in a temp slot"));
        };
        ir.push(Ir::MovImm { dst: t_mat, imm: o.0 });
        ir.push(Ir::Push { src: t_mat });
    }
    ir.push(Ir::AluImm { op: AluOp::Sub, dst: sp, a: sp, imm: SPILL_BYTES });
    ir.extend(ctx.body.iter().copied());

    match outcome {
        StepOutcome::Continue => {
            // Flush the final operand stack bottom-first (the machine
            // stack grows down, so the last push lands at SP — the
            // extraction reads SP upward and reverses).
            for &v in &mframe.stack {
                match v {
                    MetaVal::Static(o) => {
                        ir.push(Ir::MovImm { dst: t_mat, imm: o.0 });
                        ir.push(Ir::Push { src: t_mat });
                    }
                    MetaVal::Dyn(r) => ir.push(Ir::Push { src: VReg::phys(r) }),
                }
            }
            ir.push(Ir::Stop(igjit_jit::stops::FALL_THROUGH));
        }
        StepOutcome::Jump { .. } => {
            // The jump was decided at compile time; the displacement is
            // an exit payload the extraction does not read.
            ir.push(Ir::Stop(igjit_jit::stops::JUMP_TAKEN));
        }
        StepOutcome::MethodReturn { value } => {
            let rr = VReg::phys(conv.receiver);
            match value {
                MetaVal::Static(o) => ir.push(Ir::MovImm { dst: rr, imm: o.0 }),
                MetaVal::Dyn(r) if r == conv.receiver => {}
                MetaVal::Dyn(r) => ir.push(Ir::MovReg { dst: rr, src: VReg::phys(r) }),
            }
            ir.push(Ir::MovReg { dst: sp, src: fp });
            ir.push(Ir::Ret);
        }
        StepOutcome::MessageSend { selector, receiver, args } => {
            if args.len() > 3 {
                return Err(CompileError::Unsupported("send arity above the convention's registers"));
            }
            // Arguments first (their targets are never runtime-value
            // homes), receiver last (its target may *be* a pending
            // runtime value's home).
            for (i, &a) in args.iter().enumerate() {
                let dst = VReg::phys(conv.arg(i));
                match a {
                    MetaVal::Static(o) => ir.push(Ir::MovImm { dst, imm: o.0 }),
                    MetaVal::Dyn(r) if VReg::phys(r) == dst => {}
                    MetaVal::Dyn(r) => ir.push(Ir::MovReg { dst, src: VReg::phys(r) }),
                }
            }
            let rr = VReg::phys(conv.receiver);
            match receiver {
                MetaVal::Static(o) => ir.push(Ir::MovImm { dst: rr, imm: o.0 }),
                MetaVal::Dyn(r) if r == conv.receiver => {}
                MetaVal::Dyn(r) => ir.push(Ir::MovReg { dst: rr, src: VReg::phys(r) }),
            }
            let selector_id = match selector {
                Selector::Special(s) => s.index(),
                Selector::MustBeBoolean => MUST_BE_BOOLEAN_SELECTOR,
                Selector::Literal(MetaVal::Static(o)) => o.0,
                Selector::Literal(MetaVal::Dyn(_)) => {
                    return Err(CompileError::Unsupported("runtime selector value"));
                }
            };
            ir.push(Ir::Send { selector_id });
        }
        StepOutcome::InvalidFrame => {
            return Err(CompileError::Unsupported("frame shape traps in the interpreter"));
        }
        StepOutcome::InvalidMemoryAccess => {
            return Err(CompileError::Unsupported("decided memory fault"));
        }
        StepOutcome::Unsupported { reason } => return Err(CompileError::Unsupported(reason)),
    }

    let code = backend::lower(&ir, isa)?;
    Ok(CompiledCode { code, isa, ntemps: mframe.temps.len() as u32 })
}
