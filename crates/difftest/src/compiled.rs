//! Running compiled code for one explored path.

use std::time::{Duration, Instant};

use igjit_bytecode::SpecialSelector;
use igjit_concolic::InstrUnderTest;
use igjit_heap::{ObjectMemory, Oop};
use igjit_interp::native_spec;
use igjit_jit::{
    compile_native_test, BytecodeTestInput, CodeCache, CompileError, CompileKeyRef, CompilerKind,
    Convention, NativeTestInput, MUST_BE_BOOLEAN_SELECTOR, SPILL_BYTES,
};
use igjit_machine::{Isa, Machine, MachineConfig, MachineOutcome, MachineSession};

use crate::campaign::StageTimes;
use crate::oracle::{EngineExit, SelectorId};

/// Outcome of a compiled run (or the compiler's refusal).
#[derive(Clone, Debug)]
pub enum CompiledRun {
    /// Compiled and executed; observable behaviour inside.
    Ran(EngineExit),
    /// The front-end refused (missing functionality / unsupported).
    Refused(CompileError),
}

/// Shared execution context for a batch of compiled runs: the artifact
/// cache and the persistent simulator session every run replays
/// through.
///
/// The campaign creates one per `test_instruction_with` call; the
/// session is *reset* — registers zeroed, dirty stack extent cleared —
/// between runs instead of reallocating the 64 KiB stack per model.
pub struct RunCtx<'c> {
    /// Compiled-artifact cache, shared across instructions and worker
    /// threads by the campaign driver.
    pub cache: &'c CodeCache,
    /// The persistent machine session (registers + stack arena).
    pub session: &'c mut MachineSession,
}

pub(crate) fn selector_of(id: u32) -> SelectorId {
    if id == MUST_BE_BOOLEAN_SELECTOR {
        return SelectorId::MustBeBoolean;
    }
    match SpecialSelector::from_index(id) {
        Some(s) => SelectorId::Special(s),
        None => SelectorId::Literal(Oop(id)),
    }
}

/// Compiles and runs a bytecode instruction test: the operand stack,
/// temps and literals of `frame` are embedded as constants (§4.2);
/// the receiver rides in the convention register.
///
/// `mem` must be a *fresh* materialization of the same model the
/// oracle ran on. Returns the run plus the mutated heap.
pub fn run_compiled_bytecode(
    kind: CompilerKind,
    isa: Isa,
    instr: igjit_bytecode::Instruction,
    frame: &igjit_interp::Frame<Oop>,
    mem: ObjectMemory,
    send_arity_hint: usize,
) -> (CompiledRun, ObjectMemory) {
    run_compiled_sequence(kind, isa, &[instr], frame, mem, send_arity_hint)
}

/// Compiles and runs a straight-line bytecode *sequence* test (the
/// future-work extension): same schema, several instructions generated
/// back to back.
pub fn run_compiled_sequence(
    kind: CompilerKind,
    isa: Isa,
    instrs: &[igjit_bytecode::Instruction],
    frame: &igjit_interp::Frame<Oop>,
    mut mem: ObjectMemory,
    send_arity_hint: usize,
) -> (CompiledRun, ObjectMemory) {
    let mut scratch = StageTimes::default();
    let cache = CodeCache::disabled();
    let mut session = MachineSession::new();
    let mut ctx = RunCtx { cache: &cache, session: &mut session };
    let run = run_compiled_sequence_timed(
        kind, isa, instrs, frame, &mut mem, send_arity_hint, &mut ctx, &mut scratch,
    );
    (run, mem)
}

/// [`run_compiled_sequence`] with the campaign's execution context
/// (artifact cache, persistent session) and with the
/// per-stage wall clock split out into `times` for the observability
/// layer. Mutates `mem` in place so the campaign can run on a sealed
/// base image and roll it back between ISAs instead of rebuilding it.
#[allow(clippy::too_many_arguments)]
pub fn run_compiled_sequence_timed(
    kind: CompilerKind,
    isa: Isa,
    instrs: &[igjit_bytecode::Instruction],
    frame: &igjit_interp::Frame<Oop>,
    mem: &mut ObjectMemory,
    send_arity_hint: usize,
    ctx: &mut RunCtx<'_>,
    times: &mut StageTimes,
) -> CompiledRun {
    let input = BytecodeTestInput {
        instruction: instrs[0],
        operand_stack: &frame.stack,
        temps: &frame.temps,
        literals: &frame.method.literals,
        nil: mem.nil(),
        true_obj: mem.true_object(),
        false_obj: mem.false_object(),
    };
    // Everything the generated code depends on (§4.2: frame values are
    // embedded as constants; the receiver rides in a register and is
    // deliberately absent). The key borrows the frame's own slices —
    // an owned key is only materialized inside the cache on a miss.
    let t_hash = Instant::now();
    let key = CompileKeyRef::Bytecode {
        kind,
        isa,
        instrs,
        stack: &frame.stack,
        temps: &frame.temps,
        literals: &frame.method.literals,
        nil: mem.nil().0,
        true_obj: mem.true_object().0,
        false_obj: mem.false_object().0,
    };
    let mut compile_time = Duration::ZERO;
    let entry = ctx.cache.get_or_compile_ref(key, || {
        let t0 = Instant::now();
        let artifact = igjit_jit::compile_bytecode_sequence_test(kind, instrs, &input, isa);
        compile_time = t0.elapsed();
        artifact
    });
    times.hash += t_hash.elapsed().saturating_sub(compile_time);
    times.compile += compile_time;
    let compiled = match &*entry {
        Ok(c) => c,
        Err(e) => return CompiledRun::Refused(e.clone()),
    };
    let frame_bytes = 4 * compiled.ntemps + SPILL_BYTES;
    let conv = Convention::for_isa(isa);
    let ntemps = compiled.ntemps;
    let t_setup = Instant::now();
    let mut m = Machine::with_session(mem, isa, &compiled.code, ctx.session);
    m.set_reg(conv.receiver, frame.receiver.0);
    times.setup += t_setup.elapsed();
    let t_sim = Instant::now();
    let outcome = m.run(MachineConfig::default());
    times.simulate += t_sim.elapsed();
    let t_report = Instant::now();
    let exit = match outcome {
        MachineOutcome::Breakpoint { code } if code == igjit_jit::stops::FALL_THROUGH => {
            // Operand stack: words between SP and the frame base,
            // top first; reverse to bottom-first.
            let sp = m.reg(conv.sp);
            let limit = m.initial_sp().wrapping_sub(frame_bytes);
            let mut stack = Vec::new();
            let mut a = sp;
            while a < limit {
                match m.read_stack(a) {
                    Ok(w) => stack.push(Oop(w)),
                    Err(_) => break,
                }
                a += 4;
            }
            stack.reverse();
            // Temps from the frame slots.
            let fp = m.reg(conv.fp);
            let temps: Vec<Oop> = (0..ntemps)
                .map(|i| Oop(m.read_stack(fp.wrapping_sub(4 * (i + 1))).unwrap_or(0)))
                .collect();
            EngineExit::Success { stack, temps, result: None }
        }
        MachineOutcome::Breakpoint { .. } => EngineExit::JumpTaken,
        MachineOutcome::ReturnedToCaller => {
            EngineExit::Return { value: Oop(m.reg(conv.receiver)) }
        }
        MachineOutcome::Send { selector_id } => {
            let selector = selector_of(selector_id);
            let receiver = Oop(m.reg(conv.receiver));
            let args: Vec<Oop> = (0..send_arity_hint.min(3))
                .map(|i| Oop(m.reg(conv.arg(i))))
                .collect();
            EngineExit::Send { selector, receiver, args }
        }
        MachineOutcome::MemoryFault { .. } => EngineExit::InvalidMemory,
        MachineOutcome::SimulationError { register } => EngineExit::SimulationError(register),
        MachineOutcome::StepLimit => EngineExit::EngineError("machine step limit".into()),
        MachineOutcome::DecodeFault { pc } => {
            EngineExit::EngineError(format!("decode fault at 0x{pc:08x}"))
        }
    };
    times.report += t_report.elapsed();
    CompiledRun::Ran(exit)
}

/// Compiles and runs a native-method test: receiver and args ride in
/// the convention registers (Listing 4's schema).
pub fn run_compiled_native(
    isa: Isa,
    id: igjit_interp::NativeMethodId,
    receiver: Oop,
    args: &[Oop],
    mut mem: ObjectMemory,
) -> (CompiledRun, ObjectMemory) {
    let mut scratch = StageTimes::default();
    let cache = CodeCache::disabled();
    let mut session = MachineSession::new();
    let mut ctx = RunCtx { cache: &cache, session: &mut session };
    let run =
        run_compiled_native_timed(isa, id, receiver, args, &mut mem, &mut ctx, &mut scratch);
    (run, mem)
}

/// [`run_compiled_native`] with the campaign's execution context and
/// with the per-stage wall clock split out into `times`. Mutates `mem`
/// in place (see [`run_compiled_sequence_timed`]).
pub fn run_compiled_native_timed(
    isa: Isa,
    id: igjit_interp::NativeMethodId,
    receiver: Oop,
    args: &[Oop],
    mem: &mut ObjectMemory,
    ctx: &mut RunCtx<'_>,
    times: &mut StageTimes,
) -> CompiledRun {
    let input = NativeTestInput {
        nil: mem.nil(),
        true_obj: mem.true_object(),
        false_obj: mem.false_object(),
    };
    // Native templates depend only on the method id, the ISA and the
    // special oops — receiver and arguments ride in registers.
    let t_hash = Instant::now();
    let key = CompileKeyRef::Native {
        id: u32::from(id.0),
        isa,
        nil: mem.nil().0,
        true_obj: mem.true_object().0,
        false_obj: mem.false_object().0,
    };
    let mut compile_time = Duration::ZERO;
    let entry = ctx.cache.get_or_compile_ref(key, || {
        let t0 = Instant::now();
        let artifact = compile_native_test(
            igjit_jit::native::igjit_bytecode_native_id::NativeMethodIdLike(id.0),
            input,
            isa,
        );
        compile_time = t0.elapsed();
        artifact
    });
    times.hash += t_hash.elapsed().saturating_sub(compile_time);
    times.compile += compile_time;
    let compiled = match &*entry {
        Ok(c) => c,
        Err(e) => return CompiledRun::Refused(e.clone()),
    };
    let conv = Convention::for_isa(isa);
    let argc = native_spec(id).map(|s| s.argc as usize).unwrap_or(args.len());
    let t_setup = Instant::now();
    let mut m = Machine::with_session(mem, isa, &compiled.code, ctx.session);
    m.set_reg(conv.receiver, receiver.0);
    for (i, a) in args.iter().take(argc.min(3)).enumerate() {
        m.set_reg(conv.arg(i), a.0);
    }
    times.setup += t_setup.elapsed();
    let t_sim = Instant::now();
    let outcome = m.run(MachineConfig::default());
    times.simulate += t_sim.elapsed();
    let t_report = Instant::now();
    let exit = match outcome {
        MachineOutcome::ReturnedToCaller => EngineExit::Success {
            stack: Vec::new(),
            temps: Vec::new(),
            result: Some(Oop(m.reg(conv.receiver))),
        },
        MachineOutcome::Breakpoint { .. } => EngineExit::Failure,
        MachineOutcome::Send { selector_id } => EngineExit::Send {
            selector: selector_of(selector_id),
            receiver: Oop(m.reg(conv.receiver)),
            args: Vec::new(),
        },
        MachineOutcome::MemoryFault { .. } => EngineExit::InvalidMemory,
        MachineOutcome::SimulationError { register } => EngineExit::SimulationError(register),
        MachineOutcome::StepLimit => EngineExit::EngineError("machine step limit".into()),
        MachineOutcome::DecodeFault { pc } => {
            EngineExit::EngineError(format!("decode fault at 0x{pc:08x}"))
        }
    };
    times.report += t_report.elapsed();
    CompiledRun::Ran(exit)
}

/// Convenience: the compiled-run entry point used by the campaign.
pub fn run_compiled_for_instr(
    target_kind: Option<CompilerKind>,
    isa: Isa,
    instr: InstrUnderTest,
    frame: &igjit_interp::Frame<Oop>,
    mut mem: ObjectMemory,
) -> (CompiledRun, ObjectMemory) {
    let mut scratch = StageTimes::default();
    let cache = CodeCache::disabled();
    let mut session = MachineSession::new();
    let mut ctx = RunCtx { cache: &cache, session: &mut session };
    let run = run_compiled_for_instr_timed(
        target_kind, isa, instr, frame, &mut mem, &mut ctx, &mut scratch,
    );
    (run, mem)
}

/// [`run_compiled_for_instr`] with the campaign's execution context
/// and with the per-stage wall clock split out into `times`. Mutates
/// `mem` in place (see [`run_compiled_sequence_timed`]).
pub fn run_compiled_for_instr_timed(
    target_kind: Option<CompilerKind>,
    isa: Isa,
    instr: InstrUnderTest,
    frame: &igjit_interp::Frame<Oop>,
    mem: &mut ObjectMemory,
    ctx: &mut RunCtx<'_>,
    times: &mut StageTimes,
) -> CompiledRun {
    match instr {
        InstrUnderTest::Bytecode(i) => {
            let arity = i.stack_arity() as usize;
            run_compiled_sequence_timed(
                target_kind.expect("bytecode target needs a compiler kind"),
                isa,
                &[i],
                frame,
                mem,
                arity.saturating_sub(1),
                ctx,
                times,
            )
        }
        InstrUnderTest::Native(id) => {
            match crate::oracle::native_operands(frame, id) {
                Some((receiver, args)) => {
                    run_compiled_native_timed(isa, id, receiver, &args, mem, ctx, times)
                }
                None => CompiledRun::Ran(EngineExit::InvalidFrame),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igjit_bytecode::Instruction;
    use igjit_interp::{Frame, MethodInfo};

    fn si(v: i64) -> Oop {
        Oop::from_small_int(v)
    }

    #[test]
    fn compiled_add_matches_shape() {
        let mem = ObjectMemory::new();
        let mut frame = Frame::new(si(0), MethodInfo::empty());
        frame.stack = vec![si(20), si(22)];
        let (run, _) = run_compiled_bytecode(
            CompilerKind::StackToRegister,
            Isa::X86ish,
            Instruction::Add,
            &frame,
            mem,
            1,
        );
        match run {
            CompiledRun::Ran(EngineExit::Success { stack, .. }) => {
                assert_eq!(stack, vec![si(42)]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn compiled_native_ffi_refuses() {
        let mem = ObjectMemory::new();
        let (run, _) = run_compiled_native(
            Isa::Arm32ish,
            igjit_interp::NativeMethodId(120),
            si(0),
            &[],
            mem,
        );
        assert!(matches!(run, CompiledRun::Refused(CompileError::NotImplemented(_))));
    }

    #[test]
    fn compiled_native_add_succeeds() {
        let mem = ObjectMemory::new();
        let (run, _) = run_compiled_native(
            Isa::X86ish,
            igjit_interp::NativeMethodId(1),
            si(20),
            &[si(3)],
            mem,
        );
        match run {
            CompiledRun::Ran(EngineExit::Success { result, .. }) => {
                assert_eq!(result, Some(si(23)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn cached_replay_through_a_reused_session_matches_the_first_run() {
        // The same compiled artifact, run twice through one session —
        // the second time from the cache — must produce the identical
        // exit.
        let cache = CodeCache::new();
        let mut session = MachineSession::new();
        let mut frame = Frame::new(si(0), MethodInfo::empty());
        frame.stack = vec![si(20), si(22)];
        let mut exits = Vec::new();
        for _ in 0..2 {
            let mut mem = ObjectMemory::new();
            let mut times = StageTimes::default();
            let mut ctx = RunCtx { cache: &cache, session: &mut session };
            let run = run_compiled_sequence_timed(
                CompilerKind::StackToRegister,
                Isa::X86ish,
                &[Instruction::Add],
                &frame,
                &mut mem,
                1,
                &mut ctx,
                &mut times,
            );
            match run {
                CompiledRun::Ran(exit) => exits.push(format!("{exit:?}")),
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(exits[0], exits[1]);
        assert_eq!(cache.hits(), 1);
    }
}
