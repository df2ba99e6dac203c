//! Running the meta-compiled tier (#5) for one explored path.
//!
//! The tier is **total from day one**: when the partial evaluator
//! refuses an (instruction, frame) pair — or the instruction is a
//! native method, which the evaluator does not model — the run falls
//! back to an *interpreter trampoline*: the instruction is interpreted
//! directly on the replay heap, so its side effects land exactly where
//! the comparison looks, and the row stays comparable. Coverage (runs
//! executed as machine code vs. trampolined) is counted per call and
//! reported per campaign run.
//!
//! Meta artifacts are not registered in the [`igjit_jit::CodeCache`]
//! (their key includes the whole embedded frame, which the code
//! cache's compile keys do not model); they live in the
//! campaign-owned [`MetaCache`] instead.

use igjit_concolic::InstrUnderTest;
use igjit_heap::{ObjectMemory, Oop};
use igjit_interp::Frame;
use igjit_jit::{stops, Convention, SPILL_BYTES};
use igjit_machine::{Isa, Machine, MachineConfig, MachineOutcome};
use igjit_metajit::{compile_meta, MetaArtifact, MetaCache};

use crate::campaign::StageTimes;
use crate::compiled::{selector_of, CompiledRun, RunCtx};
use crate::oracle::{run_oracle_on, EngineExit};

/// Coverage counters for the meta tier: how many compiled runs the
/// partial evaluator served vs. how many fell back to the trampoline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetaRunCounts {
    /// Runs executed as meta-compiled machine code.
    pub compiled: usize,
    /// Runs routed through the interpreter trampoline.
    pub trampolined: usize,
}

impl MetaRunCounts {
    /// Accumulates another sample into this one.
    pub fn merge(&mut self, other: &MetaRunCounts) {
        self.compiled += other.compiled;
        self.trampolined += other.trampolined;
    }
}

/// The meta tier's analogue of
/// [`run_compiled_for_instr_timed`](crate::run_compiled_for_instr_timed):
/// look up (or partially evaluate) the artifact for this (instruction,
/// frame) pair, run it on the simulator, and extract the engine exit —
/// or trampoline through the interpreter on refusal.
///
/// Evaluator+lowering time lands in [`StageTimes::meta_compile`], charged
/// inside the cache miss; cache lookups land in [`StageTimes::hash`],
/// and trampoline interpretation in [`StageTimes::simulate`] (it
/// substitutes for the simulator run).
#[allow(clippy::too_many_arguments)]
pub fn run_meta_for_instr_timed(
    meta_cache: &MetaCache,
    isa: Isa,
    instr: InstrUnderTest,
    frame: &Frame<Oop>,
    mem: &mut ObjectMemory,
    ctx: &mut RunCtx<'_>,
    times: &mut StageTimes,
    counts: &mut MetaRunCounts,
) -> CompiledRun {
    if let InstrUnderTest::Bytecode(i) = instr {
        let (nil, true_obj, false_obj) = (mem.nil(), mem.true_object(), mem.false_object());
        let lap = &mut ctx.lap;
        let entry = meta_cache.get_or_compile(isa, i, frame, nil, true_obj, false_obj, || {
            lap.charge(&mut times.hash);
            let artifact = compile_meta(i, frame, nil, true_obj, false_obj, isa);
            lap.charge(&mut times.meta_compile);
            artifact
        });
        ctx.lap.charge(&mut times.hash);
        if let Ok(artifact) = entry.as_ref() {
            counts.compiled += 1;
            return run_meta_artifact(artifact, isa, i, frame, mem, ctx, times);
        }
    }
    // Trampoline: interpret on the replay heap so side effects land
    // where the comparison looks. The exit is the interpreter's own,
    // which by construction agrees with the oracle.
    counts.trampolined += 1;
    let mut f = frame.clone();
    let exit = run_oracle_on(mem, &mut f, instr);
    ctx.lap.charge(&mut times.simulate);
    CompiledRun::Ran(exit)
}

/// Convenience one-shot entry point (the meta analogue of
/// [`run_compiled_for_instr`](crate::run_compiled_for_instr)): fresh
/// cache, fresh session. Returns the run, the
/// mutated heap and whether the run compiled or trampolined.
pub fn run_meta_for_instr(
    isa: Isa,
    instr: InstrUnderTest,
    frame: &Frame<Oop>,
    mut mem: ObjectMemory,
) -> (CompiledRun, ObjectMemory, MetaRunCounts) {
    let meta_cache = MetaCache::new();
    let code_cache = igjit_jit::CodeCache::disabled();
    let mut session = igjit_machine::MachineSession::new();
    let mut ctx = RunCtx::new(&code_cache, &mut session);
    let mut times = StageTimes::default();
    let mut counts = MetaRunCounts::default();
    let run = run_meta_for_instr_timed(
        &meta_cache,
        isa,
        instr,
        frame,
        &mut mem,
        &mut ctx,
        &mut times,
        &mut counts,
    );
    (run, mem, counts)
}

/// The machine half, mirroring `run_compiled_sequence_timed`'s setup,
/// run and exit extraction exactly — a meta artifact follows the same
/// §4.2 schema (frame-pointer preamble, temp pushes, spill reserve,
/// breakpoint exit codes) as the hand-written tiers.
fn run_meta_artifact(
    artifact: &MetaArtifact,
    isa: Isa,
    instr: igjit_bytecode::Instruction,
    frame: &Frame<Oop>,
    mem: &mut ObjectMemory,
    ctx: &mut RunCtx<'_>,
    times: &mut StageTimes,
) -> CompiledRun {
    let compiled = &artifact.code;
    let frame_bytes = 4 * compiled.ntemps + SPILL_BYTES;
    let conv = Convention::for_isa(isa);
    let ntemps = compiled.ntemps;
    let send_arity_hint = (instr.stack_arity() as usize).saturating_sub(1);
    let mut m = Machine::with_session(mem, isa, &compiled.code, ctx.session);
    m.set_reg(conv.receiver, frame.receiver.0);
    ctx.lap.charge(&mut times.setup);
    let outcome = m.run(MachineConfig::default());
    ctx.lap.charge(&mut times.simulate);
    let exit = match outcome {
        MachineOutcome::Breakpoint { code } if code == stops::FALL_THROUGH => {
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
    ctx.lap.charge(&mut times.report);
    CompiledRun::Ran(exit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use igjit_bytecode::Instruction;
    use igjit_interp::{MethodInfo, NativeMethodId};
    use igjit_jit::CodeCache;
    use igjit_machine::MachineSession;

    fn si(v: i64) -> Oop {
        Oop::from_small_int(v)
    }

    fn run_one(instr: InstrUnderTest, frame: &Frame<Oop>) -> (CompiledRun, MetaRunCounts) {
        let cache = MetaCache::new();
        let code_cache = CodeCache::disabled();
        let mut session = MachineSession::new();
        let mut ctx = RunCtx::new(&code_cache, &mut session);
        let mut times = StageTimes::default();
        let mut counts = MetaRunCounts::default();
        let mut mem = ObjectMemory::new();
        let run = run_meta_for_instr_timed(
            &cache,
            Isa::X86ish,
            instr,
            frame,
            &mut mem,
            &mut ctx,
            &mut times,
            &mut counts,
        );
        (run, counts)
    }

    #[test]
    fn meta_compile_is_charged_only_on_a_miss() {
        // One compiling and one refused (trampolining) bytecode: each
        // runs the evaluator once, on its miss, and then hits.
        let mut add = Frame::new(si(0), MethodInfo::empty());
        add.stack = vec![si(20), si(22)];
        let refused: Frame<Oop> = Frame::new(si(0), MethodInfo::empty());
        for (instr, frame) in [(Instruction::Add, add), (Instruction::PushThisContext, refused)] {
            let cache = MetaCache::new();
            let code_cache = CodeCache::disabled();
            let mut session = MachineSession::new();
            let mut charged = Vec::new();
            for _ in 0..2 {
                let mut ctx = RunCtx::new(&code_cache, &mut session);
                let mut times = StageTimes::default();
                let mut mem = ObjectMemory::new();
                run_meta_for_instr_timed(
                    &cache,
                    Isa::X86ish,
                    InstrUnderTest::Bytecode(instr),
                    &frame,
                    &mut mem,
                    &mut ctx,
                    &mut times,
                    &mut MetaRunCounts::default(),
                );
                charged.push(times);
            }
            let zero = std::time::Duration::ZERO;
            assert!(charged[0].meta_compile > zero, "{instr:?}: the miss evaluates");
            assert_eq!(charged[1].meta_compile, zero, "{instr:?}: the hit does not");
            assert!(charged[1].hash > zero, "{instr:?}: the hit is a lookup");
            assert_eq!((cache.misses(), cache.hits()), (1, 1), "{instr:?}");
        }
    }

    #[test]
    fn meta_add_compiles_and_folds() {
        let mut frame = Frame::new(si(0), MethodInfo::empty());
        frame.stack = vec![si(20), si(22)];
        let (run, counts) = run_one(InstrUnderTest::Bytecode(Instruction::Add), &frame);
        assert_eq!(counts, MetaRunCounts { compiled: 1, trampolined: 0 });
        match run {
            CompiledRun::Ran(EngineExit::Success { stack, .. }) => {
                assert_eq!(stack, vec![si(42)]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn meta_native_trampolines() {
        let frame = Frame::new(si(20), MethodInfo { literals: vec![si(3)], num_args: 1, num_temps: 0 });
        let mut frame = frame;
        frame.temps = vec![si(3)];
        let (run, counts) = run_one(InstrUnderTest::Native(NativeMethodId(1)), &frame);
        assert_eq!(counts, MetaRunCounts { compiled: 0, trampolined: 1 });
        assert!(matches!(run, CompiledRun::Ran(_)));
    }

    #[test]
    fn meta_unsupported_bytecode_trampolines() {
        let frame: Frame<Oop> = Frame::new(si(0), MethodInfo::empty());
        let (run, counts) =
            run_one(InstrUnderTest::Bytecode(Instruction::PushThisContext), &frame);
        assert_eq!(counts, MetaRunCounts { compiled: 0, trampolined: 1 });
        // The trampoline reports the interpreter's own exit for the
        // unsupported opcode — never a refusal.
        assert!(matches!(run, CompiledRun::Ran(_)));
    }
}
