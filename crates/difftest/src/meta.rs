//! Running the meta-compiled tier (#5) for one explored path.
//!
//! The tier is **total from day one**: when the partial evaluator
//! refuses an (instruction, frame) pair — or the program is a native
//! method or longer than one instruction, which the evaluator does not
//! model — the run falls back to an *interpreter trampoline*: the
//! program is interpreted directly on the replay heap, so its side effects land exactly where
//! the comparison looks, and the row stays comparable. Coverage (runs
//! executed as machine code vs. trampolined) is counted per call and
//! reported per campaign run.
//!
//! Meta artifacts are not registered in the [`igjit_jit::CodeCache`]
//! (their key includes the whole embedded frame, which the code
//! cache's compile keys do not model); they live in the
//! campaign-owned [`MetaCache`] instead.

use igjit_heap::{ObjectMemory, Oop};
use igjit_interp::Frame;
use igjit_machine::Isa;
use igjit_metajit::{compile_meta, MetaCache};

use crate::campaign::StageTimes;
use crate::compiled::{run_machine, CompiledRun, RunCtx};
use crate::oracle::run_program_on;
use crate::step::Program;

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

/// The meta tier's analogue of the compiled runner: look up (or
/// partially evaluate) the artifact for a one-instruction program and
/// its frame, run it through the shared machine half, or trampoline
/// through the interpreter on refusal. A native method or a program
/// longer than one instruction is a refusal: the evaluator models
/// neither.
///
/// Evaluator+lowering time lands in [`StageTimes::meta_compile`], charged
/// inside the cache miss; cache lookups land in [`StageTimes::hash`],
/// and trampoline interpretation in [`StageTimes::simulate`] (it
/// substitutes for the simulator run).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_meta(
    meta_cache: &MetaCache,
    isa: Isa,
    program: Program<'_>,
    frame: &Frame<Oop>,
    mem: &mut ObjectMemory,
    ctx: &mut RunCtx<'_>,
    times: &mut StageTimes,
    counts: &mut MetaRunCounts,
) -> CompiledRun {
    if let Program::Bytecode(&[i]) = program {
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
            // A meta artifact follows the same §4.2 schema
            // (frame-pointer preamble, temp pushes, spill reserve,
            // breakpoint exit codes) as the hand-written tiers.
            return run_machine(&artifact.code, isa, program, frame.receiver, &[], mem, ctx, times);
        }
    }
    // Trampoline: interpret on the replay heap so side effects land
    // where the comparison looks. The exit is the interpreter's own,
    // which by construction agrees with the oracle.
    counts.trampolined += 1;
    let mut f = frame.clone();
    let exit = run_program_on(mem, &mut f, program);
    ctx.lap.charge(&mut times.simulate);
    CompiledRun::Ran(exit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::EngineExit;
    use igjit_bytecode::Instruction;
    use igjit_interp::{MethodInfo, NativeMethodId};
    use igjit_jit::CodeCache;
    use igjit_machine::MachineSession;

    fn si(v: i64) -> Oop {
        Oop::from_small_int(v)
    }

    fn run_one(program: Program<'_>, frame: &Frame<Oop>) -> (CompiledRun, MetaRunCounts) {
        let cache = MetaCache::new();
        let code_cache = CodeCache::new();
        let mut ctx = RunCtx::new(&code_cache, MachineSession::new(), crate::compiled::code_buffer());
        let mut times = StageTimes::default();
        let mut counts = MetaRunCounts::default();
        let mut mem = ObjectMemory::new();
        let run = run_meta(
            &cache,
            Isa::X86ish,
            program,
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
            let code_cache = CodeCache::new();
            let mut ctx = RunCtx::new(&code_cache, MachineSession::new(), crate::compiled::code_buffer());
            let mut charged = Vec::new();
            for _ in 0..2 {
                let mut times = StageTimes::default();
                let mut mem = ObjectMemory::new();
                run_meta(
                    &cache,
                    Isa::X86ish,
                    Program::Bytecode(&[instr]),
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
        let (run, counts) = run_one(Program::Bytecode(&[Instruction::Add]), &frame);
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
        let (run, counts) = run_one(Program::Native(NativeMethodId(1)), &frame);
        assert_eq!(counts, MetaRunCounts { compiled: 0, trampolined: 1 });
        assert!(matches!(run, CompiledRun::Ran(_)));
    }

    #[test]
    fn meta_unsupported_bytecode_trampolines() {
        let frame: Frame<Oop> = Frame::new(si(0), MethodInfo::empty());
        let (run, counts) =
            run_one(Program::Bytecode(&[Instruction::PushThisContext]), &frame);
        assert_eq!(counts, MetaRunCounts { compiled: 0, trampolined: 1 });
        // The trampoline reports the interpreter's own exit for the
        // unsupported opcode — never a refusal.
        assert!(matches!(run, CompiledRun::Ran(_)));
    }

    #[test]
    fn meta_multi_instruction_program_trampolines() {
        // The evaluator models one instruction; a longer program runs
        // through the trampoline, which interprets all of it.
        let mut frame = Frame::new(si(0), MethodInfo::empty());
        frame.stack = vec![si(20), si(22)];
        let (run, counts) =
            run_one(Program::Bytecode(&[Instruction::Add, Instruction::Dup]), &frame);
        assert_eq!(counts, MetaRunCounts { compiled: 0, trampolined: 1 });
        match run {
            CompiledRun::Ran(EngineExit::Success { stack, .. }) => {
                assert_eq!(stack, vec![si(42), si(42)]);
            }
            other => panic!("{other:?}"),
        }
    }
}
