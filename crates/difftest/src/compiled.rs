//! Running compiled code for one explored path.

use std::time::{Duration, Instant};

use igjit_bytecode::SpecialSelector;
use igjit_concolic::InstrUnderTest;
use igjit_heap::{ObjectMemory, Oop};
use igjit_interp::{Frame, MethodInfo};
use igjit_jit::{
    compile_native_test, BytecodeTestInput, CodeCache, CompileError, CompileKeyRef, CompiledCode,
    CompilerKind, Convention, FrontEnd, NativeTestInput, MUST_BE_BOOLEAN_SELECTOR, SPILL_BYTES,
};
use igjit_machine::{Isa, Machine, MachineConfig, MachineOutcome, MachineSession};
use igjit_metajit::compile_meta;

use crate::campaign::StageTimes;
use crate::oracle::{native_operands, EngineExit, ExitBuffers, SelectorId};
use crate::step::Program;

/// Outcome of a compiled run (or the compiler's refusal).
#[derive(Clone, Debug)]
pub enum CompiledRun {
    /// Compiled and executed; observable behaviour inside.
    Ran(EngineExit),
    /// The front-end refused (missing functionality / unsupported).
    Refused(CompileError),
}

/// Shared execution context for a batch of compiled runs: the artifact
/// cache, the persistent simulator session every run replays through,
/// the code buffer every run's artifact is copied into, the buffers
/// the runs' exits are built in, and the stage clock the runs are
/// charged on.
///
/// Each [`Harness`](crate::Harness) holds one; the session is *reset*
/// — registers zeroed, dirty stack extent cleared — between runs
/// instead of reallocating the 64 KiB stack per model, and the code
/// and exit buffers are overwritten in place.
pub(crate) struct RunCtx<'c> {
    /// Compiled-artifact cache, shared across instructions and worker
    /// threads by the campaign driver.
    pub cache: &'c CodeCache,
    /// The persistent machine session (registers + stack arena) and
    /// the buffers reused across runs.
    pub parts: RunParts,
    /// The stage clock, started when the context is made.
    pub lap: Lap,
}

/// What a [`RunCtx`] reuses from run to run, and hands on to the next
/// context on its thread.
pub(crate) struct RunParts {
    /// The persistent machine session (registers + stack arena).
    pub session: MachineSession,
    /// The artifact of the current run, copied out of the cache.
    pub code: CompiledCode,
    /// The buffers a compiled run's exit is built in; the harness
    /// hands each spent exit back.
    pub exits: ExitBuffers,
    /// The meta tier's trampoline frame, refilled per trampolined run.
    pub trampoline: Frame<Oop>,
}

impl RunParts {
    /// A fresh session and empty buffers.
    pub fn new() -> RunParts {
        RunParts {
            session: MachineSession::new(),
            code: code_buffer(),
            exits: ExitBuffers::default(),
            trampoline: Frame::new(Oop::ZERO, MethodInfo::empty()),
        }
    }
}

/// An empty code buffer.
fn code_buffer() -> CompiledCode {
    CompiledCode { code: Vec::new(), isa: Isa::X86ish, ntemps: 0 }
}

impl<'c> RunCtx<'c> {
    /// A context over `cache` and `parts` whose stage clock starts now.
    pub fn new(cache: &'c CodeCache, parts: RunParts) -> RunCtx<'c> {
        RunCtx { cache, parts, lap: Lap::start() }
    }

    /// Returns the reused parts, for the next context.
    pub fn into_parts(self) -> RunParts {
        self.parts
    }
}

/// The stage clock: exact totals, sampled shares.
///
/// On a *sampled* check every stage boundary reads the clock once: each
/// [`Lap::charge`] ends the current split and charges the time since
/// the previous boundary to the stage that just finished, so the stages
/// are consecutive splits of one clock. On any other check a boundary
/// reads nothing. [`Lap::exact`] times a compile exactly either way,
/// and [`Lap::stop`] reads the clock's whole run, so the owner can
/// spread what the exact stages leave over the split stages in the
/// proportions the sampled checks measured
/// ([`StageTimes::spread_sampled`]). A clock made by [`Lap::start`]
/// splits every boundary until [`Lap::sample`] says otherwise.
pub(crate) struct Lap {
    start: Instant,
    last: Instant,
    /// Whether boundaries read the clock (the current check is sampled).
    splitting: bool,
    /// Clock reads so far, this clock's start included.
    reads: u64,
}

impl Lap {
    /// A splitting clock whose first split starts now.
    pub fn start() -> Lap {
        let now = Instant::now();
        Lap { start: now, last: now, splitting: true, reads: 1 }
    }

    fn now(&mut self) -> Instant {
        self.reads += 1;
        Instant::now()
    }

    /// Clock reads so far, this clock's start included.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Starts a check: a sampled one splits its boundaries (restarting
    /// the split now if the previous check did not split), any other
    /// reads no clock at them.
    pub fn sample(&mut self, sampled: bool) {
        if sampled && !self.splitting {
            self.last = self.now();
        }
        self.splitting = sampled;
    }

    /// On a splitting check, charges the time since the previous
    /// boundary to `stage` and starts the next split; otherwise charges
    /// nothing.
    pub fn charge(&mut self, stage: &mut Duration) {
        if self.splitting {
            let now = self.now();
            *stage += now.duration_since(self.last);
            self.last = now;
        }
    }

    /// Runs `f`, charging its time to `stage` exactly whether or not
    /// the check splits; a splitting check charges the split before it
    /// to `before` first.
    pub fn exact<R>(&mut self, before: &mut Duration, stage: &mut Duration, f: impl FnOnce() -> R) -> R {
        if self.splitting {
            self.charge(before);
            let out = f();
            self.charge(stage);
            return out;
        }
        let t0 = self.now();
        let out = f();
        *stage += self.now().duration_since(t0);
        out
    }

    /// Reads the clock once more: charges the open split to `stage` if
    /// the check splits, and returns the time since the clock started.
    pub fn stop(&mut self, stage: &mut Duration) -> Duration {
        let now = self.now();
        if self.splitting {
            *stage += now.duration_since(self.last);
            self.last = now;
        }
        now.duration_since(self.start)
    }
}

fn selector_of(id: u32) -> SelectorId {
    if id == MUST_BE_BOOLEAN_SELECTOR {
        return SelectorId::MustBeBoolean;
    }
    match SpecialSelector::from_index(id) {
        Some(s) => SelectorId::Special(s),
        None => SelectorId::Literal(Oop(id)),
    }
}

/// The machine half of [`run_compiled`], the same for every front-end:
/// seeds the receiver and argument registers, runs `code` — compiled
/// from `program` — on `mem` through the context's session, and
/// decodes the exit.
///
/// A bytecode program follows the §4.2 schema: a fall-through stop
/// leaves the operand stack and the code's temps in the machine frame,
/// any other stop is a taken jump, returning to the caller is a method
/// return, and a send carries [`Program::send_args`] argument
/// registers. A native method follows Listing 4: returning to the
/// caller is success with the result in the receiver register, and the
/// fall-through stop is the failure path.
#[allow(clippy::too_many_arguments)]
fn run_machine(
    code: &CompiledCode,
    isa: Isa,
    program: Program<'_>,
    receiver: Oop,
    args: &[Oop],
    mem: &mut ObjectMemory,
    ctx: &mut RunCtx<'_>,
    times: &mut StageTimes,
) -> CompiledRun {
    let conv = Convention::for_isa(isa);
    let exits = &mut ctx.parts.exits;
    let mut m = Machine::with_session(mem, isa, &code.code, &mut ctx.parts.session);
    m.set_reg(conv.receiver, receiver.0);
    for (i, a) in args.iter().take(3).enumerate() {
        m.set_reg(conv.arg(i), a.0);
    }
    ctx.lap.charge(&mut times.setup);
    let outcome = m.run(MachineConfig::default());
    ctx.lap.charge(&mut times.simulate);
    let exit = match (program, outcome) {
        (Program::Bytecode(_), MachineOutcome::Breakpoint { code: stop })
            if stop == igjit_jit::stops::FALL_THROUGH =>
        {
            let ntemps = code.ntemps;
            // Operand stack: words between SP and the frame base,
            // top first; reverse to bottom-first.
            let sp = m.reg(conv.sp);
            let limit = m.initial_sp().wrapping_sub(4 * ntemps + SPILL_BYTES);
            let mut stack = exits.take_stack();
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
            let mut temps = exits.take_temps();
            temps.extend(
                (0..ntemps).map(|i| Oop(m.read_stack(fp.wrapping_sub(4 * (i + 1))).unwrap_or(0))),
            );
            EngineExit::Success { stack, temps, result: None }
        }
        (Program::Bytecode(_), MachineOutcome::Breakpoint { .. }) => EngineExit::JumpTaken,
        (Program::Bytecode(_), MachineOutcome::ReturnedToCaller) => {
            EngineExit::Return { value: Oop(m.reg(conv.receiver)) }
        }
        (Program::Native(_), MachineOutcome::Breakpoint { .. }) => EngineExit::Failure,
        (Program::Native(_), MachineOutcome::ReturnedToCaller) => EngineExit::Success {
            stack: Vec::new(),
            temps: Vec::new(),
            result: Some(Oop(m.reg(conv.receiver))),
        },
        (_, MachineOutcome::Send { selector_id }) => {
            let mut args = exits.take_args();
            args.extend((0..program.send_args().min(3)).map(|i| Oop(m.reg(conv.arg(i)))));
            EngineExit::Send {
                selector: selector_of(selector_id),
                receiver: Oop(m.reg(conv.receiver)),
                args,
            }
        }
        (_, MachineOutcome::MemoryFault { .. }) => EngineExit::InvalidMemory,
        (_, MachineOutcome::SimulationError { register }) => {
            EngineExit::SimulationError(register)
        }
        (_, MachineOutcome::StepLimit) => EngineExit::EngineError("machine step limit".into()),
        (_, MachineOutcome::DecodeFault { pc }) => {
            EngineExit::EngineError(format!("decode fault at 0x{pc:08x}"))
        }
    };
    ctx.lap.charge(&mut times.report);
    CompiledRun::Ran(exit)
}

/// Compiles `program` — a bytecode program through `front_end`, a
/// native method through the template compiler — looking it up in
/// `ctx.cache` and copying it into `ctx.code`, and runs it on `mem`,
/// charging each stage's split of `ctx.lap` to `times` (a miss's
/// compile to `compile`, or to `meta_compile` for the meta
/// evaluator). A bytecode program embeds the operand stack, temps and
/// literals of `frame` as constants and passes the receiver in the
/// convention register (§4.2); a native method takes its receiver and
/// arguments from the top of `frame`'s stack in the convention
/// registers (Listing 4). Mutates `mem` in place so the caller can run
/// on a sealed image and roll it back between ISAs.
pub(crate) fn run_compiled(
    front_end: Option<FrontEnd>,
    isa: Isa,
    program: Program<'_>,
    frame: &Frame<Oop>,
    mem: &mut ObjectMemory,
    ctx: &mut RunCtx<'_>,
    times: &mut StageTimes,
) -> CompiledRun {
    let (nil, true_obj, false_obj) = (mem.nil(), mem.true_object(), mem.false_object());
    let lap = &mut ctx.lap;
    let mut code = std::mem::replace(&mut ctx.parts.code, code_buffer());
    let (found, receiver, args) = match program {
        Program::Bytecode(instrs) => {
            let front_end = front_end.expect("a bytecode program needs a front-end");
            let input = BytecodeTestInput {
                instruction: instrs[0],
                operand_stack: &frame.stack,
                temps: &frame.temps,
                literals: &frame.method.literals,
                nil,
                true_obj,
                false_obj,
            };
            // Everything the generated code depends on (§4.2: frame
            // values are embedded as constants; the receiver rides in a
            // register and is deliberately absent). The key borrows the
            // frame's own slices.
            let key = CompileKeyRef::Bytecode {
                front_end,
                isa,
                instrs,
                stack: &frame.stack,
                temps: &frame.temps,
                literals: &frame.method.literals,
                nil: nil.0,
                true_obj: true_obj.0,
                false_obj: false_obj.0,
            };
            let found = ctx.cache.get_or_compile_ref(key, &mut code, || match front_end {
                FrontEnd::Tier(kind) => lap.exact(&mut times.hash, &mut times.compile, || {
                    igjit_jit::compile_bytecode_sequence_test(kind, instrs, &input, isa)
                }),
                // The evaluator models one instruction.
                FrontEnd::Meta => lap.exact(&mut times.hash, &mut times.meta_compile, || {
                    compile_meta(instrs[0], frame, nil, true_obj, false_obj, isa)
                }),
            });
            (found, frame.receiver, &[][..])
        }
        Program::Native(id) => {
            let Some((receiver, args)) = native_operands(frame, id) else {
                return CompiledRun::Ran(EngineExit::InvalidFrame);
            };
            // Native templates depend only on the method id, the ISA
            // and the special oops — receiver and arguments ride in
            // registers.
            let key = CompileKeyRef::Native {
                id: u32::from(id.0),
                isa,
                nil: nil.0,
                true_obj: true_obj.0,
                false_obj: false_obj.0,
            };
            let found = ctx.cache.get_or_compile_ref(key, &mut code, || {
                lap.exact(&mut times.hash, &mut times.compile, || {
                    compile_native_test(
                        igjit_jit::native::igjit_bytecode_native_id::NativeMethodIdLike(id.0),
                        NativeTestInput { nil, true_obj, false_obj },
                        isa,
                    )
                })
            });
            (found, receiver, args)
        }
    };
    ctx.lap.charge(&mut times.hash);
    let run = match found {
        Ok(()) => run_machine(&code, isa, program, receiver, args, mem, ctx, times),
        Err(e) => CompiledRun::Refused(e),
    };
    ctx.parts.code = code;
    run
}

/// Compiles and runs one instruction with a fresh simulator session
/// and a fresh artifact cache: a bytecode against tier `target_kind`, a
/// native method against the template compiler. `mem` must be a fresh
/// materialization of the model the oracle ran on; returns the run
/// plus the mutated heap.
pub fn run_compiled_for_instr(
    target_kind: Option<CompilerKind>,
    isa: Isa,
    instr: InstrUnderTest,
    frame: &Frame<Oop>,
    mut mem: ObjectMemory,
) -> (CompiledRun, ObjectMemory) {
    let cache = CodeCache::new();
    let mut ctx = RunCtx::new(&cache, RunParts::new());
    let run = run_compiled(
        target_kind.map(FrontEnd::Tier),
        isa,
        Program::of(&instr),
        frame,
        &mut mem,
        &mut ctx,
        &mut StageTimes::default(),
    );
    (run, mem)
}

#[cfg(test)]
mod tests {
    use super::*;
    use igjit_bytecode::Instruction;
    use igjit_interp::NativeMethodId;

    fn si(v: i64) -> Oop {
        Oop::from_small_int(v)
    }

    /// A native-method frame: receiver then arguments on the stack.
    fn native_frame(stack: &[Oop]) -> Frame<Oop> {
        let mut frame = Frame::new(si(0), MethodInfo::empty());
        frame.stack = stack.to_vec();
        frame
    }

    #[test]
    fn compiled_add_matches_shape() {
        let mut frame = Frame::new(si(0), MethodInfo::empty());
        frame.stack = vec![si(20), si(22)];
        let (run, _) = run_compiled_for_instr(
            Some(CompilerKind::StackToRegister),
            Isa::X86ish,
            InstrUnderTest::Bytecode(Instruction::Add),
            &frame,
            ObjectMemory::new(),
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
        let (run, _) = run_compiled_for_instr(
            None,
            Isa::Arm32ish,
            InstrUnderTest::Native(NativeMethodId(120)),
            &native_frame(&[si(0); 4]),
            ObjectMemory::new(),
        );
        assert!(matches!(run, CompiledRun::Refused(CompileError::NotImplemented(_))));
    }

    #[test]
    fn compiled_native_add_succeeds() {
        let (run, _) = run_compiled_for_instr(
            None,
            Isa::X86ish,
            InstrUnderTest::Native(NativeMethodId(1)),
            &native_frame(&[si(20), si(3)]),
            ObjectMemory::new(),
        );
        match run {
            CompiledRun::Ran(EngineExit::Success { result, .. }) => {
                assert_eq!(result, Some(si(23)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn native_without_operands_is_an_invalid_frame() {
        let (run, _) = run_compiled_for_instr(
            None,
            Isa::X86ish,
            InstrUnderTest::Native(NativeMethodId(1)),
            &native_frame(&[si(20)]),
            ObjectMemory::new(),
        );
        assert!(matches!(run, CompiledRun::Ran(EngineExit::InvalidFrame)), "{run:?}");
    }

    /// Runs `Add` over `[20, 22]` twice through one context.
    fn run_add_twice(cache: &CodeCache) -> Vec<(CompiledRun, StageTimes)> {
        let mut frame = Frame::new(si(0), MethodInfo::empty());
        frame.stack = vec![si(20), si(22)];
        let mut ctx = RunCtx::new(cache, RunParts::new());
        (0..2)
            .map(|_| {
                let mut mem = ObjectMemory::new();
                let mut times = StageTimes::default();
                let run = run_compiled(
                    Some(FrontEnd::Tier(CompilerKind::StackToRegister)),
                    Isa::X86ish,
                    Program::Bytecode(&[Instruction::Add]),
                    &frame,
                    &mut mem,
                    &mut ctx,
                    &mut times,
                );
                (run, times)
            })
            .collect()
    }

    #[test]
    fn cached_replay_through_a_reused_session_matches_the_first_run() {
        // The same compiled artifact, run twice through one session —
        // the second time from the cache — must produce the identical
        // exit.
        let cache = CodeCache::new();
        let runs = run_add_twice(&cache);
        assert!(matches!(runs[0].0, CompiledRun::Ran(_)), "{:?}", runs[0].0);
        assert_eq!(format!("{:?}", runs[0].0), format!("{:?}", runs[1].0));
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn compile_is_charged_on_a_miss_and_hash_on_a_hit() {
        let cache = CodeCache::new();
        let charged: Vec<StageTimes> = run_add_twice(&cache).into_iter().map(|r| r.1).collect();
        assert!(charged[0].compile > Duration::ZERO, "the miss compiles");
        assert_eq!(charged[1].compile, Duration::ZERO, "the hit does not");
        assert!(charged[1].hash > Duration::ZERO, "the hit is a lookup");
        assert_eq!((cache.misses(), cache.hits()), (1, 1));
    }
}
