//! The differential step (Fig. 1) for one model of one explored path:
//! materialize the model, run the interpreter, run the compiled code on
//! every ISA, compare, classify.
//!
//! The campaign, [`test_sequence`](crate::test_sequence) and the
//! generated unit tests all call [`Harness::check`]; none of them
//! re-implements a stage. A bytecode instruction is a [`Program`] of
//! length one, so instructions and sequences take the same path.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use igjit_bytecode::Instruction;
use igjit_concolic::{
    materialize_shared_into, AbstractState, InstrUnderTest, MaterializedFrame, WitnessError,
};
use igjit_heap::fxhash::FxHashMap;
use igjit_heap::{ObjectMemory, Oop, Snapshot};
use igjit_interp::{Frame, MethodInfo, NativeMethodId};
use igjit_jit::CodeCache;
use igjit_machine::Isa;
use igjit_metajit::MetaCache;
use igjit_solver::Model;

use crate::campaign::{PathVerdict, SnapshotStats, StageTimes, Target};
use crate::classify::classify;
use crate::compare::{compare_runs, Difference, DifferenceKind, Verdict};
use crate::compiled::{run_compiled, CompiledRun, RunCtx, RunParts};
use crate::meta::{run_meta, MetaRunCounts};
use crate::oracle::{concrete_frame_into, run_program_on, EngineExit, ExitBuffers, SelectorId};

/// A harness splits the stage boundaries of its first check and then of
/// one check in this many; the others read no clock (see
/// [`StageTimes`]).
pub const SAMPLE_EVERY: u64 = 16;

/// What one differential step runs: a straight-line bytecode program
/// (an instruction is a program of length one) or a native method.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Program<'p> {
    /// Bytecodes executed in order; never empty.
    Bytecode(&'p [Instruction]),
    /// One native method.
    Native(NativeMethodId),
}

impl<'p> Program<'p> {
    /// The program of one instruction under test.
    pub fn of(instr: &'p InstrUnderTest) -> Program<'p> {
        match instr {
            InstrUnderTest::Bytecode(i) => Program::Bytecode(std::slice::from_ref(i)),
            InstrUnderTest::Native(id) => Program::Native(*id),
        }
    }

    /// The instruction a verdict on this program is filed under: the
    /// native method, or the program's last bytecode.
    pub(crate) fn tag(self) -> InstrUnderTest {
        match self {
            Program::Bytecode(instrs) => {
                InstrUnderTest::Bytecode(*instrs.last().expect("a bytecode program is never empty"))
            }
            Program::Native(id) => InstrUnderTest::Native(id),
        }
    }

    /// How many argument registers a compiled send of this program
    /// carries: the widest send any of its bytecodes can make, and none
    /// for a native method.
    pub(crate) fn send_args(self) -> usize {
        match self {
            Program::Bytecode(instrs) => {
                let widest = instrs.iter().map(|i| i.stack_arity() as usize).max();
                widest.unwrap_or(0).saturating_sub(1)
            }
            Program::Native(_) => 0,
        }
    }

    /// The instruction a difference is classified under. When the
    /// compiled code bailed to a special send the interpreter inlined
    /// past, the sent selector names the diverging bytecode; otherwise
    /// the difference is filed under [`Program::tag`].
    fn culprit(self, compiled: &CompiledRun) -> InstrUnderTest {
        if let (
            Program::Bytecode(instrs),
            CompiledRun::Ran(EngineExit::Send {
                selector: SelectorId::Special(sel),
                ..
            }),
        ) = (self, compiled)
        {
            if let Some(&i) = instrs.iter().find(|i| i.special_selector() == Some(*sel)) {
                return InstrUnderTest::Bytecode(i);
            }
        }
        self.tag()
    }
}

/// What [`Harness::check`] did with one model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Checked {
    /// Materialization or the interpreter panicked; counted in
    /// [`Tally::oracle_panics`], nothing compared.
    OraclePanic,
    /// The materializer could not realize the model (the first error
    /// is kept); counted in [`Tally::witness_errors`], nothing compared.
    Unrealizable(WitnessError),
    /// The interpreter exit is an expected failure (§3.4); no compiled
    /// code ran.
    Untestable,
    /// Compiled code ran and was compared on every ISA.
    Compared,
    /// The path's first difference is a compile refusal, which no
    /// other model of the path can change: the remaining ISAs were
    /// skipped and the caller should skip the remaining models.
    Refused,
}

/// What a [`Harness`] accumulated over its checks.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Wall clock per stage: exact totals, shares split on the sampled
    /// checks, and the clock's own counts ([`StageTimes::clock`]).
    pub times: StageTimes,
    /// Seal/restore accounting of the replay arena.
    pub snapshot: SnapshotStats,
    /// Meta-tier coverage (zero on other targets).
    pub meta: MetaRunCounts,
    /// Models the materializer could not realize.
    pub witness_errors: usize,
    /// Models whose materialization or oracle run panicked.
    pub oracle_panics: usize,
    /// The harness's exact run time, from [`Harness::new`] to
    /// [`Harness::finish`]: what its stages (`materialize`, `compile`,
    /// `meta_compile`, `hash`, `setup`, `simulate`, `compare` and
    /// `report`) sum to.
    pub elapsed: Duration,
}

/// The replay arena: a pair of heaps that are one heap at their shared
/// blank seal, and the frames and exit buffers of a model, recycled
/// across every model this thread checks.
///
/// The *oracle* heap is materialized and interpreted in place; the
/// *replay* heap, a clone of it taken at the blank seal, is brought to
/// the materialized image by [`ObjectMemory::mirror_from`] — a copy of
/// exactly what materialization changed — so the oracle's `var_oops`
/// name the same objects on both heaps by construction. The replay heap
/// pushes a per-model inner seal for the compiled runs (re-arming the
/// level the previous model retired); both heaps roll back to `blank`
/// between models and when a harness finishes. The materialized frame,
/// its alias memo, the concrete frames and the oracle's exit buffers
/// are refilled in place for each model.
struct ReplayArena {
    oracle: ObjectMemory,
    replay: ObjectMemory,
    /// The blank seal both heaps share (a clone keeps the seal epoch,
    /// so one token names it on either heap).
    blank: Snapshot,
    /// Whether the heaps may have left blank since the last rewind.
    used: bool,
    /// The materialized input frame, which the compiled runs embed.
    input: Frame<Oop>,
    /// The interpreter's copy of `input`, which the oracle run mutates.
    frame: Frame<Oop>,
    /// The model's materialization, refilled per model.
    mat: MaterializedFrame,
    /// The materializer's alias memo.
    memo: FxHashMap<u32, Oop>,
    /// The buffers the oracle's exit is built in.
    exits: ExitBuffers,
}

impl ReplayArena {
    fn new() -> ReplayArena {
        let mut oracle = ObjectMemory::new();
        let blank = oracle.seal();
        let replay = oracle.clone();
        let frame = || Frame::new(Oop::ZERO, MethodInfo::empty());
        ReplayArena {
            oracle,
            replay,
            blank,
            used: false,
            input: frame(),
            frame: frame(),
            mat: MaterializedFrame::default(),
            memo: FxHashMap::default(),
            exits: ExitBuffers::default(),
        }
    }

    /// Rolls both heaps back to blank (the replay heap through its
    /// inner seal, if one was pushed) if they may have left it.
    fn rewind(&mut self, stats: &mut SnapshotStats) {
        if std::mem::take(&mut self.used) {
            for heap in [&mut self.oracle, &mut self.replay] {
                let dirty = heap.restore(&self.blank).expect("blank seal is armed");
                stats.record_restore(dirty);
            }
        }
    }
}

thread_local! {
    /// Simulator session and run buffers reused across harnesses on
    /// this thread. `Machine::with_session` resets registers and the
    /// dirty stack extent before every run, and every lookup and run
    /// overwrites the buffers, so reuse is outcome-neutral; a panic
    /// mid-check merely drops them and the next harness allocates
    /// fresh ones.
    static REUSED_PARTS: std::cell::Cell<Option<RunParts>> = const { std::cell::Cell::new(None) };

    /// Replay arena reused across harnesses on this thread. A harness
    /// hands it back from [`Harness::finish`] with both heaps at blank;
    /// one dropped mid-check (a panic) takes its arena along, and the
    /// next harness builds a fresh one.
    static REUSED_ARENA: std::cell::Cell<Option<ReplayArena>> =
        const { std::cell::Cell::new(None) };
}

/// The execution context of the differential step against one target
/// on a fixed set of ISAs: the artifact caches, the thread's simulator
/// session and code buffer, the stage clock and the thread's replay
/// arena.
///
/// The arena is two heaps built once per thread and passed from one
/// harness to the next: each model is materialized once, on the
/// *oracle* heap, and mirrored onto the *replay* heap; the oracle runs
/// in place, and for a testable model the replay heap seals an inner
/// level ([`ObjectMemory::push_seal`]) that the compiled runs rewind to
/// between ISAs. Both heaps roll back to their shared blank seal before
/// the next model and in [`Harness::finish`], which counts those
/// rollbacks in this harness's tally — so every counter belongs to the
/// instruction that caused it, however instructions land on threads.
/// Every reset is `restore` — O(words the run dirtied). Once the
/// arena's buffers have grown, a check whose models agree allocates
/// nothing (`tests/alloc_budget.rs`).
///
/// The stage clock runs from [`Harness::new`] to [`Harness::finish`]
/// and splits the stage boundaries of sampled checks only; see
/// [`StageTimes`] and [`SAMPLE_EVERY`].
pub struct Harness<'c> {
    target: Target,
    isas: &'c [Isa],
    meta_cache: &'c MetaCache,
    ctx: RunCtx<'c>,
    arena: ReplayArena,
    /// What the checks so far accumulated.
    pub(crate) tally: Tally,
}

impl<'c> Harness<'c> {
    /// A harness testing `target` on `isas`, looking compiled artifacts
    /// up in `code_cache` and meta artifacts in `meta_cache`. Its stage
    /// clock starts now.
    pub fn new(
        target: Target,
        isas: &'c [Isa],
        code_cache: &'c CodeCache,
        meta_cache: &'c MetaCache,
    ) -> Harness<'c> {
        let parts = REUSED_PARTS.with(|slot| slot.take()).unwrap_or_else(RunParts::new);
        let arena = REUSED_ARENA.with(|slot| slot.take()).unwrap_or_else(ReplayArena::new);
        Harness {
            target,
            isas,
            meta_cache,
            ctx: RunCtx::new(code_cache, parts),
            arena,
            tally: Tally::default(),
        }
    }

    /// On a sampled check, charges the time since the previous stage
    /// boundary to the stage `pick` selects.
    pub(crate) fn charge(&mut self, pick: fn(&mut StageTimes) -> &mut Duration) {
        self.ctx.lap.charge(pick(&mut self.tally.times));
    }

    /// Rolls both arena heaps back to blank (counted, and charged to
    /// `materialize`), returns the arena, the simulator session and the
    /// run buffers to the thread and the tally to the caller, with the
    /// harness's exact run time spread over the sampled stages.
    pub fn finish(mut self) -> Tally {
        self.arena.rewind(&mut self.tally.snapshot);
        REUSED_ARENA.with(|slot| slot.set(Some(self.arena)));
        let lap = &mut self.ctx.lap;
        let times = &mut self.tally.times;
        self.tally.elapsed = lap.stop(&mut times.materialize);
        times.spread_sampled(self.tally.elapsed);
        times.clock.clock_reads = lap.reads();
        REUSED_PARTS.with(|slot| slot.set(Some(self.ctx.into_parts())));
        self.tally
    }

    /// The differential step for one model of a path of `program`'s
    /// exploration over `state`: materialize the model on the oracle
    /// heap and mirror it onto the replay heap, run the interpreter
    /// (panics caught), gate on witness errors and testability, seal
    /// the replay image, run the target on every ISA, compare and
    /// classify. Differences are folded into `path`; `probe` marks a
    /// kind-probe model (the path's base model is not one and labels
    /// its interpreter exit).
    pub fn check(
        &mut self,
        state: &AbstractState,
        model: &Model,
        program: Program<'_>,
        probe: bool,
        path: &mut PathVerdict,
    ) -> Checked {
        let clock = &mut self.tally.times.clock;
        let sampled = clock.checks.is_multiple_of(SAMPLE_EVERY);
        clock.checks += 1;
        clock.sampled_checks += u64::from(sampled);
        self.ctx.lap.sample(sampled);
        let tally = &mut self.tally;
        let a = &mut self.arena;
        // Reset both heaps to blank (also cleans up after a panicked
        // materialization or oracle run), materialize this model onto
        // the oracle heap and mirror the image onto the replay heap
        // before the oracle run mutates it.
        a.rewind(&mut tally.snapshot);
        a.used = true;
        let materialized = catch_unwind(AssertUnwindSafe(|| {
            materialize_shared_into(state, model, &mut a.oracle, &mut a.mat, &mut a.memo)
        }));
        if materialized.is_err() {
            self.ctx.lap.charge(&mut tally.times.materialize);
            tally.oracle_panics += 1;
            return Checked::OraclePanic;
        }
        a.replay.mirror_from(&a.oracle).expect("the replay heap stands at the oracle's blank seal");
        concrete_frame_into(&a.mat.frame, &mut a.input);
        concrete_frame_into(&a.mat.frame, &mut a.frame);
        let Ok(interp_exit) = catch_unwind(AssertUnwindSafe(|| {
            run_program_on(&mut a.oracle, &mut a.frame, program, &mut a.exits)
        })) else {
            self.ctx.lap.charge(&mut tally.times.materialize);
            tally.oracle_panics += 1;
            return Checked::OraclePanic;
        };
        if !probe {
            path.interp_exit = interp_exit.label();
        }
        let checked = self.compare_testable(&interp_exit, program, probe, path);
        self.arena.exits.recycle(interp_exit);
        checked
    }

    /// The rest of [`Harness::check`] after the oracle run: gate on
    /// witness errors and testability, seal the replay image, run the
    /// target on every ISA, compare and classify.
    fn compare_testable(
        &mut self,
        interp_exit: &EngineExit,
        program: Program<'_>,
        probe: bool,
        path: &mut PathVerdict,
    ) -> Checked {
        let tally = &mut self.tally;
        let a = &mut self.arena;
        if let Some(error) = a.mat.witness_errors.first() {
            // The materializer substituted fallback inputs for an
            // unrealizable witness: the run no longer reflects the
            // solver's model, so it is a test error, not a comparison.
            tally.witness_errors += 1;
            self.ctx.lap.charge(&mut tally.times.materialize);
            return Checked::Unrealizable(error.clone());
        }
        if !interp_exit.is_testable() {
            self.ctx.lap.charge(&mut tally.times.materialize);
            return Checked::Untestable;
        }
        // The model is testable: seal the mirrored image as the inner
        // level the ISA loop rewinds to.
        let replay_snap = a.replay.push_seal().expect("blank seal is armed");
        tally.snapshot.seals += 1;
        self.ctx.lap.charge(&mut tally.times.materialize);
        for (ii, &isa) in self.isas.iter().enumerate() {
            // Replay the sealed image: roll back the previous ISA's
            // mutations instead of re-materializing.
            if ii > 0 {
                let dirty = a.replay.restore(&replay_snap).expect("inner seal is armed");
                tally.snapshot.record_restore(dirty);
                self.ctx.lap.charge(&mut tally.times.materialize);
            }
            let compiled = match self.target {
                Target::MetaCompiled => run_meta(
                    self.meta_cache,
                    isa,
                    program,
                    &a.input,
                    &mut a.replay,
                    &mut self.ctx,
                    &mut tally.times,
                    &mut tally.meta,
                ),
                target => run_compiled(
                    target.compiler_kind(),
                    isa,
                    program,
                    &a.input,
                    &mut a.replay,
                    &mut self.ctx,
                    &mut tally.times,
                ),
            };
            let v = compare_runs(interp_exit, &a.oracle, &compiled, &a.replay, &a.mat.var_oops);
            let differs = if let Verdict::Difference(d) = v {
                let mut key = classify(program.culprit(&compiled), self.target.compiler_kind(), &d);
                if self.target == Target::MetaCompiled {
                    // The classifier only knows the hand-written tiers;
                    // tag the cause with the meta tier's own name so
                    // causes stay per-tier distinct.
                    key.compiler = std::borrow::Cow::Borrowed("Meta-Compiled");
                }
                if !path.all_causes.contains(&key) {
                    path.all_causes.push(key.clone());
                }
                if path.cause.is_none() {
                    path.cause = Some(key);
                    path.verdict = Verdict::Difference(d);
                    path.found_by_probe = probe;
                    path.isa = Some(isa);
                }
                true
            } else {
                false
            };
            if let CompiledRun::Ran(exit) = compiled {
                self.ctx.parts.exits.recycle(exit);
            }
            self.ctx.lap.charge(&mut tally.times.compare);
            if differs
                && matches!(
                    path.verdict,
                    Verdict::Difference(Difference { kind: DifferenceKind::CompileRefused, .. })
                )
            {
                return Checked::Refused;
            }
        }
        Checked::Compared
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igjit_concolic::Explorer;
    use igjit_jit::CompilerKind;
    use igjit_solver::{Assignment, Kind, VarId};

    /// `model` with the receiver assigned a SmallInteger outside the
    /// tagged range, which no heap can hold.
    fn unrealizable(state: &AbstractState, model: &Model) -> Model {
        let receiver = state.receiver.index();
        let mut assignments: Vec<Assignment> = (0..model.len().max(receiver + 1))
            .map(|i| model.assignment(VarId(i as u32)))
            .collect();
        assignments[receiver].kind = Kind::SmallInt;
        assignments[receiver].int = igjit_heap::SMALL_INT_MAX + 1;
        Model::from_assignments(assignments)
    }

    #[test]
    fn unrealizable_models_are_counted_not_compared() {
        // The Simple tier's `Add` always sends where the interpreter
        // inlines, so the solver's own models do differ; the same
        // models made unrealizable must be counted and never compared.
        let code_cache = CodeCache::new();
        let meta_cache = MetaCache::new();
        let isas = [Isa::X86ish, Isa::Arm32ish];
        let target = Target::Bytecode(CompilerKind::SimpleStackBased);
        for instrs in [
            &[Instruction::Add][..],
            &[Instruction::PushOne, Instruction::Add],
        ] {
            let program = Program::Bytecode(instrs);
            let explored = Explorer::new().explore_sequence(instrs).expect("non-empty");
            let curated = explored.curated_paths();
            let mut harness = Harness::new(target, &isas, &code_cache, &meta_cache);
            let mut differences = 0;
            for path in &curated {
                let mut honest = PathVerdict::new(program.tag());
                harness.check(&explored.state, &path.model, program, false, &mut honest);
                differences += usize::from(honest.verdict.is_difference());

                let mut verdict = PathVerdict::new(program.tag());
                let bad = unrealizable(&explored.state, &path.model);
                let checked = harness.check(&explored.state, &bad, program, false, &mut verdict);
                let receiver = explored.state.receiver;
                assert!(
                    matches!(&checked, Checked::Unrealizable(e) if e.var == receiver),
                    "{instrs:?}: {checked:?}"
                );
                assert!(!verdict.verdict.is_difference(), "{instrs:?}: {verdict:?}");
                assert!(
                    verdict.all_causes.is_empty() && verdict.isa.is_none(),
                    "{verdict:?}"
                );
            }
            let tally = harness.finish();
            assert!(
                differences > 0,
                "{instrs:?}: the solver's models compare and differ"
            );
            assert_eq!(tally.witness_errors, curated.len(), "{instrs:?}");
            assert_eq!(tally.oracle_panics, 0, "{instrs:?}");
        }
    }
}
