//! The per-instruction differential campaign.

use std::time::{Duration, Instant};

use igjit_concolic::{
    probe_models_with_stats, CurationReason, ExplorationResult, Explorer, InstrUnderTest,
};
use igjit_jit::{CodeCache, CompilerKind};
use igjit_machine::Isa;
use igjit_metajit::MetaCache;
use igjit_solver::{Model, SessionStats, TrailStats};

use crate::classify::CauseKey;
use crate::compare::Verdict;
use crate::step::{Checked, Harness, Program};

/// What compiler the campaign tests against the interpreter.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Target {
    /// The template-based native-method compiler.
    NativeMethods,
    /// One of the three bytecode tiers.
    Bytecode(CompilerKind),
    /// The meta-compiled tier (#5): bytecodes compiled by partially
    /// evaluating the interpreter's own step functions
    /// (`igjit-metajit`), with an interpreter trampoline for whatever
    /// the evaluator refuses.
    MetaCompiled,
}

impl Target {
    /// The Table 2 row label.
    pub fn label(self) -> &'static str {
        match self {
            Target::NativeMethods => "Native Methods (primitives)",
            Target::Bytecode(k) => k.name(),
            Target::MetaCompiled => "Meta-Compiled (tier 5)",
        }
    }

    pub(crate) fn compiler_kind(self) -> Option<CompilerKind> {
        match self {
            Target::NativeMethods | Target::MetaCompiled => None,
            Target::Bytecode(k) => Some(k),
        }
    }
}

/// The verdict for one explored path (aggregated over ISAs + probes).
#[derive(Clone, Debug)]
pub struct PathVerdict {
    /// The instruction.
    pub instruction: InstrUnderTest,
    /// Interpreter exit of the base model's run.
    pub interp_exit: String,
    /// The comparison verdict (the first difference found is kept for
    /// display).
    pub verdict: Verdict,
    /// Defect cause of the first difference, when different.
    pub cause: Option<CauseKey>,
    /// All distinct defect causes observed across ISAs and probe
    /// variants of this path (a path can expose several defects —
    /// e.g. a missing compiled type check *and* a simulation error).
    pub all_causes: Vec<CauseKey>,
    /// Whether the difference surfaced only under a probe model.
    pub found_by_probe: bool,
    /// ISA on which the difference was (first) observed.
    pub isa: Option<Isa>,
}

impl PathVerdict {
    /// An agreeing verdict filed under `instruction`, before any model
    /// of the path was checked.
    pub fn new(instruction: InstrUnderTest) -> PathVerdict {
        PathVerdict {
            instruction,
            interp_exit: String::new(),
            verdict: Verdict::Agree,
            cause: None,
            all_causes: Vec::new(),
            found_by_probe: false,
            isa: None,
        }
    }
}

/// Everything the campaign learned about one instruction.
#[derive(Clone, Debug)]
pub struct InstructionOutcome {
    /// The instruction.
    pub instruction: InstrUnderTest,
    /// Paths the concolic exploration discovered.
    pub paths_found: usize,
    /// Paths surviving curation (§5.2).
    pub curated: usize,
    /// Curation records (why paths/prefixes were excluded).
    pub curated_out: Vec<CurationReason>,
    /// One verdict per curated path.
    pub verdicts: Vec<PathVerdict>,
    /// Solver/exploration iterations spent (for Fig. 6-style stats).
    pub explore_iterations: usize,
    /// Models whose materialization produced an unrealizable witness
    /// (reported as test errors; their runs are skipped, not
    /// compared).
    pub witness_errors: usize,
    /// Models whose oracle run (materialization or interpretation)
    /// panicked. A crashing interpreter path is a test error worth
    /// surfacing, not a quietly skipped model.
    pub oracle_panics: usize,
    /// Seal/restore accounting of the copy-on-write heap replay (all
    /// zero when the snapshot layer is disabled).
    pub snapshot: SnapshotStats,
    /// Runs executed as meta-compiled machine code (always zero for
    /// targets other than [`Target::MetaCompiled`]).
    pub meta_compiled_runs: usize,
    /// Runs the meta tier routed through the interpreter trampoline.
    pub meta_trampolines: usize,
}

/// Seal/restore accounting for the copy-on-write heap replay.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Base images sealed — one per materialized (path, model).
    pub seals: u64,
    /// Rollbacks of a sealed base between engine runs.
    pub restores: u64,
    /// Total dirty units (heap words + external bytes) undone across
    /// all restores.
    pub dirty_words: u64,
    /// Histogram of dirty units per restore, bucketed by powers of 4:
    /// 0, 1–3, 4–15, 16–63, 64–255, 256–1023, 1024–4095, ≥4096.
    pub dirty_hist: [u64; 8],
}

impl SnapshotStats {
    /// Folds one restore's dirty count in.
    pub fn record_restore(&mut self, dirty: usize) {
        self.restores += 1;
        self.dirty_words += dirty as u64;
        let mut bucket = 0usize;
        let mut d = dirty;
        while d > 0 && bucket < 7 {
            d >>= 2;
            bucket += 1;
        }
        self.dirty_hist[bucket] += 1;
    }

    /// Accumulates another sample into this one.
    pub fn merge(&mut self, other: &SnapshotStats) {
        self.seals += other.seals;
        self.restores += other.restores;
        self.dirty_words += other.dirty_words;
        for (a, b) in self.dirty_hist.iter_mut().zip(other.dirty_hist.iter()) {
            *a += *b;
        }
    }
}

impl InstructionOutcome {
    /// Number of differing paths.
    pub fn difference_count(&self) -> usize {
        self.verdicts.iter().filter(|v| v.verdict.is_difference()).count()
    }

    /// Distinct defect causes among the differences.
    pub fn causes(&self) -> Vec<CauseKey> {
        let mut keys: Vec<CauseKey> =
            self.verdicts.iter().flat_map(|v| v.all_causes.iter().cloned()).collect();
        keys.sort();
        keys.dedup();
        keys
    }
}

/// One row of Table 2.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CampaignRow {
    /// Row label (compiler name).
    pub label: String,
    /// Number of tested instructions.
    pub tested_instructions: usize,
    /// Paths found by concolic exploration.
    pub interpreter_paths: usize,
    /// Paths surviving curation.
    pub curated_paths: usize,
    /// Paths showing differences.
    pub differences: usize,
    /// Meta-tier runs executed as machine code (zero on other rows).
    pub meta_compiled_runs: usize,
    /// Meta-tier runs that fell back to the interpreter trampoline.
    pub meta_trampolines: usize,
    /// Instructions every one of whose runs was meta-compiled (the
    /// coverage numerator; `tested_instructions` is the denominator).
    pub meta_full_instructions: usize,
}

impl CampaignRow {
    /// Percentage of curated paths that differ (Table 2's last
    /// column).
    pub fn difference_percent(&self) -> f64 {
        if self.curated_paths == 0 {
            0.0
        } else {
            100.0 * self.differences as f64 / self.curated_paths as f64
        }
    }

    /// Folds one instruction's outcome into the row.
    pub fn absorb(&mut self, outcome: &InstructionOutcome) {
        self.tested_instructions += 1;
        self.interpreter_paths += outcome.paths_found;
        self.curated_paths += outcome.curated;
        self.differences += outcome.difference_count();
        self.meta_compiled_runs += outcome.meta_compiled_runs;
        self.meta_trampolines += outcome.meta_trampolines;
        if outcome.meta_compiled_runs > 0 && outcome.meta_trampolines == 0 {
            self.meta_full_instructions += 1;
        }
    }

    /// Fraction of tested instructions the meta tier compiled on every
    /// run (0 when the row tested nothing or is not the meta row).
    pub fn meta_coverage(&self) -> f64 {
        if self.tested_instructions == 0 {
            0.0
        } else {
            self.meta_full_instructions as f64 / self.tested_instructions as f64
        }
    }
}

/// Wall-clock spent in each stage of the differential pipeline for
/// one instruction (the observability layer's unit of account).
///
/// Inside [`test_instruction_with`] the stages are consecutive splits
/// of one clock: each stage boundary reads the clock once and charges
/// the time since the previous boundary to the stage that just ended,
/// so no time inside the call falls between two stages.
///
/// Stage boundaries:
/// - `explore`: concolic exploration plus kind-probe model solving.
///   Zero when the exploration came from a cache.
/// - `materialize`: model-to-heap materialization *and* the concrete
///   interpreter oracle run it feeds (they share one traversal).
/// - `compile`: JIT front-end + back-end time for the target tier,
///   charged inside the code cache's miss (zero on a hit).
/// - `simulate`: machine-simulator execution of the compiled code
///   (the run loop only — construction and exit extraction are
///   attributed to `setup`/`report`).
/// - `compare`: behavioural comparison and defect classification
///   (one split: classification is part of the comparison stage).
///
/// Engine v5 split the formerly-opaque `other` bucket into named
/// sub-buckets so residual overhead is measured, not asserted:
/// - `setup`: simulator construction per run — session reset (dirty
///   stack extent + registers) and convention-register seeding.
/// - `decode`: always zero — compiled code is byte-decoded as it runs,
///   inside `simulate`. The field stays for readers of the stage set.
/// - `hash`: compile-key construction and cache lookup (the cache's
///   hot path), minus any compile time spent inside a miss.
/// - `report`: engine-exit extraction and verdict/outcome assembly.
/// - `progress`: the driver's per-instruction progress callback
///   (stderr write + flush when a reporter is installed).
/// - `other`: only the campaign's work outside `test_instruction_with`
///   (exploration-cache and corpus lookups). The campaign attributes
///   it as elapsed-minus-stages so the stage sum accounts for the
///   whole wall clock.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageTimes {
    /// Concolic exploration + probe-model solving.
    pub explore: Duration,
    /// Materialization + interpreter-oracle execution + base-image
    /// snapshot restores.
    pub materialize: Duration,
    /// JIT compilation.
    pub compile: Duration,
    /// Partial evaluation + lowering in the meta-compiled tier, charged
    /// inside the meta cache's miss (zero on a hit and on every other
    /// target).
    pub meta_compile: Duration,
    /// Machine simulation of compiled code.
    pub simulate: Duration,
    /// Comparison + classification, one split.
    pub compare: Duration,
    /// Machine construction + register/frame seeding per run.
    pub setup: Duration,
    /// Always zero: compiled code is byte-decoded as it runs, inside
    /// [`StageTimes::simulate`]. Kept so readers of the stage set (the
    /// benchmark's `machine.decode_ms`) keep their field.
    pub decode: Duration,
    /// Compile-key construction + cache lookup.
    pub hash: Duration,
    /// Engine-exit extraction + verdict assembly.
    pub report: Duration,
    /// Per-instruction progress reporting (the driver's callback,
    /// typically a stderr write + flush).
    pub progress: Duration,
    /// The campaign's work outside `test_instruction_with`.
    pub other: Duration,
    /// **Sub-slice of `explore`** (engine v8): frame materialization +
    /// concrete execution inside the negation walk. Not part of
    /// [`StageTimes::total`] — it re-counts time already in `explore`,
    /// attributed separately so the stage table shows where the walk's
    /// wall clock goes.
    pub walk_run: Duration,
    /// **Sub-slice of `explore`** (engine v8): kind-probe hypothesis
    /// solving (the batched per-path session sweep). Like `walk_run`,
    /// excluded from [`StageTimes::total`].
    pub probe_solve: Duration,
}

impl StageTimes {
    /// Sum over all stages. The `walk_run`/`probe_solve` sub-slices
    /// are *not* added — their time is already inside `explore`.
    pub fn total(&self) -> Duration {
        self.explore
            + self.materialize
            + self.compile
            + self.meta_compile
            + self.simulate
            + self.compare
            + self.setup
            + self.decode
            + self.hash
            + self.report
            + self.progress
            + self.other
    }

    /// Accumulates another sample into this one.
    pub fn merge(&mut self, other: &StageTimes) {
        self.explore += other.explore;
        self.materialize += other.materialize;
        self.compile += other.compile;
        self.meta_compile += other.meta_compile;
        self.simulate += other.simulate;
        self.compare += other.compare;
        self.setup += other.setup;
        self.decode += other.decode;
        self.hash += other.hash;
        self.report += other.report;
        self.progress += other.progress;
        self.other += other.other;
        self.walk_run += other.walk_run;
        self.probe_solve += other.probe_solve;
    }

    /// Keeps the per-stage maximum of the two samples. Folding each
    /// worker's self-time sum with this yields the per-stage critical
    /// path of a parallel batch (what the wall clock actually waits
    /// on), as opposed to [`StageTimes::merge`]'s CPU-side total.
    pub fn merge_max(&mut self, other: &StageTimes) {
        self.explore = self.explore.max(other.explore);
        self.materialize = self.materialize.max(other.materialize);
        self.compile = self.compile.max(other.compile);
        self.meta_compile = self.meta_compile.max(other.meta_compile);
        self.simulate = self.simulate.max(other.simulate);
        self.compare = self.compare.max(other.compare);
        self.setup = self.setup.max(other.setup);
        self.decode = self.decode.max(other.decode);
        self.hash = self.hash.max(other.hash);
        self.report = self.report.max(other.report);
        self.progress = self.progress.max(other.progress);
        self.other = self.other.max(other.other);
        self.walk_run = self.walk_run.max(other.walk_run);
        self.probe_solve = self.probe_solve.max(other.probe_solve);
    }
}

/// Wall-clock attribution of the exploration handed to
/// [`test_instruction_with`]: the total the caller spent producing it
/// (zero on a cache hit) plus the instrumented sub-slices the engine
/// reported ([`ExplorationResult::walk_run`] /
/// [`ExplorationResult::probe_solve`] — also zero on a hit, since a
/// shared entry's work is charged exactly once, by the miss).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExploreCost {
    /// Wall-clock spent producing the exploration.
    pub total: Duration,
    /// Of `total`, the negation walk's materialize + concrete-run time.
    pub walk_run: Duration,
    /// Of `total`, the kind-probe hypothesis solving time.
    pub probe_solve: Duration,
}

impl ExploreCost {
    /// The cost of an exploration served from a cache: zero all round.
    pub fn cached() -> ExploreCost {
        ExploreCost::default()
    }
}

/// Runs the full differential pipeline for one instruction: concolic
/// exploration, curation, (optional) kind probing, and a compiled run
/// per ISA per model, compared against the interpreter oracle.
///
/// Explores from scratch on every call. The campaign driver avoids
/// that via [`test_instruction_with`] and a shared
/// [`igjit_concolic::ExplorationCache`].
pub fn test_instruction(
    instr: InstrUnderTest,
    target: Target,
    isas: &[Isa],
    enable_probes: bool,
) -> InstructionOutcome {
    let t0 = Instant::now();
    let exploration = Explorer::new().explore(instr);
    let explore_cost = ExploreCost {
        total: t0.elapsed(),
        walk_run: exploration.walk_run,
        probe_solve: exploration.probe_solve,
    };
    let cache = CodeCache::disabled();
    let meta_cache = MetaCache::new();
    let (outcome, _times, _solver, _trail) = test_instruction_with(
        instr,
        target,
        isas,
        enable_probes,
        &exploration,
        explore_cost,
        &cache,
        &meta_cache,
    );
    outcome
}

/// Runs the differential pipeline against an exploration produced (and
/// possibly shared) by the caller, returning per-stage wall-clock and
/// the probe solver's work counters next to the outcome.
///
/// `explore_cost` is the wall-clock the caller spent producing
/// `exploration` (total plus the engine's instrumented sub-slices) —
/// pass [`ExploreCost::cached`] when it came from a cache so the stage
/// accounting reflects work actually done for this call.
/// Compiled artifacts are looked up in `code_cache`, which the caller
/// may share across instructions and threads.
///
/// Every model of every curated path goes through one [`Harness`]:
/// the differential step with one replay arena and the thread's
/// simulator session for the whole call.
#[allow(clippy::too_many_arguments)]
pub fn test_instruction_with(
    instr: InstrUnderTest,
    target: Target,
    isas: &[Isa],
    enable_probes: bool,
    exploration: &ExplorationResult,
    explore_cost: ExploreCost,
    code_cache: &CodeCache,
    meta_cache: &MetaCache,
) -> (InstructionOutcome, StageTimes, SessionStats, TrailStats) {
    let mut harness = Harness::new(target, isas, code_cache, meta_cache);
    let times = &mut harness.tally.times;
    times.explore = explore_cost.total;
    times.walk_run = explore_cost.walk_run;
    times.probe_solve = explore_cost.probe_solve;
    let mut solver = SessionStats::default();
    let mut trail = TrailStats::default();
    let program = Program::of(&instr);
    let curated = exploration.curated_paths();
    let mut verdicts = Vec::with_capacity(curated.len());

    for (pi, path) in curated.iter().enumerate() {
        let mut probes_solved_here = false;
        let models: std::borrow::Cow<'_, [Model]> = if !enable_probes {
            std::borrow::Cow::Borrowed(std::slice::from_ref(&path.model))
        } else if let Some(precomputed) = exploration.probe_models.get(pi) {
            // The exploration cache precomputed probing for every
            // curated path (same order as `curated`); its solver work
            // is already in `exploration.solver`.
            std::borrow::Cow::Borrowed(precomputed.as_slice())
        } else {
            let (models, probe_stats, probe_trail) = probe_models_with_stats(
                &exploration.state,
                path,
                igjit_concolic::DEFAULT_MAX_PROBES,
            );
            solver.merge(&probe_stats);
            trail.merge(&probe_trail);
            probes_solved_here = true;
            std::borrow::Cow::Owned(models)
        };
        let probe_split = harness.charge(|t| &mut t.explore);
        if probes_solved_here {
            harness.tally.times.probe_solve += probe_split;
        }
        let mut verdict = PathVerdict::new(instr);
        for (mi, model) in models.iter().enumerate() {
            let checked = harness.check(&exploration.state, model, program, mi > 0, &mut verdict);
            if checked == Checked::Refused {
                break;
            }
        }
        verdicts.push(verdict);
        harness.charge(|t| &mut t.report);
    }

    let tally = &harness.tally;
    let outcome = InstructionOutcome {
        instruction: instr,
        paths_found: exploration.paths.len(),
        curated: curated.len(),
        curated_out: exploration.curated_out.clone(),
        verdicts,
        explore_iterations: exploration.iterations,
        witness_errors: tally.witness_errors,
        oracle_panics: tally.oracle_panics,
        snapshot: tally.snapshot.clone(),
        meta_compiled_runs: tally.meta.compiled,
        meta_trampolines: tally.meta.trampolined,
    };
    harness.charge(|t| &mut t.report);
    (outcome, harness.finish().times, solver, trail)
}

#[cfg(test)]
mod tests {
    use super::*;
    use igjit_bytecode::Instruction;
    use igjit_interp::NativeMethodId;

    const BOTH: [Isa; 2] = [Isa::X86ish, Isa::Arm32ish];

    #[test]
    fn add_bytecode_agrees_on_stack_to_register_int_paths() {
        let o = test_instruction(
            InstrUnderTest::Bytecode(Instruction::Add),
            Target::Bytecode(CompilerKind::StackToRegister),
            &BOTH,
            false,
        );
        assert!(o.paths_found >= 5);
        // Exactly the float fast path differs (optimisation
        // difference); the int paths and send paths agree.
        assert_eq!(o.difference_count(), 1, "{:?}", o.verdicts);
        let causes = o.causes();
        assert_eq!(causes.len(), 1);
        assert_eq!(
            causes[0].category,
            crate::DefectCategory::OptimisationDifference
        );
    }

    #[test]
    fn add_bytecode_differs_more_on_simple_stack() {
        let o = test_instruction(
            InstrUnderTest::Bytecode(Instruction::Add),
            Target::Bytecode(CompilerKind::SimpleStackBased),
            &BOTH,
            false,
        );
        // Int fast path AND float fast path both differ (no static
        // type prediction at all).
        assert!(o.difference_count() >= 2, "{:?}", o.verdicts);
    }

    #[test]
    fn push_bytecodes_always_agree() {
        for instr in [
            Instruction::PushTrue,
            Instruction::PushZero,
            Instruction::Dup,
            Instruction::Pop,
            Instruction::PushTemp(1),
        ] {
            for kind in CompilerKind::ALL {
                let o = test_instruction(
                    InstrUnderTest::Bytecode(instr),
                    Target::Bytecode(kind),
                    &BOTH,
                    false,
                );
                assert_eq!(o.difference_count(), 0, "{instr:?} {kind:?}: {:?}", o.verdicts);
            }
        }
    }

    #[test]
    fn native_add_agrees() {
        let o = test_instruction(
            InstrUnderTest::Native(NativeMethodId(1)),
            Target::NativeMethods,
            &BOTH,
            false,
        );
        assert!(o.curated >= 4);
        assert_eq!(o.difference_count(), 0, "{:?}", o.verdicts);
    }

    #[test]
    fn native_bitand_shows_behavioural_difference() {
        let o = test_instruction(
            InstrUnderTest::Native(NativeMethodId(14)),
            Target::NativeMethods,
            &BOTH,
            false,
        );
        assert!(o.difference_count() >= 1, "{:?}", o.verdicts);
        assert!(o
            .causes()
            .iter()
            .any(|c| c.category == crate::DefectCategory::BehaviouralDifference));
    }

    #[test]
    fn native_float_add_shows_missing_compiled_check() {
        // The divergence needs a non-float receiver with a float
        // argument — a combination only kind probing produces, since
        // the interpreter's failure path leaves the argument
        // unconstrained.
        let o = test_instruction(
            InstrUnderTest::Native(NativeMethodId(41)),
            Target::NativeMethods,
            &BOTH,
            true,
        );
        assert!(o.difference_count() >= 1, "{:?}", o.verdicts);
        assert!(o
            .causes()
            .iter()
            .any(|c| c.category == crate::DefectCategory::MissingCompiledTypeCheck));
    }

    #[test]
    fn native_as_float_needs_probing() {
        let without = test_instruction(
            InstrUnderTest::Native(NativeMethodId(40)),
            Target::NativeMethods,
            &BOTH,
            false,
        );
        assert_eq!(without.difference_count(), 0, "invisible without probes");
        let with = test_instruction(
            InstrUnderTest::Native(NativeMethodId(40)),
            Target::NativeMethods,
            &BOTH,
            true,
        );
        assert!(with.difference_count() >= 1, "{:?}", with.verdicts);
        let v = with.verdicts.iter().find(|v| v.verdict.is_difference()).unwrap();
        assert!(v.found_by_probe);
        assert_eq!(
            v.cause.as_ref().unwrap().category,
            crate::DefectCategory::MissingInterpreterTypeCheck
        );
    }

    #[test]
    fn ffi_natives_are_missing_functionality() {
        let o = test_instruction(
            InstrUnderTest::Native(NativeMethodId(120)),
            Target::NativeMethods,
            &BOTH,
            false,
        );
        assert!(o.difference_count() >= 1);
        assert!(o
            .causes()
            .iter()
            .all(|c| c.category == crate::DefectCategory::MissingFunctionality));
    }

    #[test]
    fn fraction_part_triggers_simulation_error() {
        let o = test_instruction(
            InstrUnderTest::Native(NativeMethodId(52)),
            Target::NativeMethods,
            &BOTH,
            true,
        );
        assert!(o
            .causes()
            .iter()
            .any(|c| c.category == crate::DefectCategory::SimulationError),
            "{:?}",
            o.verdicts
        );
    }

    #[test]
    fn campaign_row_aggregation() {
        let mut row = CampaignRow { label: "x".into(), ..Default::default() };
        let o = test_instruction(
            InstrUnderTest::Bytecode(Instruction::PushOne),
            Target::Bytecode(CompilerKind::StackToRegister),
            &[Isa::X86ish],
            false,
        );
        row.absorb(&o);
        assert_eq!(row.tested_instructions, 1);
        assert!(row.interpreter_paths >= 1);
        assert_eq!(row.differences, 0);
        assert_eq!(row.difference_percent(), 0.0);
    }
}
