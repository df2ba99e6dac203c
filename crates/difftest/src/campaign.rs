//! The per-instruction differential campaign.

use std::time::Duration;

use igjit_concolic::{CacheLookup, ExplorationCache, InstrUnderTest};
use igjit_jit::{CodeCache, CompilerKind};
use igjit_machine::Isa;

use crate::classify::CauseKey;
use crate::compare::Verdict;
use crate::oracle::EngineExit;
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
    /// Interpreter exit of the base model's run
    /// ([`EngineExit::label`]); empty until the base model has run.
    pub interp_exit: &'static str,
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
            interp_exit: "",
            verdict: Verdict::Agree,
            cause: None,
            all_causes: Vec::new(),
            found_by_probe: false,
            isa: None,
        }
    }

    /// The [`PathVerdict::interp_exit`] spelled `label`, if a verdict
    /// can hold it: an [`EngineExit::label`], or empty.
    pub fn interp_exit_label(label: &str) -> Option<&'static str> {
        std::iter::once("").chain(EngineExit::LABELS).find(|l| *l == label)
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
    /// One verdict per curated path.
    pub verdicts: Vec<PathVerdict>,
    /// Models whose materialization produced an unrealizable witness
    /// (reported as test errors; their runs are skipped, not
    /// compared).
    pub witness_errors: usize,
    /// Models whose oracle run (materialization or interpretation)
    /// panicked. A crashing interpreter path is a test error worth
    /// surfacing, not a quietly skipped model.
    pub oracle_panics: usize,
    /// Seal/restore accounting of the replay arena for this
    /// instruction's checks, including the rollback to blank when they
    /// finish.
    pub snapshot: SnapshotStats,
    /// Runs executed as meta-compiled machine code (always zero for
    /// targets other than [`Target::MetaCompiled`]).
    pub meta_compiled_runs: usize,
    /// Runs the meta tier routed through the interpreter trampoline.
    pub meta_trampolines: usize,
}

/// Seal/restore accounting for the copy-on-write heap replay.
///
/// Every count belongs to the checks that caused it: the replay arena
/// is back at blank whenever a harness finishes, so the totals are the
/// same however instructions are spread over threads.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Per-model images sealed — one per compared (path, model), the
    /// inner level its compiled runs rewind to. The blank seal each
    /// thread's arena takes once is not counted.
    pub seals: u64,
    /// Rollbacks of an arena heap: to the per-model seal between ISAs,
    /// and to blank between models and when a harness finishes.
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
/// Totals are exact, shares are sampled. A [`Harness`]'s whole run,
/// from [`Harness::new`] to [`Harness::finish`], is timed exactly, and
/// so is every compile and meta-compile cache miss. The rest of the
/// harness's time is spread over `materialize`, `hash`, `setup`,
/// `simulate`, `compare` and `report` in the proportions its *sampled*
/// checks measured: the first check of each harness and then one check
/// in [`SAMPLE_EVERY`] split every stage boundary, reading the clock
/// once per boundary; the other checks read no clock. Each split
/// therefore includes one clock read (about 45 ns on a VM's `tsc`
/// clocksource), which matters for the short stages (`setup`,
/// `report`). `explore` and its sub-slices, `progress` and `other` are
/// measured outside the harness and are exact. [`StageTimes::clock`]
/// records how many checks the numbers cover, how many were sampled
/// and how many times the stage clock was read.
///
/// Stage boundaries:
/// - `explore`: concolic exploration plus kind-probe model solving.
///   Zero when the exploration came from a cache.
/// - `materialize`: model-to-heap materialization, its mirror onto
///   the replay heap, *and* the concrete interpreter oracle run it
///   feeds, plus the arena's rollbacks.
/// - `compile`: JIT front-end + back-end time for the target tier,
///   timed exactly inside the code cache's miss (zero on a hit).
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
///   (stderr write + flush when a reporter is installed; zero, and
///   not timed, without one).
/// - `other`: only the campaign's work outside `test_instruction_with`
///   (exploration-cache and corpus lookups). The campaign attributes
///   it as elapsed-minus-stages so the stage sum accounts for the
///   whole wall clock.
///
/// [`Harness`]: crate::Harness
/// [`Harness::new`]: crate::Harness::new
/// [`Harness::finish`]: crate::Harness::finish
/// [`SAMPLE_EVERY`]: crate::SAMPLE_EVERY
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageTimes {
    /// Concolic exploration + probe-model solving.
    pub explore: Duration,
    /// Materialization on the oracle heap + its mirror onto the
    /// replay heap + interpreter-oracle execution + the arena's
    /// rollbacks (between ISAs, between models and at the end).
    pub materialize: Duration,
    /// JIT compilation.
    pub compile: Duration,
    /// Partial evaluation + lowering in the meta-compiled tier, charged
    /// inside a meta key's code-cache miss (zero on a hit and on every
    /// other target).
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
    /// typically a stderr write + flush; zero without a reporter).
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
    /// How the harness stages were measured: checks, sampled checks
    /// and stage-clock reads.
    pub clock: StageClock,
}

/// The stage clock's own accounting, next to the times it produced.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageClock {
    /// Differential checks ([`Harness::check`](crate::Harness::check)
    /// calls) the stage times cover.
    pub checks: u64,
    /// Checks whose stage boundaries were split — the sample the
    /// shares of the split stages come from.
    pub sampled_checks: u64,
    /// Times the stage clock was read, inside the harnesses.
    pub clock_reads: u64,
}

impl StageClock {
    /// Accumulates another sample into this one.
    pub fn merge(&mut self, other: &StageClock) {
        self.checks += other.checks;
        self.sampled_checks += other.sampled_checks;
        self.clock_reads += other.clock_reads;
    }
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
        self.clock.merge(&other.clock);
    }

    /// Keeps the per-stage maximum of the two samples. Folding each
    /// worker's self-time sum with this yields the per-stage critical
    /// path of a parallel batch (what the wall clock actually waits
    /// on), as opposed to [`StageTimes::merge`]'s CPU-side total. The
    /// [`StageTimes::clock`] counts add: they count work, not time.
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
        self.clock.merge(&other.clock);
    }

    /// Rescales the sampled stages so that they and the exact compile
    /// stages sum to `elapsed`, a harness's exact run time: the time the
    /// compiles leave is split over `materialize`, `hash`, `setup`,
    /// `simulate`, `compare` and `report` in the proportions their
    /// sampled splits hold now (all of it to `materialize` if they hold
    /// nothing).
    pub(crate) fn spread_sampled(&mut self, elapsed: Duration) {
        let rest = elapsed.saturating_sub(self.compile + self.meta_compile).as_nanos();
        let mut stages = [
            &mut self.materialize,
            &mut self.hash,
            &mut self.setup,
            &mut self.simulate,
            &mut self.compare,
            &mut self.report,
        ];
        let sampled: u128 = stages.iter().map(|d| d.as_nanos()).sum();
        let mut left = rest;
        for stage in stages.iter_mut().skip(1) {
            let share = (rest * stage.as_nanos()).checked_div(sampled).unwrap_or(0);
            left -= share;
            **stage = nanos(share);
        }
        *stages[0] = nanos(left);
    }
}

fn nanos(n: u128) -> Duration {
    Duration::from_nanos(u64::try_from(n).unwrap_or(u64::MAX))
}

/// Runs the full differential pipeline for one instruction: concolic
/// exploration, curation, (optional) kind probing, and a compiled run
/// per ISA per model, compared against the interpreter oracle.
///
/// Explores from scratch on every call, through a throwaway
/// [`ExplorationCache`] — the one place an exploration comes from —
/// and compiles through a throwaway [`CodeCache`]. The campaign driver
/// shares both caches across targets and threads and calls
/// [`test_instruction_with`] directly.
pub fn test_instruction(
    instr: InstrUnderTest,
    target: Target,
    isas: &[Isa],
    enable_probes: bool,
) -> InstructionOutcome {
    let lookup = ExplorationCache::new().get_or_explore(instr, enable_probes);
    test_instruction_with(instr, target, isas, &lookup, &CodeCache::new()).0
}

/// Runs the differential pipeline against an exploration looked up (and
/// possibly shared) by the caller, returning per-stage wall-clock next
/// to the outcome.
///
/// The lookup's explore time and sub-slices open the stage accounting
/// (all zero on a cache hit, so a shared entry's work is charged once,
/// by the miss). Each curated path is checked on the probe models the
/// cache attached to the exploration, or on its base model when the
/// exploration was looked up without probing.
/// Compiled artifacts, the meta tier's included, are looked up in
/// `code_cache`, which the caller may share across instructions and
/// threads.
///
/// Every model of every curated path goes through one [`Harness`]:
/// the differential step with the thread's replay arena and simulator
/// session for the whole call. A path stops at the first refusal, and
/// at its base model when that model's interpreter exit is an expected
/// failure.
pub fn test_instruction_with(
    instr: InstrUnderTest,
    target: Target,
    isas: &[Isa],
    lookup: &CacheLookup,
    code_cache: &CodeCache,
) -> (InstructionOutcome, StageTimes) {
    let exploration = &*lookup.exploration;
    let mut harness = Harness::new(target, isas, code_cache);
    let times = &mut harness.tally.times;
    times.explore = lookup.explore_time;
    times.walk_run = lookup.walk_run;
    times.probe_solve = lookup.probe_solve;
    let program = Program::of(&instr);
    let curated = exploration.curated_paths();
    let mut verdicts = Vec::with_capacity(curated.len());

    for (pi, path) in curated.iter().enumerate() {
        let models = match exploration.probe_models.get(pi) {
            Some(probed) => probed.as_slice(),
            None => std::slice::from_ref(&path.model),
        };
        let mut verdict = PathVerdict::new(instr);
        for (mi, model) in models.iter().enumerate() {
            let checked = harness.check(&exploration.state, model, program, mi > 0, &mut verdict);
            // A refusal ends the path on any model. An untestable base
            // model ends it too: probe models satisfy the same path
            // condition, so their interpreter exit is just as
            // untestable (`tests/testability_is_per_path.rs`).
            if checked == Checked::Refused || (mi == 0 && checked == Checked::Untestable) {
                break;
            }
        }
        verdicts.push(verdict);
        harness.charge(|t| &mut t.report);
    }

    // The outcome is assembled inside the harness's clock; only the
    // tally's counts are filled in after it stops.
    let mut outcome = InstructionOutcome {
        instruction: instr,
        paths_found: exploration.paths.len(),
        curated: curated.len(),
        verdicts,
        witness_errors: 0,
        oracle_panics: 0,
        snapshot: SnapshotStats::default(),
        meta_compiled_runs: 0,
        meta_trampolines: 0,
    };
    let tally = harness.finish();
    outcome.witness_errors = tally.witness_errors;
    outcome.oracle_panics = tally.oracle_panics;
    outcome.snapshot = tally.snapshot;
    outcome.meta_compiled_runs = tally.meta.compiled;
    outcome.meta_trampolines = tally.meta.trampolined;
    (outcome, tally.times)
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
    fn spreading_keeps_exact_stages_and_sums_to_the_elapsed_time() {
        let ms = Duration::from_millis;
        let mut times = StageTimes {
            explore: ms(7),
            compile: ms(4),
            meta_compile: ms(1),
            materialize: ms(3),
            simulate: ms(1),
            ..StageTimes::default()
        };
        times.spread_sampled(ms(25));
        // 20 ms left after the compiles, split 3 : 1 as sampled.
        assert_eq!((times.materialize, times.simulate), (ms(15), ms(5)));
        assert_eq!((times.compile, times.meta_compile, times.explore), (ms(4), ms(1), ms(7)));
        assert_eq!(times.total() - times.explore, ms(25));

        // Nothing sampled: the rest goes to `materialize`. Shares that do
        // not divide evenly leave their remainder there too.
        let mut unsampled = StageTimes::default();
        unsampled.spread_sampled(ms(2));
        assert_eq!(unsampled.materialize, ms(2));
        let mut thirds = StageTimes {
            hash: Duration::from_nanos(1),
            setup: Duration::from_nanos(1),
            report: Duration::from_nanos(1),
            ..StageTimes::default()
        };
        thirds.spread_sampled(Duration::from_nanos(100));
        assert_eq!(thirds.total(), Duration::from_nanos(100));
        assert_eq!(thirds.materialize, Duration::from_nanos(1));
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
