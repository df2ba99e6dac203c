//! The stage clock's budget: a harness splits the stage boundaries of
//! its first check and then of one check in `SAMPLE_EVERY`, reads no
//! clock at the boundaries of the others, and times every compile miss
//! exactly with two reads. So a harness over a fixed list of checks
//! reads the clock a pinned number of times, and its stages still sum
//! to its exact run time.

use std::time::{Duration, Instant};

use igjit_bytecode::Instruction;
use igjit_concolic::{ExplorationResult, Explorer, InstrUnderTest};
use igjit_difftest::{Checked, Harness, PathVerdict, Program, Tally, Target, SAMPLE_EVERY};
use igjit_jit::{CodeCache, CompilerKind};
use igjit_machine::Isa;

const BYTECODES: [Instruction; 4] =
    [Instruction::Add, Instruction::Multiply, Instruction::LessThan, Instruction::PushTemp(0)];

const ISAS: [Isa; 2] = [Isa::X86ish, Isa::Arm32ish];

/// Passes over the curated paths of [`BYTECODES`] (38 checks a pass).
const PASSES: usize = 3;

/// Checks of one harness.
const CHECKS: u64 = 114;

/// Clock reads of a harness over [`CHECKS`] checks on a warm code cache
/// (see [`reads_of_a_split_check`]): eight of them split, and splitting
/// all 114 would read the clock about twelve times each.
const WARM_CLOCK_READS: u64 = 83;

/// Clock reads of a split check that ended in `checked`: one for the
/// materialize split, then per ISA one each for hash, setup, simulate,
/// report and compare, and one for the rewind between two ISAs.
fn reads_of_a_split_check(checked: &Checked) -> u64 {
    let isas = ISAS.len() as u64;
    match checked {
        Checked::Compared => 1 + 5 * isas + (isas - 1),
        Checked::Untestable => 1,
        other => panic!("no such check in this list: {other:?}"),
    }
}

fn explorations() -> Vec<(Instruction, ExplorationResult)> {
    BYTECODES.iter().map(|&i| (i, Explorer::new().explore(InstrUnderTest::Bytecode(i)))).collect()
}

/// Runs [`PASSES`] passes through one harness on `code_cache`. Returns
/// the tally, the wall clock around the harness, and the clock reads the
/// sampling rule predicts without compile misses: the start and the
/// stop, the reads of each split check, and a restart read for a split
/// check after one that did not split.
fn run(explored: &[(Instruction, ExplorationResult)], code_cache: &CodeCache) -> (Tally, Duration, u64) {
    let target = Target::Bytecode(CompilerKind::StackToRegister);
    let t0 = Instant::now();
    let mut harness = Harness::new(target, &ISAS, code_cache);
    let (mut predicted, mut index, mut previous_split) = (2, 0u64, true);
    for _ in 0..PASSES {
        for (instr, exploration) in explored {
            let program = Program::Bytecode(std::slice::from_ref(instr));
            for path in exploration.curated_paths() {
                let mut verdict = PathVerdict::new(InstrUnderTest::Bytecode(*instr));
                let checked = harness.check(&exploration.state, &path.model, program, false, &mut verdict);
                let split = index.is_multiple_of(SAMPLE_EVERY);
                if split {
                    predicted += u64::from(!previous_split) + reads_of_a_split_check(&checked);
                }
                previous_split = split;
                index += 1;
            }
        }
    }
    let tally = harness.finish();
    (tally, t0.elapsed(), predicted)
}

/// The stages a harness charges sum to its exact run time, which lies
/// inside the wall clock around it.
fn assert_stages_sum_to_the_harness_time(tally: &Tally, outer: Duration) {
    let t = &tally.times;
    let stages =
        t.materialize + t.compile + t.meta_compile + t.hash + t.setup + t.simulate + t.compare + t.report;
    assert_eq!(stages, tally.elapsed, "{t:?}");
    assert_eq!(t.total(), tally.elapsed, "nothing outside the harness was charged: {t:?}");
    assert!(tally.elapsed <= outer, "{:?} > {outer:?}", tally.elapsed);
    let zero = Duration::ZERO;
    assert!(
        [t.materialize, t.hash, t.setup, t.simulate, t.compare, t.report].iter().all(|&d| d > zero),
        "every split stage got a share: {t:?}"
    );
}

#[test]
fn a_warm_harness_reads_the_clock_a_pinned_number_of_times() {
    let explored = explorations();
    let code_cache = CodeCache::new();
    run(&explored, &code_cache);
    let misses = code_cache.misses();

    let (tally, outer, predicted) = run(&explored, &code_cache);
    assert_eq!(code_cache.misses(), misses, "the second harness only hits");
    let clock = tally.times.clock;
    assert_eq!(clock.checks, CHECKS);
    assert_eq!(clock.sampled_checks, CHECKS.div_ceil(SAMPLE_EVERY));
    assert_eq!(clock.clock_reads, predicted, "the sampling rule predicts every read");
    assert_eq!(clock.clock_reads, WARM_CLOCK_READS);
    assert_eq!(tally.times.compile, Duration::ZERO, "no compile ran");
    assert_stages_sum_to_the_harness_time(&tally, outer);
}

#[test]
fn a_compile_miss_is_timed_exactly_with_two_reads_split_or_not() {
    let explored = explorations();
    let code_cache = CodeCache::new();
    let (tally, outer, predicted) = run(&explored, &code_cache);
    let misses = code_cache.misses() as u64;
    assert!(misses > CHECKS.div_ceil(SAMPLE_EVERY), "some misses fall on checks that do not split");
    assert_eq!(tally.times.clock.clock_reads, predicted + 2 * misses);
    assert!(tally.times.compile > Duration::ZERO, "the misses compiled");
    assert_stages_sum_to_the_harness_time(&tally, outer);
}
