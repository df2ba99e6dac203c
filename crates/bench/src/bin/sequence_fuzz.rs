//! Sequence fuzzing campaign: random straight-line bytecode sequences
//! are concolically explored and differentially tested against the
//! production tier on both ISAs — the future-work extension driven at
//! scale. Deterministic (fixed seed) so results are reproducible.

use igjit::{CompilerKind, Instruction, Isa, Verdict};
use igjit_difftest::{test_sequence, SEQUENCE_POOL};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let _mutant = igjit_bench::arm_mutant_from_env();
    let mut rng = StdRng::seed_from_u64(0x1_9A7);
    let isas = [Isa::X86ish, Isa::Arm32ish];
    let rounds = 200;
    let mut total_paths = 0usize;
    let mut total_diffs = 0usize;
    let mut test_errors = 0usize;
    let mut optimisation_only = true;

    for round in 0..rounds {
        let len = rng.gen_range(2..=5);
        let seq: Vec<Instruction> =
            (0..len).map(|_| SEQUENCE_POOL[rng.gen_range(0..SEQUENCE_POOL.len())]).collect();
        let o = test_sequence(&seq, CompilerKind::StackToRegister, &isas);
        total_paths += o.paths_found;
        if o.witness_errors + o.oracle_panics > 0 {
            test_errors += o.witness_errors + o.oracle_panics;
            println!(
                "round {round}: {} unrealizable witness(es), {} oracle panic(s) on {seq:?}",
                o.witness_errors, o.oracle_panics
            );
        }
        let diffs = o.difference_count();
        total_diffs += diffs;
        for v in &o.verdicts {
            if let Verdict::Difference(_) = v.verdict {
                let cat = v.cause.as_ref().map(|c| c.category);
                if cat != Some(igjit::DefectCategory::OptimisationDifference) {
                    optimisation_only = false;
                    println!("round {round}: UNEXPECTED divergence on {seq:?}: {v:?}");
                }
            }
        }
        if round % 50 == 0 {
            eprintln!("  …{round}/{rounds}");
        }
    }

    println!("\nsequence fuzzing: {rounds} random sequences, {total_paths} paths explored");
    println!("{total_diffs} differing paths, all of them the known float-optimisation gap: {optimisation_only}");
    assert_eq!(test_errors, 0, "every model of every sequence must be realizable and interpretable");
    assert!(
        optimisation_only,
        "random sequences uncovered a divergence outside the planted defect set"
    );
}
