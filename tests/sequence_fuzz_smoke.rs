//! A deterministic miniature of the sequence-fuzzing campaign
//! (`igjit-bench --bin sequence_fuzz`): random straight-line sequences
//! must never diverge outside the planted optimisation gap, and every
//! short sequence the benchmark can draw must explore cleanly.

use igjit::{CompilerKind, DefectCategory, Instruction, Isa, Verdict};
use igjit_concolic::{probe_models, Explorer, DEFAULT_MAX_PROBES};
use igjit_difftest::{test_sequence, SEQUENCE_POOL};
use igjit_solver::Constraint;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const POOL: [Instruction; 16] = [
    Instruction::PushZero,
    Instruction::PushOne,
    Instruction::PushTwo,
    Instruction::PushMinusOne,
    Instruction::PushInteger(13),
    Instruction::PushTrue,
    Instruction::PushFalse,
    Instruction::Dup,
    Instruction::Pop,
    Instruction::Add,
    Instruction::Subtract,
    Instruction::Multiply,
    Instruction::LessThan,
    Instruction::Equal,
    Instruction::BitAnd,
    Instruction::IdentityEqual,
];

#[test]
fn random_sequences_never_diverge_unexpectedly() {
    let mut rng = StdRng::seed_from_u64(42);
    for _ in 0..40 {
        let len = rng.gen_range(2..=4);
        let seq: Vec<Instruction> =
            (0..len).map(|_| POOL[rng.gen_range(0..POOL.len())]).collect();
        let o = test_sequence(&seq, CompilerKind::StackToRegister, &[Isa::X86ish]);
        assert_eq!((o.witness_errors, o.oracle_panics), (0, 0), "{seq:?}");
        for v in &o.verdicts {
            if let Verdict::Difference(_) = v.verdict {
                assert_eq!(
                    v.cause.as_ref().map(|c| c.category),
                    Some(DefectCategory::OptimisationDifference),
                    "{seq:?}: {v:?}"
                );
            }
        }
    }
}

/// Whether any integer comparison inside `c` carries a term with a
/// zero coefficient.
fn has_zero_term(c: &Constraint) -> bool {
    match c {
        Constraint::Int(_, l, r) => l.terms.iter().chain(&r.terms).any(|t| t.0 == 0),
        Constraint::And(cs) | Constraint::Or(cs) => cs.iter().any(has_zero_term),
        _ => false,
    }
}

/// Every sequence of two or three pool instructions (all 14,400)
/// explores, and kind-probes each curated path, without a panic — and
/// records no zero-coefficient term. Multiplying a symbolic value by a
/// concrete 0 (`[PushZero, PushReceiver, Multiply]`) once put such a
/// term into a path condition, and the solver's propagator divides by
/// every coefficient it sees.
#[test]
fn every_short_pool_sequence_explores_and_probes() {
    let explorer = Explorer::new();
    let mut sequences = 0;
    for a in SEQUENCE_POOL {
        for b in SEQUENCE_POOL {
            let mut seqs = vec![vec![a, b]];
            seqs.extend(SEQUENCE_POOL.iter().map(|&c| vec![a, b, c]));
            for seq in seqs {
                let r = explorer.explore_sequence(&seq).expect("non-empty");
                for path in &r.paths {
                    assert!(!path.constraints.iter().any(has_zero_term), "{seq:?}: {path:?}");
                }
                for path in r.curated_paths() {
                    probe_models(&r.state, path, DEFAULT_MAX_PROBES);
                }
                sequences += 1;
            }
        }
    }
    assert_eq!(sequences, 14_400);
}
