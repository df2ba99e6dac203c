//! Integration test reproducing Table 1 of the paper: the concolic
//! execution paths of the add bytecode, with the expected mix of
//! concrete inputs and constraint shapes. A path's outputs are what
//! the interpreter, the oracle, computes from its model.

use igjit::{ExplorationResult, Explorer, ExploredPath, InstrUnderTest, Instruction, PathOutcome};
use igjit_bytecode::SpecialSelector;
use igjit_difftest::{run_oracle, EngineExit};
use igjit_heap::{Oop, SMALL_INT_MAX, SMALL_INT_MIN};

/// The operand stack the oracle leaves on `p`'s model, when it
/// succeeds.
fn oracle_stack(r: &ExplorationResult, p: &ExploredPath) -> Option<Vec<Oop>> {
    match run_oracle(&r.state, &p.model, p.instruction).exit {
        EngineExit::Success { stack, .. } => Some(stack),
        _ => None,
    }
}

/// Whether `p` is a success path whose single result satisfies `pred`.
fn succeeds_with(r: &ExplorationResult, p: &ExploredPath, pred: fn(Oop) -> bool) -> bool {
    matches!(p.outcome, PathOutcome::Success)
        && oracle_stack(r, p).is_some_and(|s| s.len() == 1 && pred(s[0]))
}

#[test]
fn add_paths_cover_table_1() {
    let r = Explorer::new().explore(InstrUnderTest::Bytecode(Instruction::Add));

    // Row "0 (integer), 0 (integer)": both ints, sum in range →
    // success with the sum pushed.
    let int_success = r.paths.iter().any(|p| succeeds_with(&r, p, Oop::is_small_int));
    assert!(int_success, "int+int success path");

    // Row "0xFFFFFFFF (integer), 1 (integer)": both ints, sum
    // overflows → slow-path send with integer operands.
    let overflow = r.paths.iter().find(|p| {
        matches!(&p.outcome, PathOutcome::MessageSend(s)
            if s.special == Some(SpecialSelector::Plus)
            && s.receiver.is_small_int()
            && s.args.len() == 1
            && s.args[0].is_small_int()
            && {
                let sum = s.receiver.small_int_value() + s.args[0].small_int_value();
                !(SMALL_INT_MIN..=SMALL_INT_MAX).contains(&sum)
            })
    });
    assert!(overflow.is_some(), "overflow path with concrete out-of-range sum");

    // Rows "integer, object" / "object, integer" / "object, object":
    // type-mismatch sends (at least one operand not an integer).
    let mismatch_sends = r
        .paths
        .iter()
        .filter(|p| {
            matches!(&p.outcome, PathOutcome::MessageSend(s)
                if s.special == Some(SpecialSelector::Plus)
                && (s.receiver.is_pointer() || s.args[0].is_pointer()))
        })
        .count();
    assert!(mismatch_sends >= 2, "type-mismatch send paths, got {mismatch_sends}");

    // The float fast path (the interpreter's extra static type
    // prediction): both floats → success pushing a boxed float.
    let float_success = r.paths.iter().any(|p| succeeds_with(&r, p, Oop::is_pointer));
    assert!(float_success, "float+float inlined success path");

    // Fig. 2's first column: the invalid-frame exit on an empty stack.
    assert!(
        r.paths.iter().any(|p| matches!(p.outcome, PathOutcome::InvalidFrame)),
        "invalid frame path"
    );
}

#[test]
fn add_models_reconstruct_concrete_values() {
    // Every success path's model must materialize concrete SmallInts
    // whose sum matches the recorded output.
    let r = Explorer::new().explore(InstrUnderTest::Bytecode(Instruction::Add));
    let mut checked = 0;
    for p in r.paths.iter().filter(|p| succeeds_with(&r, p, Oop::is_small_int)) {
        let size = p.model.int_value(r.state.stack_size);
        assert!(size >= 2, "int success needs two operands");
        let arg = p.model.int_value(r.state.stack_vars[0]);
        let rcvr = p.model.int_value(r.state.stack_vars[1]);
        assert_eq!(
            oracle_stack(&r, p).unwrap()[0],
            Oop::from_small_int(rcvr + arg),
            "output is the sum of the materialized operands"
        );
        checked += 1;
    }
    assert!(checked > 0, "an int+int success path to check");
}
