//! Umbrella package for the reproduction's runnable examples and
//! cross-crate integration tests. The library surface lives in the
//! [`igjit`] crate; see the README and DESIGN.md for the map.

pub use igjit;

pub mod harness {
    //! Shared differential harness for the integration-test suites:
    //! run one instruction on the interpreter and on a compiler tier
    //! with the same concrete operand stack, and assert behavioural
    //! agreement. Used by `tests/property_differential.rs` (random
    //! operands) and `tests/regression_seeds.rs` (pinned proptest
    //! counterexample seeds).

    use igjit_bytecode::Instruction;
    use igjit_concolic::InstrUnderTest;
    use igjit_difftest::{run_compiled_for_instr, run_oracle_on, CompiledRun, EngineExit};
    use igjit_heap::{ObjectMemory, Oop};
    use igjit_interp::{Frame, MethodInfo};
    use igjit_jit::CompilerKind;
    use igjit_machine::Isa;

    /// Runs one interpreter step of `instr` over `stack` and maps the
    /// outcome onto the difftest exit vocabulary.
    pub fn interp_exit(instr: Instruction, stack: &[Oop]) -> (EngineExit, ObjectMemory) {
        let mut mem = ObjectMemory::new();
        let nil = mem.nil();
        let mut frame = Frame::new(nil, MethodInfo::empty());
        frame.stack = stack.to_vec();
        let exit = run_oracle_on(&mut mem, &mut frame, InstrUnderTest::Bytecode(instr));
        (exit, mem)
    }

    /// Runs `instr` on both engines with the given operand stack and
    /// asserts behavioural agreement.
    pub fn assert_agreement(instr: Instruction, operands: &[i64], kind: CompilerKind, isa: Isa) {
        let stack: Vec<Oop> = operands.iter().map(|&v| Oop::from_small_int(v)).collect();
        let (iexit, _imem) = interp_exit(instr, &stack);

        let mem = ObjectMemory::new();
        let nil = mem.nil();
        let mut frame = Frame::new(nil, MethodInfo::empty());
        frame.stack = stack.clone();
        let (compiled, _cmem) =
            run_compiled_for_instr(Some(kind), isa, InstrUnderTest::Bytecode(instr), &frame, mem);
        let cexit = match compiled {
            CompiledRun::Ran(e) => e,
            CompiledRun::Refused(e) => panic!("{instr:?} refused: {e}"),
        };

        match (&iexit, &cexit) {
            (
                EngineExit::Success { stack: s1, .. },
                EngineExit::Success { stack: s2, .. },
            ) => {
                assert_eq!(s1, s2, "{instr:?} {operands:?} on {kind:?}/{isa:?}");
            }
            (
                EngineExit::Send { selector: a, receiver: r1, args: g1, .. },
                EngineExit::Send { selector: b, receiver: r2, args: g2, .. },
            ) => {
                assert_eq!(a, b, "{instr:?} {operands:?}: selectors");
                assert_eq!(r1, r2, "{instr:?} {operands:?}: send receivers");
                let n = g1.len().min(g2.len());
                assert_eq!(&g1[..n], &g2[..n], "{instr:?} {operands:?}: send args");
            }
            (i, c) => panic!("{instr:?} {operands:?} on {kind:?}/{isa:?}: {i:?} vs {c:?}"),
        }
    }
}
