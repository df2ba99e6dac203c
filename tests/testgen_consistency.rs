//! Consistency between the two result-producing APIs: the generated
//! test suite and the campaign must agree on which paths diverge.

use igjit::{
    instruction_catalog, native_catalog, test_instruction, CompilerKind, GeneratedSuite,
    InstrUnderTest, Isa, NativeMethodId, Target, TestResult,
};

#[test]
fn suite_failures_match_campaign_differences() {
    // Every catalog entry against every target it is tested on, on
    // each ISA: the suite replays base models only, so it matches the
    // campaign without probing.
    let (native_specs, bytecode_specs) = (native_catalog(), instruction_catalog());
    let natives = native_specs
        .iter()
        .map(|spec| (InstrUnderTest::Native(spec.id), Target::NativeMethods));
    let bytecodes = bytecode_specs.iter().flat_map(|spec| {
        let instr = InstrUnderTest::Bytecode(spec.instruction);
        CompilerKind::ALL
            .into_iter()
            .map(Target::Bytecode)
            .chain([Target::MetaCompiled])
            .map(move |target| (instr, target))
    });
    let mut pairs = 0;
    for (instr, target) in natives.chain(bytecodes) {
        for isa in [Isa::X86ish, Isa::Arm32ish] {
            let isas = [isa];
            let campaign = test_instruction(instr, target, &isas, false);
            let report = GeneratedSuite::generate_for(instr, target, &isas).run();
            assert_eq!(
                report.failed,
                campaign.difference_count(),
                "{instr:?} vs {target:?} on {isa:?}: suite {report:?}, campaign {} diffs",
                campaign.difference_count()
            );
            pairs += 1;
        }
    }
    assert_eq!(pairs, 1408);
}

#[test]
fn suite_tests_are_individually_deterministic() {
    let suite = GeneratedSuite::generate_for(
        InstrUnderTest::Native(NativeMethodId(14)),
        Target::NativeMethods,
        &[Isa::Arm32ish],
    );
    for t in &suite.tests {
        let first = t.run();
        let second = t.run();
        match (&first, &second) {
            (TestResult::Pass, TestResult::Pass)
            | (TestResult::Skipped, TestResult::Skipped) => {}
            (TestResult::Fail(a), TestResult::Fail(b)) => assert_eq!(a, b),
            other => panic!("{}: nondeterministic replay {other:?}", t.name),
        }
    }
}
