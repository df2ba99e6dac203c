//! Testability belongs to the path, not to the model: over every curated
//! path of every bytecode and native exploration, each kind-probe model's
//! interpreter exit is testable (§3.4) exactly when the path's base
//! model's is, and the base model is untestable exactly when the
//! explored path ends in an expected failure.
//!
//! The pipeline relies on this twice. The campaign stops a path at its
//! base model when that model is an expected failure, instead of running
//! each probe model just to see it is untestable too. And the
//! exploration cache attaches no probe models to an expected-failure
//! path at all, so this test solves those paths' probes itself
//! (`probe_models`). If an explorer or probing change breaks the
//! property, this test fails rather than a skip quietly hiding a
//! comparison.

use igjit::{instruction_catalog, native_catalog, ExplorationCache, InstrUnderTest};
use igjit_concolic::DEFAULT_MAX_PROBES;
use igjit_difftest::{probe_models, run_oracle};

#[test]
fn every_probe_model_shares_its_base_models_testability() {
    let cache = ExplorationCache::new();
    let instrs = instruction_catalog()
        .into_iter()
        .map(|spec| InstrUnderTest::Bytecode(spec.instruction))
        .chain(native_catalog().into_iter().map(|spec| InstrUnderTest::Native(spec.id)));
    let (mut testable_paths, mut untestable_paths, mut probes, mut unattached) = (0, 0, 0, 0);
    for instr in instrs {
        let exploration = cache.get_or_explore(instr, true).exploration;
        let curated = exploration.curated_paths();
        assert_eq!(exploration.probe_models.len(), curated.len(), "{instr:?}");
        for (path, attached) in curated.iter().zip(&exploration.probe_models) {
            assert_eq!(attached.first(), Some(&path.model), "{instr:?}: the first model is the base");
            let base_run = run_oracle(&exploration.state, &path.model, instr);
            let testable = base_run.exit.is_testable();
            assert_eq!(
                testable,
                !path.outcome.is_expected_failure(),
                "{instr:?}, path {:?}: the explored outcome is {:?} but the base model exits {:?}",
                path.constraints,
                path.outcome,
                base_run.exit,
            );
            let solved;
            let probe_models = if testable {
                testable_paths += 1;
                &attached[1..]
            } else {
                untestable_paths += 1;
                assert_eq!(attached.len(), 1, "{instr:?}: an expected failure gets its base model only");
                solved = probe_models(&exploration.state, path, DEFAULT_MAX_PROBES);
                assert_eq!(solved.first(), Some(&path.model), "{instr:?}");
                unattached += solved.len() - 1;
                &solved[1..]
            };
            for (i, probe) in probe_models.iter().enumerate() {
                let run = run_oracle(&exploration.state, probe, instr);
                assert_eq!(
                    run.exit.is_testable(),
                    testable,
                    "{instr:?}, path {:?}: probe {i} exits {:?} but the base model exits {:?}",
                    path.constraints,
                    run.exit,
                    base_run.exit,
                );
                // A skipped probe is never checked, so it must not be
                // hiding an unrealizable witness either.
                assert!(run.witness_errors.is_empty(), "{instr:?}: probe {i}: {:?}", run.witness_errors);
                probes += 1;
            }
        }
    }
    assert!(
        testable_paths > 0 && untestable_paths > 0 && probes > 0 && unattached > 0,
        "the catalog has paths of both kinds and probes to check: {testable_paths} testable, \
         {untestable_paths} untestable, {probes} probes ({unattached} solved here)"
    );
}
