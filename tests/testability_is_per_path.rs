//! Testability belongs to the path, not to the model: over every curated
//! path of every bytecode and native exploration, with kind probes
//! attached, each probe model's interpreter exit is testable (§3.4)
//! exactly when the path's base model's is.
//!
//! The campaign relies on this: when a path's base model is an expected
//! failure it skips the path's probe models instead of running each
//! just to see it is untestable too. If an explorer or probing change
//! breaks the property, this test fails rather than the skip quietly
//! hiding a comparison.

use igjit::{instruction_catalog, native_catalog, ExplorationCache, InstrUnderTest};
use igjit_difftest::run_oracle;

#[test]
fn every_probe_model_shares_its_base_models_testability() {
    let cache = ExplorationCache::new();
    let instrs = instruction_catalog()
        .into_iter()
        .map(|spec| InstrUnderTest::Bytecode(spec.instruction))
        .chain(native_catalog().into_iter().map(|spec| InstrUnderTest::Native(spec.id)));
    let (mut testable_paths, mut untestable_paths, mut probes) = (0, 0, 0);
    for instr in instrs {
        let exploration = cache.get_or_explore(instr, true).exploration;
        let curated = exploration.curated_paths();
        assert_eq!(exploration.probe_models.len(), curated.len(), "{instr:?}");
        for (path, models) in curated.iter().zip(&exploration.probe_models) {
            let (base, probe_models) = models.split_first().expect("models start with the base");
            assert_eq!(base, &path.model, "{instr:?}: the first model is the base");
            let base_run = run_oracle(&exploration.state, base, instr);
            let testable = base_run.exit.is_testable();
            if testable {
                testable_paths += 1;
            } else {
                untestable_paths += 1;
            }
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
        testable_paths > 0 && untestable_paths > 0 && probes > 0,
        "the catalog has paths of both kinds and probes to check: \
         {testable_paths} testable, {untestable_paths} untestable, {probes} probes"
    );
}
