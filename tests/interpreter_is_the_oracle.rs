//! Cross-crate tests of the "one interpreter, two execution modes"
//! property: the concolic run and the concrete run of the same
//! instruction on the same materialized frame must take the same path
//! and produce the same outputs — the concolic engine really is the
//! plain interpreter plus recording, not a second semantics.

use igjit::{native_catalog, Explorer, InstrUnderTest, Instruction, NativeMethodId, PathOutcome};
use igjit_bytecode::instruction_catalog;
use igjit_concolic::{materialize_frame, materialize_shared, probe_models, DEFAULT_MAX_PROBES};
use igjit_difftest::{run_oracle, EngineExit};
use igjit_heap::ObjectMemory;

fn exits_match(path: &PathOutcome, oracle: &EngineExit) -> bool {
    matches!(
        (path, oracle),
        (PathOutcome::Success, EngineExit::Success { .. })
            | (PathOutcome::Jump { .. }, EngineExit::JumpTaken)
            | (PathOutcome::Failure, EngineExit::Failure)
            | (PathOutcome::MessageSend(_), EngineExit::Send { .. })
            | (PathOutcome::MethodReturn { .. }, EngineExit::Return { .. })
            | (PathOutcome::InvalidFrame, EngineExit::InvalidFrame)
            | (PathOutcome::InvalidMemoryAccess, EngineExit::InvalidMemory)
    )
}

#[test]
fn concolic_and_concrete_agree_for_every_bytecode() {
    let explorer = Explorer::new();
    for spec in instruction_catalog() {
        let r = explorer.explore(InstrUnderTest::Bytecode(spec.instruction));
        for p in r.curated_paths() {
            let exit = run_oracle(&r.state, &p.model, p.instruction).exit;
            assert!(
                exits_match(&p.outcome, &exit),
                "{:?}: concolic said {:?}, concrete said {:?}",
                spec.instruction,
                p.outcome,
                exit
            );
        }
    }
}

#[test]
fn concolic_and_concrete_agree_for_sampled_natives() {
    let explorer = Explorer::new();
    for id in [1u16, 7, 10, 14, 17, 40, 41, 47, 51, 60, 61, 62, 66, 70, 71, 76, 80, 100, 136, 143]
    {
        let r = explorer.explore(InstrUnderTest::Native(NativeMethodId(id)));
        for p in r.curated_paths() {
            let exit = run_oracle(&r.state, &p.model, p.instruction).exit;
            assert!(
                exits_match(&p.outcome, &exit),
                "primitive {id}: concolic said {:?}, concrete said {:?}",
                p.outcome,
                exit
            );
        }
    }
}

#[test]
fn materialization_is_reproducible_across_heaps() {
    // Frame materialization is the foundation of the differential
    // comparison: identical models must produce bit-identical frames
    // in fresh heaps.
    let r = Explorer::new().explore(InstrUnderTest::Bytecode(Instruction::SpecialSendAtPut));
    for p in r.curated_paths() {
        let mut s1 = r.state.clone();
        let mut m1 = ObjectMemory::new();
        let f1 = materialize_frame(&mut s1, &p.model, &mut m1);
        let mut s2 = r.state.clone();
        let mut m2 = ObjectMemory::new();
        let f2 = materialize_frame(&mut s2, &p.model, &mut m2);
        let c1: Vec<_> = f1.frame.stack.iter().map(|v| v.concrete).collect();
        let c2: Vec<_> = f2.frame.stack.iter().map(|v| v.concrete).collect();
        assert_eq!(c1, c2);
        assert_eq!(f1.frame.receiver.concrete, f2.frame.receiver.concrete);
    }
}

#[test]
fn shared_materialization_matches_a_cloned_state() {
    // The campaign materializes over the exploration's state without
    // cloning it. For every catalog instruction, curated path and probe
    // model, that must build the frame, variable map and heap that
    // `materialize_frame` builds on a clone.
    let explorer = Explorer::new();
    let instrs = instruction_catalog()
        .into_iter()
        .map(|s| InstrUnderTest::Bytecode(s.instruction))
        .chain(native_catalog().into_iter().map(|s| InstrUnderTest::Native(s.id)));
    let mut models = 0usize;
    for instr in instrs {
        let r = explorer.explore(instr);
        for p in r.curated_paths() {
            for model in probe_models(&r.state, p, DEFAULT_MAX_PROBES) {
                let mut shared_mem = ObjectMemory::new();
                let shared = materialize_shared(&r.state, &model, &mut shared_mem);
                let mut cloned_mem = ObjectMemory::new();
                let cloned = materialize_frame(&mut r.state.clone(), &model, &mut cloned_mem);
                assert_eq!(shared.frame, cloned.frame, "{instr:?}");
                assert_eq!(shared.var_oops, cloned.var_oops, "{instr:?}");
                assert_eq!(shared.witness_errors, cloned.witness_errors, "{instr:?}");
                assert!(shared_mem == cloned_mem, "{instr:?}: heaps differ");
                models += 1;
            }
        }
    }
    assert!(models > 0);
}

#[test]
fn path_counts_match_the_figure_5_shape() {
    // Native methods have notably more paths per instruction than
    // bytecodes (Fig. 5 of the paper).
    let explorer = Explorer::new();
    let mut bc_total = 0usize;
    let mut bc_n = 0usize;
    for spec in instruction_catalog().into_iter().take(60) {
        bc_total += explorer.explore(InstrUnderTest::Bytecode(spec.instruction)).paths.len();
        bc_n += 1;
    }
    let mut nm_total = 0usize;
    let mut nm_n = 0usize;
    for id in [1u16, 3, 10, 14, 41, 47, 60, 61, 64, 67, 71, 73, 100, 107, 120, 136, 141, 154] {
        nm_total += explorer.explore(InstrUnderTest::Native(NativeMethodId(id))).paths.len();
        nm_n += 1;
    }
    let bc_avg = bc_total as f64 / bc_n as f64;
    let nm_avg = nm_total as f64 / nm_n as f64;
    assert!(
        nm_avg > bc_avg * 1.5,
        "natives should have clearly more paths: bytecode {bc_avg:.1} vs native {nm_avg:.1}"
    );
}
