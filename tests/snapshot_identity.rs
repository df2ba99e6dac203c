//! The heap snapshot/restore replay must be invisible in every output:
//! restoring a sealed base image yields exactly the heap and frame a
//! fresh materialization would build, across arbitrary mutate/restore
//! interleavings, and whole campaign sweeps produce row-identical
//! reports with snapshots on and off. Only the metrics (seal/restore
//! counters, dirty-word totals) may — and must — differ.

use igjit::{Campaign, CampaignConfig, CampaignReport, CompilerKind, Instruction, Isa};
use igjit_concolic::{materialize_base, probe_models, Explorer, InstrUnderTest};
use igjit_difftest::{concrete_frame, run_oracle_on};
use igjit_heap::Oop;
use igjit_interp::NativeMethodId;
use proptest::prelude::*;

const BOTH: [Isa; 2] = [Isa::X86ish, Isa::Arm32ish];

/// Restoring after a real oracle run reproduces a fresh
/// materialization bit for bit — for every curated path and probe
/// model of the guiding examples (the add bytecode and
/// `primitiveAsFloat`, whose probe models put floats, arrays and
/// external addresses in the input frame).
#[test]
fn restore_after_oracle_run_equals_fresh_materialization() {
    for instr in [
        InstrUnderTest::Bytecode(Instruction::Add),
        InstrUnderTest::Native(NativeMethodId(40)),
    ] {
        let r = Explorer::new().explore(instr);
        for path in r.curated_paths() {
            for model in probe_models(&r.state, path, 8) {
                let mut image = materialize_base(&r.state, &model);
                let fresh = materialize_base(&r.state, &model);
                assert_eq!(image.mem, fresh.mem, "materialization is deterministic");
                assert_eq!(image.frame, fresh.frame);
                assert_eq!(image.var_oops, fresh.var_oops);

                // Mutate the sealed base with a real interpreter run,
                // then roll it back.
                let mut frame = concrete_frame(&image.frame);
                let _ = run_oracle_on(&mut image.mem, &mut frame, path.instruction);
                image.mem.restore(&image.snapshot).expect("restore");
                assert_eq!(image.mem, fresh.mem, "{instr:?}: restore == fresh build");
            }
        }
    }
}

proptest! {
    /// Arbitrary interleavings of heap mutations (stores into
    /// materialized objects, post-seal allocations, external-memory
    /// writes, oracle runs) and restores: after every restore the base
    /// image equals a fresh materialization of the same model.
    #[test]
    fn prop_restore_equals_fresh_across_interleavings(
        ops in proptest::collection::vec((0u8..5, any::<u16>(), any::<u16>()), 1..32),
        restore_every in 1usize..6,
    ) {
        let instr = InstrUnderTest::Bytecode(Instruction::Add);
        let r = Explorer::new().explore(instr);
        let path = &r.curated_paths()[0];
        // The last probe model reaches past plain SmallInts (kind
        // probes put heap objects in the frame when satisfiable).
        let models = probe_models(&r.state, path, 8);
        let model = models.last().unwrap();
        let mut image = materialize_base(&r.state, model);
        let fresh = materialize_base(&r.state, model);
        let heap_oops: Vec<Oop> =
            image.var_oops.values().copied().filter(|o| !o.is_small_int()).collect();
        for (i, &(op, x, y)) in ops.iter().enumerate() {
            match op {
                0 if !heap_oops.is_empty() => {
                    let target = heap_oops[usize::from(x) % heap_oops.len()];
                    let _ = image.mem.store_pointer(
                        target, u32::from(x) % 4, Oop::from_small_int(i64::from(y)));
                }
                1 => { let _ = image.mem.external_mut().write_uint(
                    u32::from(x) % 64, 4, u32::from(y)); }
                2 => { let _ = image.mem.instantiate_array(
                    &[Oop::from_small_int(i64::from(x))]); }
                3 => { let _ = image.mem.instantiate_float(
                    f64::from(x) + f64::from(y) / 7.0); }
                _ => {
                    let mut frame = concrete_frame(&image.frame);
                    let _ = run_oracle_on(&mut image.mem, &mut frame, instr);
                }
            }
            if i % restore_every == 0 {
                image.mem.restore(&image.snapshot).unwrap();
                prop_assert_eq!(&image.mem, &fresh.mem);
            }
        }
        image.mem.restore(&image.snapshot).unwrap();
        prop_assert_eq!(&image.mem, &fresh.mem);
        prop_assert_eq!(&image.frame, &fresh.frame);
    }
}

fn assert_row_identical(a: &CampaignReport, b: &CampaignReport) {
    assert_eq!(a.row, b.row);
    assert_eq!(a.causes(), b.causes());
    assert_eq!(a.causes_by_category(), b.causes_by_category());
    assert_eq!(a.outcomes.len(), b.outcomes.len());
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(x.causes(), y.causes());
        assert_eq!(x.paths_found, y.paths_found);
        assert_eq!(x.curated, y.curated);
        assert_eq!(x.witness_errors, y.witness_errors);
        assert_eq!(x.oracle_panics, y.oracle_panics);
        assert_eq!(x.verdicts.len(), y.verdicts.len());
        for (va, vb) in x.verdicts.iter().zip(&y.verdicts) {
            assert_eq!(va.interp_exit, vb.interp_exit);
            assert_eq!(va.verdict.is_difference(), vb.verdict.is_difference());
            assert_eq!(va.cause, vb.cause);
            assert_eq!(va.found_by_probe, vb.found_by_probe);
            assert_eq!(va.isa, vb.isa);
        }
    }
}

#[test]
fn native_row_is_identical_with_heap_snapshot_on_and_off() {
    // The Table 2 native-method row (and its Table 3 cause sets) must
    // not depend on whether the base image is replayed or rebuilt.
    let run = |heap_snapshot: bool| {
        Campaign::new(CampaignConfig {
            isas: BOTH.to_vec(),
            probes: true,
            threads: 1,
            heap_snapshot,
            predecode: true,
            ..CampaignConfig::default()
        })
        .run_native_methods()
    };
    let (on, off) = (run(true), run(false));
    assert_row_identical(&on, &off);
    // The metrics are the only allowed difference — and the snapshot
    // layer must actually bite: one seal per (path, model), at least
    // one restore per extra ISA.
    assert_eq!(off.metrics.snapshot.seals, 0);
    assert_eq!(off.metrics.snapshot.restores, 0);
    assert!(on.metrics.snapshot.seals > 0);
    assert!(on.metrics.snapshot.restores > 0);
}

#[test]
fn bytecode_row_is_identical_with_heap_snapshot_on_and_off() {
    let run = |heap_snapshot: bool| {
        Campaign::new(CampaignConfig {
            isas: vec![Isa::X86ish],
            probes: false,
            threads: 1,
            heap_snapshot,
            predecode: true,
            ..CampaignConfig::default()
        })
        .run_bytecodes(CompilerKind::StackToRegister)
    };
    let (on, off) = (run(true), run(false));
    assert_row_identical(&on, &off);
    assert!(on.metrics.snapshot.seals > 0);
    // A single-ISA sweep never restores between ISAs, only between
    // testable models sharing a base — the oracle runs on a clone, so
    // restores stay at zero while seals count every materialization.
    assert_eq!(off.metrics.snapshot.seals, 0);
}
