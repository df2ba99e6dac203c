//! The heap snapshot/restore replay the campaign runs on must be
//! invisible in every output: restoring a sealed base image yields
//! exactly the heap and frame a fresh materialization would build,
//! across arbitrary mutate/restore interleavings. Whole-catalog rows
//! are pinned by `table2_golden.rs`.

use igjit::Instruction;
use igjit_concolic::{materialize_base, probe_models, Explorer, InstrUnderTest};
use igjit_difftest::{concrete_frame, run_oracle_on};
use igjit_heap::Oop;
use igjit_interp::NativeMethodId;
use proptest::prelude::*;

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
