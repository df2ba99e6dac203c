//! The compiled-code cache must be invisible in every output: a cached
//! artifact is byte-identical to a fresh compile of the same key, and
//! a repeated lookup hits instead of compiling again. (The cache is
//! always on; whole-row identity is pinned by the Table 2 suites.)

use igjit::{CompilerKind, Isa};
use igjit_heap::ObjectMemory;
use igjit_jit::native::igjit_bytecode_native_id::NativeMethodIdLike;
use igjit_jit::{
    compile_bytecode_sequence_test, compile_native_test, BytecodeTestInput, CodeCache, CompileKey,
    NativeTestInput,
};

const BOTH: [Isa; 2] = [Isa::X86ish, Isa::Arm32ish];

#[test]
fn cached_native_artifacts_are_byte_identical_to_fresh_compiles() {
    let mem = ObjectMemory::new();
    let input = NativeTestInput {
        nil: mem.nil(),
        true_obj: mem.true_object(),
        false_obj: mem.false_object(),
    };
    let cache = CodeCache::new();
    for id in [1u32, 14, 40, 41] {
        for isa in BOTH {
            let key = CompileKey::Native {
                id,
                isa,
                nil: mem.nil().0,
                true_obj: mem.true_object().0,
                false_obj: mem.false_object().0,
            };
            let fresh = compile_native_test(NativeMethodIdLike(id as u16), input, isa)
                .expect("compiles");
            // Warm the cache, then look the same key up again: the
            // second lookup must hit and return the identical bytes.
            let first = cache.get_or_compile(key.clone(), || {
                compile_native_test(NativeMethodIdLike(id as u16), input, isa)
            });
            let hits_before = cache.hits();
            let second = cache.get_or_compile(key, || panic!("must hit"));
            assert_eq!(cache.hits(), hits_before + 1);
            for artifact in [&first, &second] {
                let cached = (**artifact).as_ref().expect("compiles");
                assert_eq!(cached.code, fresh.code, "native {id} on {isa:?}");
                assert_eq!(cached.ntemps, fresh.ntemps);
                assert_eq!(cached.isa, fresh.isa);
            }
        }
    }
}

#[test]
fn cached_bytecode_artifacts_are_byte_identical_to_fresh_compiles() {
    use igjit_bytecode::Instruction;
    let mem = ObjectMemory::new();
    let stack = [igjit_heap::Oop::from_small_int(20), igjit_heap::Oop::from_small_int(22)];
    let input = BytecodeTestInput {
        instruction: Instruction::Add,
        operand_stack: &stack,
        temps: &[],
        literals: &[],
        nil: mem.nil(),
        true_obj: mem.true_object(),
        false_obj: mem.false_object(),
    };
    let cache = CodeCache::new();
    for kind in CompilerKind::ALL {
        for isa in BOTH {
            let key = CompileKey::Bytecode {
                kind,
                isa,
                instrs: vec![Instruction::Add],
                stack: stack.iter().map(|o| o.0).collect(),
                temps: vec![],
                literals: vec![],
                nil: mem.nil().0,
                true_obj: mem.true_object().0,
                false_obj: mem.false_object().0,
            };
            let fresh = compile_bytecode_sequence_test(kind, &[Instruction::Add], &input, isa)
                .expect("compiles");
            let cached = cache.get_or_compile(key, || {
                compile_bytecode_sequence_test(kind, &[Instruction::Add], &input, isa)
            });
            let cached = (*cached).as_ref().expect("compiles");
            assert_eq!(cached.code, fresh.code, "{kind:?} on {isa:?}");
        }
    }
}
