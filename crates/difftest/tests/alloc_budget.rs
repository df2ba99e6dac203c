//! The allocation budget of a warm differential check: once a thread's
//! harness, code buffer and replay arena have grown and the code cache
//! holds every artifact, a code-cache lookup and a per-model seal
//! allocate nothing, a `Harness::check` whose model agrees on every ISA
//! allocates nothing either (on a hand-written tier, and on the meta
//! tier whether it runs meta-compiled code or trampolines), and a check
//! that finds a difference
//! allocates a pinned number of times for the difference's record — so
//! a regression shows as a count, not as a timing.
//!
//! The counting allocator counts per thread, so tests running beside
//! this one on other threads do not disturb the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use igjit_bytecode::Instruction;
use igjit_concolic::{Explorer, InstrUnderTest};
use igjit_difftest::{Harness, PathVerdict, Program, Target};
use igjit_heap::{ObjectMemory, Oop};
use igjit_jit::{CodeCache, CompiledCode, CompilerKind};
use igjit_machine::Isa;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a const-initialized thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

const BYTECODES: [Instruction; 4] =
    [Instruction::Add, Instruction::Multiply, Instruction::LessThan, Instruction::PushTemp(0)];

/// The checks of one pass: the curated paths of [`BYTECODES`], each
/// on both ISAs.
const CHECKS: usize = 38;

/// Checks of one StackToRegister pass that find a difference: the float
/// fast paths of `Add`, `Multiply` and `LessThan` (twice), which the
/// interpreter inlines and the compiled code sends.
const DIFFERING_CHECKS: usize = 4;

/// Allocations of the second pass's differing checks: ten each, the
/// record of one exit mismatch per ISA. Each ISA's comparison names the
/// two exits and formats the detail (three strings) and classifies the
/// difference (one `CauseKey`); the first ISA's cause is also cloned
/// into the path's `all_causes`, which grows from empty.
const WARM_DIFFERENCE_ALLOCATIONS: u64 = 40;

#[test]
fn a_warm_check_allocates_nothing_unless_it_records_a_difference() {
    let isas = [Isa::X86ish, Isa::Arm32ish];
    let code_cache = CodeCache::new();
    let explored: Vec<_> = BYTECODES
        .iter()
        .map(|&i| (i, Explorer::new().explore(InstrUnderTest::Bytecode(i))))
        .collect();
    // Per target: its differing checks per pass and their warm
    // allocations. The meta tier runs some paths as meta-compiled code
    // and trampolines the evaluator's refusals; its models agree by
    // construction. Both share the code cache, as in a campaign.
    let targets = [
        (
            Target::Bytecode(CompilerKind::StackToRegister),
            DIFFERING_CHECKS,
            WARM_DIFFERENCE_ALLOCATIONS,
        ),
        (Target::MetaCompiled, 0, 0),
    ];
    for (target, differing_checks, warm_difference_allocations) in targets {
        let mut harness = Harness::new(target, &isas, &code_cache);
        // Per pass: (allocations of agreeing checks, of differing checks,
        // differing checks).
        let mut per_pass = [(0u64, 0u64, 0usize); 2];
        let mut lookups = [(code_cache.hits(), code_cache.misses()); 3];
        let mut checks = 0;
        for (pass, counters) in per_pass.iter_mut().zip(&mut lookups[1..]) {
            checks = 0;
            for (instr, exploration) in &explored {
                let program = Program::Bytecode(std::slice::from_ref(instr));
                for path in exploration.curated_paths() {
                    let mut verdict = PathVerdict::new(InstrUnderTest::Bytecode(*instr));
                    let n = allocations(|| {
                        harness.check(&exploration.state, &path.model, program, false, &mut verdict);
                    });
                    if verdict.verdict.is_difference() {
                        pass.1 += n;
                        pass.2 += 1;
                    } else {
                        pass.0 += n;
                    }
                    checks += 1;
                }
            }
            *counters = (code_cache.hits(), code_cache.misses());
        }
        let meta = harness.finish().meta;
        if target == Target::MetaCompiled {
            assert!(meta.compiled > 0 && meta.trampolined > 0, "{meta:?}");
        }
        assert_eq!(checks, CHECKS);
        let [(hits0, misses0), (hits, misses), warm] = lookups;
        let cold = (hits - hits0) + (misses - misses0);
        assert_eq!(warm, (hits + cold, misses), "{target:?}: the second pass only hits");
        let (agreeing, differing, differences) = per_pass[1];
        assert_eq!(differences, differing_checks, "{target:?}");
        assert_eq!(
            agreeing, 0,
            "{target:?}: second-pass allocations of agreeing checks ({per_pass:?})"
        );
        assert_eq!(
            differing, warm_difference_allocations,
            "{target:?}: second-pass allocations of differing checks ({per_pass:?})"
        );
    }

    // Every stored artifact, looked up again through a grown buffer.
    let stored = code_cache.snapshot();
    let mut out = CompiledCode { code: Vec::new(), isa: Isa::X86ish, ntemps: 0 };
    let mut look_up_all = || {
        for (key, _) in &stored {
            let _ = code_cache.get_or_compile_ref(key.as_ref(), &mut out, || panic!("warm"));
        }
    };
    look_up_all();
    assert_eq!(allocations(&mut look_up_all), 0, "warm code-cache lookups");

    // The replay arena's seal cycle: inner seal, writes and an
    // allocation past the frontier, inner and outer restore.
    let mut mem = ObjectMemory::new();
    let blank = mem.seal();
    let model = |mem: &mut ObjectMemory| {
        let obj = mem.instantiate_array(&[Oop::from_small_int(1); 40]).unwrap();
        let inner = mem.push_seal().unwrap();
        mem.store_pointer(obj, 3, Oop::from_small_int(9)).unwrap();
        mem.external_mut().write_uint(64, 4, 7).unwrap();
        mem.restore(&inner).unwrap();
        mem.restore(&blank).unwrap();
    };
    model(&mut mem);
    assert_eq!(allocations(|| model(&mut mem)), 0, "a re-armed seal cycle");
}
