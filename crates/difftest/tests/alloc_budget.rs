//! The allocation budget of a warm differential check: once a thread's
//! harness, code buffer and replay arena have grown and the code cache
//! holds every artifact, a code-cache lookup and a per-model seal
//! allocate nothing, and a whole `Harness::check` allocates a pinned
//! number of times — so a regression shows as a count, not as a
//! timing.
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
use igjit_metajit::MetaCache;

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
/// on the StackToRegister tier and both ISAs.
const CHECKS: usize = 38;

/// Allocations of the second pass over its [`CHECKS`] checks (about
/// eight per check). They come from materialization, the engines' exit
/// values, the comparison and the verdicts — none from the code cache,
/// the seals or the frames.
const WARM_PASS_ALLOCATIONS: u64 = 300;

#[test]
fn a_warm_check_allocates_a_pinned_amount_and_nothing_in_lookups_or_seals() {
    let isas = [Isa::X86ish, Isa::Arm32ish];
    let code_cache = CodeCache::new();
    let meta_cache = MetaCache::new();
    let explored: Vec<_> = BYTECODES
        .iter()
        .map(|&i| (i, Explorer::new().explore(InstrUnderTest::Bytecode(i))))
        .collect();
    let mut harness =
        Harness::new(Target::Bytecode(CompilerKind::StackToRegister), &isas, &code_cache, &meta_cache);
    let mut per_pass = [0u64; 2];
    let mut lookups = [(0, 0); 2];
    let mut checks = 0;
    for (pass, counters) in per_pass.iter_mut().zip(&mut lookups) {
        checks = 0;
        for (instr, exploration) in &explored {
            let program = Program::Bytecode(std::slice::from_ref(instr));
            for path in exploration.curated_paths() {
                let mut verdict = PathVerdict::new(InstrUnderTest::Bytecode(*instr));
                *pass += allocations(|| {
                    harness.check(&exploration.state, &path.model, program, false, &mut verdict);
                });
                checks += 1;
            }
        }
        *counters = (code_cache.hits(), code_cache.misses());
    }
    harness.finish();
    assert_eq!(checks, CHECKS);
    let [(hits, misses), warm] = lookups;
    assert_eq!(warm, (2 * hits + misses, misses), "the second pass only hits");
    assert_eq!(
        per_pass[1], WARM_PASS_ALLOCATIONS,
        "second-pass allocations over {checks} checks (first pass: {})",
        per_pass[0]
    );

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
