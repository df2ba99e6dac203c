//! Fault injection for the JIT under test.
//!
//! The differential harness claims to *find* compiler defects; this
//! crate measures what it would *miss*. A catalog of mutation
//! operators — each a small, systematic fault a compiler writer could
//! plausibly introduce — is threaded through `igjit-jit`'s layers
//! (bytecode front-ends, register allocator, calling convention,
//! back-ends, compiled-code cache). The `mutation_campaign` driver
//! arms one mutant at a time, reruns the differential sweep and
//! reports a kill/survive verdict per mutant: the kill rate is the
//! harness's mutation score, and the survivor list is its blind-spot
//! inventory.
//!
//! ## Injection mechanism
//!
//! The injector is a single process-global word. Compile-time sites
//! ask [`armed`]`(id)` — one relaxed atomic load and a compare —
//! so the disabled injector is a branch-never-taken no-op and the
//! compiled artifacts are byte-identical to a build without any
//! injection sites taken (`tests/mutation_identity.rs` enforces this).
//! At most one mutant is armed at a time: mutants model *one* fault
//! slipping into a compiler, and single-arming keeps every kill
//! attributable.
//!
//! Arming is guarded by a process-wide lock ([`MutantGuard`]): tests
//! that arm a mutant serialize against each other, and disarming is
//! tied to guard drop so a panicking test cannot leak an armed mutant
//! into its neighbours. Campaign worker threads may freely *read* the
//! armed word while a sweep runs — the mutant is constant for the
//! guard's lifetime.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Stable identifier of a mutation operator.
///
/// Ids are grouped by the JIT layer they afflict — `1xx` bytecode
/// front-ends, `2xx` register allocator, `3xx` calling convention,
/// `4xx` back-end lowering, `5xx` compiled-code cache — and never
/// reused: the `mutation_campaign` record (`mutation.metrics.json`),
/// the CI expectation file and the benchmark's kill set key on them.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct MutantId(pub u32);

/// The JIT layer a mutation operator afflicts.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Layer {
    /// The bytecode front-ends (`bytecode_compiler.rs`): type/overflow
    /// guards, condition codes, frame/field offsets, fast-path bodies.
    BytecodeCompiler,
    /// The linear-scan register allocator (`regalloc.rs`): spill slot
    /// addressing, reload/store elision, interval bookkeeping.
    RegisterAllocator,
    /// The fixed-role register convention (`convention.rs`): aliased
    /// argument/scratch/frame registers.
    Convention,
    /// The per-ISA lowering (`backend.rs`): jump displacements,
    /// condition codes, two-address move fixups.
    Backend,
    /// The compiled-code cache (`cache.rs`): key bits dropped so
    /// distinct compilations collide.
    CodeCache,
}

impl Layer {
    /// Human-readable layer name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::BytecodeCompiler => "bytecode compiler",
            Layer::RegisterAllocator => "register allocator",
            Layer::Convention => "calling convention",
            Layer::Backend => "backend",
            Layer::CodeCache => "code cache",
        }
    }

    /// All layers, in id order.
    pub const ALL: [Layer; 5] = [
        Layer::BytecodeCompiler,
        Layer::RegisterAllocator,
        Layer::Convention,
        Layer::Backend,
        Layer::CodeCache,
    ];
}

/// One mutation operator: a stable id, a kebab-case name, the layer it
/// lives in, what it breaks, and the Table 3 defect family a kill is
/// expected to be attributed to (`"none"` for designed equivalent
/// mutants, which are *expected* survivors).
#[derive(Clone, Copy, Debug)]
pub struct MutationOp {
    /// Stable identifier (see [`MutantId`] for the numbering scheme).
    pub id: MutantId,
    /// Kebab-case operator name, accepted wherever an id is.
    pub name: &'static str,
    /// The JIT layer the injection site lives in.
    pub layer: Layer,
    /// What the armed mutant does to the compiled code.
    pub description: &'static str,
    /// Expected Table 3 category of the kill (matches
    /// `DefectCategory::name()`), or `"none"` when the mutant is
    /// semantically equivalent by design and should survive.
    pub expected_category: &'static str,
}

/// Mutant id constants, one per catalog entry.
pub mod ops {
    use super::MutantId;

    // --- 1xx: bytecode front-ends -------------------------------------
    /// Drop the overflow guard after the inlined SmallInteger `+`.
    pub const DROP_ADD_OVERFLOW_CHECK: MutantId = MutantId(101);
    /// Drop the overflow guard after the inlined SmallInteger `-`.
    pub const DROP_SUB_OVERFLOW_CHECK: MutantId = MutantId(102);
    /// Drop the overflow guard after the inlined SmallInteger `*`.
    pub const DROP_MUL_OVERFLOW_CHECK: MutantId = MutantId(103);
    /// Drop the receiver tag check of inlined arithmetic.
    pub const DROP_RECEIVER_SMALLINT_CHECK: MutantId = MutantId(104);
    /// Drop the argument tag check of inlined arithmetic.
    pub const DROP_ARG_SMALLINT_CHECK: MutantId = MutantId(105);
    /// Negate the condition code of inlined comparisons.
    pub const FLIP_COMPARE_COND: MutantId = MutantId(106);
    /// Swap the operands of the inlined comparison's `cmp`.
    pub const SWAP_COMPARE_OPERANDS: MutantId = MutantId(107);
    /// Drop both tag checks of inlined comparisons.
    pub const DROP_COMPARE_SMALLINT_CHECKS: MutantId = MutantId(108);
    /// Drop the divisor-zero guard of inlined `/`.
    pub const DROP_DIV_ZERO_CHECK: MutantId = MutantId(109);
    /// Drop the exact-division guard of inlined `/`.
    pub const DROP_DIV_EXACT_CHECK: MutantId = MutantId(110);
    /// Drop the floored-modulo sign adjustment of inlined `\\`.
    pub const DROP_MOD_SIGN_ADJUST: MutantId = MutantId(111);
    /// Drop the floored-division quotient adjustment of inlined `//`.
    pub const DROP_INTDIV_FLOOR_ADJUST: MutantId = MutantId(112);
    /// Drop the ±31 shift-count range guard of inlined `bitShift:`.
    pub const DROP_SHIFT_RANGE_CHECK: MutantId = MutantId(113);
    /// Retag without setting the SmallInteger tag bit.
    pub const DROP_RETAG_TAG_BIT: MutantId = MutantId(114);
    /// Untag with an arithmetic shift by 2 instead of 1.
    pub const UNTAG_SHIFT_OFF_BY_ONE: MutantId = MutantId(115);
    /// Drop the lower-bound check of the inlined `at:` quick path.
    pub const DROP_AT_LOWER_BOUND_CHECK: MutantId = MutantId(116);
    /// Skip the 1-based→0-based index conversion of inlined `at:`.
    pub const AT_INDEX_OFF_BY_ONE: MutantId = MutantId(117);
    /// Drop the receiver class check of the inlined `at:put:`.
    pub const DROP_ATPUT_CLASS_CHECK: MutantId = MutantId(118);
    /// Address temps at `FP - 4n` instead of `FP - 4(n+1)`.
    pub const TEMP_OFFSET_OFF_BY_ONE: MutantId = MutantId(119);
    /// Address receiver variables without skipping the object header.
    pub const RECEIVER_VAR_OFFSET_SKIPS_HEADER: MutantId = MutantId(120);
    /// Swap the taken/fall-through targets of conditional jumps.
    pub const COND_JUMP_SWAP_TARGETS: MutantId = MutantId(121);
    /// Drop the `mustBeBoolean` send of conditional jumps.
    pub const DROP_MUST_BE_BOOLEAN: MutantId = MutantId(122);
    /// Compile the inlined `bitAnd:` fast path as `bitOr:`.
    pub const BITAND_BECOMES_BITOR: MutantId = MutantId(123);
    /// Drop the SP restore of the frame teardown before `ret`.
    pub const DROP_TEARDOWN_SP_RESTORE: MutantId = MutantId(124);
    /// Drop the byte-array class check of the inlined `size`.
    pub const DROP_SIZE_BYTEARRAY_CHECK: MutantId = MutantId(125);

    // --- 2xx: register allocator --------------------------------------
    /// Address spill slot `i` at `FP - 4(ntemps+i)` (one word high).
    pub const SPILL_SLOT_OFF_BY_ONE: MutantId = MutantId(201);
    /// Stride spill slots by 8 bytes instead of 4 (widened slots).
    pub const SPILL_STRIDE_WIDENED: MutantId = MutantId(202);
    /// Drop the reload of spilled operands (use stale temp contents).
    pub const DROP_SPILL_RELOAD: MutantId = MutantId(203);
    /// Drop the store of spilled definitions.
    pub const DROP_SPILL_DEF_STORE: MutantId = MutantId(204);
    /// Expire live intervals one position early (`end <= start`).
    pub const EXPIRE_ACTIVE_EARLY: MutantId = MutantId(205);
    /// Use `arg0` instead of `arg2` as the second spill temp.
    pub const SPILL_TEMP_ALIASES_ARG0: MutantId = MutantId(206);
    /// Steal a register even from intervals that end sooner.
    pub const DROP_VICTIM_END_FILTER: MutantId = MutantId(207);

    // --- 3xx: calling convention --------------------------------------
    /// Alias the second argument register onto the first.
    pub const ARG1_ALIASES_ARG0: MutantId = MutantId(301);
    /// Alias the scratch register onto the receiver/result register.
    pub const SCRATCH_ALIASES_RECEIVER: MutantId = MutantId(302);
    /// Hand the receiver register to the linear-scan allocator.
    pub const ALLOCATABLE_INCLUDES_RECEIVER: MutantId = MutantId(303);
    /// Alias the frame pointer onto a parse-stack pool register.
    pub const FP_ALIASES_POOL_REG: MutantId = MutantId(304);

    // --- 4xx: backend lowering ----------------------------------------
    /// Patch every jump displacement one byte long.
    pub const JUMP_DISP_OFF_BY_ONE: MutantId = MutantId(401);
    /// Invert the condition of every conditional jump.
    pub const INVERT_JCC: MutantId = MutantId(402);
    /// Emit self-moves instead of eliding them.
    pub const DROP_MOV_ELISION: MutantId = MutantId(403);
    /// Drop the `mov dst, a` fixup of two-address ALU lowering.
    pub const DROP_TWO_ADDRESS_MOV_FIXUP: MutantId = MutantId(404);
    /// Drop the `mov dst, a` fixup of two-address ALU-immediate
    /// lowering.
    pub const DROP_ALUIMM_MOV_FIXUP: MutantId = MutantId(405);

    // --- 5xx: compiled-code cache -------------------------------------
    /// Drop the embedded operand stack from bytecode cache keys.
    pub const CACHE_KEY_IGNORES_STACK: MutantId = MutantId(501);
    /// Drop the compiler tier from bytecode cache keys.
    pub const CACHE_KEY_IGNORES_KIND: MutantId = MutantId(502);
    /// Drop the special oops (nil/true/false) from cache keys.
    pub const CACHE_KEY_IGNORES_SPECIAL_OOPS: MutantId = MutantId(503);
}

macro_rules! op {
    ($id:expr, $name:literal, $layer:ident, $desc:literal, $cat:literal) => {
        MutationOp {
            id: $id,
            name: $name,
            layer: Layer::$layer,
            description: $desc,
            expected_category: $cat,
        }
    };
}

/// The full operator catalog, in id order.
pub const CATALOG: &[MutationOp] = &[
    // 1xx — bytecode front-ends. Guard drops make the compiled fast
    // path accept inputs the interpreter routes elsewhere, so kills
    // surface as the compiled code missing a check ("Missing compiled
    // type check") or as result divergence on shared fast paths
    // ("Behavioral difference"); on the arithmetic/comparison family
    // the classifier keys the cause off the instruction family, which
    // Table 3 files under "Optimisation difference".
    op!(ops::DROP_ADD_OVERFLOW_CHECK, "drop-add-overflow-check", BytecodeCompiler,
        "inlined SmallInteger + keeps the overflowed sum instead of bailing to the send",
        "Optimisation difference"),
    op!(ops::DROP_SUB_OVERFLOW_CHECK, "drop-sub-overflow-check", BytecodeCompiler,
        "inlined SmallInteger - keeps the overflowed difference",
        "Optimisation difference"),
    op!(ops::DROP_MUL_OVERFLOW_CHECK, "drop-mul-overflow-check", BytecodeCompiler,
        "inlined SmallInteger * keeps the overflowed product",
        "Optimisation difference"),
    op!(ops::DROP_RECEIVER_SMALLINT_CHECK, "drop-receiver-smallint-check", BytecodeCompiler,
        "inlined arithmetic runs its integer fast path on pointer receivers",
        "Optimisation difference"),
    op!(ops::DROP_ARG_SMALLINT_CHECK, "drop-arg-smallint-check", BytecodeCompiler,
        "inlined arithmetic runs its integer fast path on pointer arguments",
        "Optimisation difference"),
    op!(ops::FLIP_COMPARE_COND, "flip-compare-cond", BytecodeCompiler,
        "inlined comparisons push the negated boolean",
        "Optimisation difference"),
    op!(ops::SWAP_COMPARE_OPERANDS, "swap-compare-operands", BytecodeCompiler,
        "inlined comparisons compare arg to receiver instead of receiver to arg",
        "Optimisation difference"),
    op!(ops::DROP_COMPARE_SMALLINT_CHECKS, "drop-compare-smallint-checks", BytecodeCompiler,
        "inlined comparisons order raw pointers instead of bailing to the send",
        "Optimisation difference"),
    op!(ops::DROP_DIV_ZERO_CHECK, "drop-div-zero-check", BytecodeCompiler,
        "inlined / divides by an untagged zero instead of bailing to the send",
        "Optimisation difference"),
    op!(ops::DROP_DIV_EXACT_CHECK, "drop-div-exact-check", BytecodeCompiler,
        "inlined / truncates inexact quotients instead of bailing to the send",
        "Optimisation difference"),
    op!(ops::DROP_MOD_SIGN_ADJUST, "drop-mod-sign-adjust", BytecodeCompiler,
        "inlined \\\\ returns the truncated remainder instead of the floored one",
        "Optimisation difference"),
    op!(ops::DROP_INTDIV_FLOOR_ADJUST, "drop-intdiv-floor-adjust", BytecodeCompiler,
        "inlined // returns the truncated quotient instead of the floored one",
        "Optimisation difference"),
    op!(ops::DROP_SHIFT_RANGE_CHECK, "drop-shift-range-check", BytecodeCompiler,
        "inlined bitShift: lets the hardware mask out-of-range shift counts",
        "Optimisation difference"),
    op!(ops::DROP_RETAG_TAG_BIT, "drop-retag-tag-bit", BytecodeCompiler,
        "retagged results keep their low bit clear, forging pointers from integers",
        "Optimisation difference"),
    op!(ops::UNTAG_SHIFT_OFF_BY_ONE, "untag-shift-off-by-one", BytecodeCompiler,
        "untagging shifts by 2, halving every operand",
        "Optimisation difference"),
    op!(ops::DROP_AT_LOWER_BOUND_CHECK, "drop-at-lower-bound-check", BytecodeCompiler,
        "inlined at: accepts indices below 1 and reads before the array body",
        "Optimisation difference"),
    op!(ops::AT_INDEX_OFF_BY_ONE, "at-index-off-by-one", BytecodeCompiler,
        "inlined at: skips the 1-based index conversion and reads one slot high",
        "Optimisation difference"),
    op!(ops::DROP_ATPUT_CLASS_CHECK, "drop-atput-class-check", BytecodeCompiler,
        "inlined at:put: stores into receivers of any class",
        "Optimisation difference"),
    op!(ops::TEMP_OFFSET_OFF_BY_ONE, "temp-offset-off-by-one", BytecodeCompiler,
        "temps are addressed one frame word high, aliasing the caller's word",
        "Behavioral difference"),
    op!(ops::RECEIVER_VAR_OFFSET_SKIPS_HEADER, "receiver-var-offset-skips-header",
        BytecodeCompiler,
        "receiver variables are addressed without skipping the object header",
        "Behavioral difference"),
    op!(ops::COND_JUMP_SWAP_TARGETS, "cond-jump-swap-targets", BytecodeCompiler,
        "conditional jumps branch on true when they should on false and vice versa",
        "Behavioral difference"),
    op!(ops::DROP_MUST_BE_BOOLEAN, "drop-must-be-boolean", BytecodeCompiler,
        "conditional jumps fall through on non-booleans instead of sending mustBeBoolean",
        "Behavioral difference"),
    op!(ops::BITAND_BECOMES_BITOR, "bitand-becomes-bitor", BytecodeCompiler,
        "the inlined bitAnd: fast path computes bitOr:",
        "Optimisation difference"),
    op!(ops::DROP_TEARDOWN_SP_RESTORE, "drop-teardown-sp-restore", BytecodeCompiler,
        "returns skip the SP restore and pop a garbage return address",
        "Simulation Error"),
    op!(ops::DROP_SIZE_BYTEARRAY_CHECK, "drop-size-bytearray-check", BytecodeCompiler,
        "inlined size reads the size field of receivers of any class",
        "Optimisation difference"),
    // 2xx — register allocator. Addressing faults corrupt frame words
    // shared with temps or the return address; elision faults leave
    // stale values in the spill temps.
    op!(ops::SPILL_SLOT_OFF_BY_ONE, "spill-slot-off-by-one", RegisterAllocator,
        "spill slots are addressed one frame word high, clobbering a temp or the return word",
        "Behavioral difference"),
    op!(ops::SPILL_STRIDE_WIDENED, "spill-stride-widened", RegisterAllocator,
        "spill slots are strided 8 bytes apart, overlapping the reserve's far end",
        "Behavioral difference"),
    op!(ops::DROP_SPILL_RELOAD, "drop-spill-reload", RegisterAllocator,
        "spilled operands are not reloaded; ops read stale spill-temp contents",
        "Behavioral difference"),
    op!(ops::DROP_SPILL_DEF_STORE, "drop-spill-def-store", RegisterAllocator,
        "spilled definitions are never stored back to their slot",
        "Behavioral difference"),
    op!(ops::EXPIRE_ACTIVE_EARLY, "expire-active-early", RegisterAllocator,
        "live intervals expire one position early; an interval ending where the next \
         starts shares its register — a legal assignment, so this should survive",
        "none"),
    op!(ops::SPILL_TEMP_ALIASES_ARG0, "spill-temp-aliases-arg0", RegisterAllocator,
        "the second spill temp aliases arg0; no reload currently sits between argument \
         marshalling and the send, so this should survive",
        "none"),
    op!(ops::DROP_VICTIM_END_FILTER, "drop-victim-end-filter", RegisterAllocator,
        "spill-victim selection steals registers unconditionally — a worse but still \
         correct allocation policy, so this should survive",
        "none"),
    // 3xx — calling convention. Aliased fixed-role registers corrupt
    // the values the differential runner seeds and reads.
    op!(ops::ARG1_ALIASES_ARG0, "arg1-aliases-arg0", Convention,
        "two-argument sends marshal both arguments into the same register",
        "Behavioral difference"),
    op!(ops::SCRATCH_ALIASES_RECEIVER, "scratch-aliases-receiver", Convention,
        "compiler transients clobber the receiver/result register",
        "Behavioral difference"),
    op!(ops::ALLOCATABLE_INCLUDES_RECEIVER, "allocatable-includes-receiver", Convention,
        "the linear-scan pool hands out the receiver register",
        "Behavioral difference"),
    op!(ops::FP_ALIASES_POOL_REG, "fp-aliases-pool-reg", Convention,
        "the frame pointer aliases a parse-stack pool register",
        "Simulation Error"),
    // 4xx — backend lowering. Encoding-level faults: wrong jump
    // targets and stale two-address operands.
    op!(ops::JUMP_DISP_OFF_BY_ONE, "jump-disp-off-by-one", Backend,
        "every patched jump displacement lands one byte past its label",
        "Simulation Error"),
    op!(ops::INVERT_JCC, "invert-jcc", Backend,
        "every conditional jump tests the negated condition",
        "Optimisation difference"),
    op!(ops::DROP_MOV_ELISION, "drop-mov-elision", Backend,
        "register self-moves are emitted instead of elided — semantically equivalent \
         code, so this should survive",
        "none"),
    op!(ops::DROP_TWO_ADDRESS_MOV_FIXUP, "drop-two-address-mov-fixup", Backend,
        "two-address ALU lowering computes on the stale destination instead of copying \
         the first operand in",
        "Optimisation difference"),
    op!(ops::DROP_ALUIMM_MOV_FIXUP, "drop-aluimm-mov-fixup", Backend,
        "two-address ALU-immediate lowering computes on the stale destination",
        "Optimisation difference"),
    // 5xx — compiled-code cache. Key corruption makes distinct
    // compilations collide, replaying code with the wrong embedded
    // constants (or the wrong tier).
    op!(ops::CACHE_KEY_IGNORES_STACK, "cache-key-ignores-stack", CodeCache,
        "bytecode cache keys drop the embedded operand stack; every model of a path \
         replays the first model's constants",
        "Optimisation difference"),
    op!(ops::CACHE_KEY_IGNORES_KIND, "cache-key-ignores-kind", CodeCache,
        "bytecode cache keys drop the tier; later tiers replay the first tier's code",
        "Optimisation difference"),
    op!(ops::CACHE_KEY_IGNORES_SPECIAL_OOPS, "cache-key-ignores-special-oops", CodeCache,
        "cache keys drop nil/true/false; the special oops are process-constant, so \
         this should survive",
        "none"),
];

/// Looks an operator up by id.
pub fn find(id: MutantId) -> Option<&'static MutationOp> {
    CATALOG.iter().find(|op| op.id == id)
}

/// Looks an operator up by its kebab-case name.
pub fn by_name(name: &str) -> Option<&'static MutationOp> {
    CATALOG.iter().find(|op| op.name == name)
}

/// Parses a mutant spec — a numeric id or an operator name — and
/// validates it against the catalog.
pub fn parse(spec: &str) -> Result<MutantId, String> {
    let found = match spec.parse::<u32>() {
        Ok(n) => find(MutantId(n)),
        Err(_) => by_name(spec),
    };
    found.map(|op| op.id).ok_or_else(|| {
        format!(
            "unknown mutant {spec:?}; valid mutants are the catalog ids \
             ({}..{}) or operator names (e.g. {:?})",
            CATALOG.first().map(|op| op.id.0).unwrap_or(0),
            CATALOG.last().map(|op| op.id.0).unwrap_or(0),
            CATALOG.first().map(|op| op.name).unwrap_or(""),
        )
    })
}

/// The armed mutant id; 0 means disarmed (no catalog id is 0).
static ARMED: AtomicU32 = AtomicU32::new(0);

/// The arming lock: holders of a [`MutantGuard`] serialize, so two
/// tests cannot arm (or demand a disarmed injector) concurrently.
static ARM_LOCK: Mutex<()> = Mutex::new(());

/// Whether mutant `id` is armed. This is the hot check the JIT layers
/// consult at every injection site: one relaxed atomic load and a
/// compare, false for every site when the injector is disarmed.
#[inline(always)]
pub fn armed(id: MutantId) -> bool {
    ARMED.load(Ordering::Relaxed) == id.0
}

/// The currently armed mutant, if any.
pub fn current() -> Option<MutantId> {
    match ARMED.load(Ordering::Relaxed) {
        0 => None,
        n => Some(MutantId(n)),
    }
}

/// The fault injector's front door: arms mutants and pins the
/// disarmed state, both returning RAII [`MutantGuard`]s.
pub struct FaultInjector;

impl FaultInjector {
    /// Arms `id` for the guard's lifetime. Fails on ids not in the
    /// catalog (arming a site-less id would silently test nothing).
    /// Blocks until any other guard in the process is dropped.
    pub fn arm(id: MutantId) -> Result<MutantGuard, String> {
        let op = find(id).ok_or_else(|| format!("mutant {} is not in the catalog", id.0))?;
        let lock = ARM_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        ARMED.store(op.id.0, Ordering::Relaxed);
        Ok(MutantGuard { _lock: lock })
    }

    /// Holds the arming lock *without* arming anything: code that must
    /// observe the pristine compiler (baselines, identity tests) takes
    /// this to exclude concurrent arming tests in the same process.
    pub fn pinned_off() -> MutantGuard {
        let lock = ARM_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        ARMED.store(0, Ordering::Relaxed);
        MutantGuard { _lock: lock }
    }
}

/// RAII handle for an armed (or pinned-disarmed) injector. Dropping it
/// disarms the injector and releases the arming lock — a panicking
/// holder cannot leak an armed mutant.
pub struct MutantGuard {
    _lock: MutexGuard<'static, ()>,
}

impl MutantGuard {
    /// The mutant this guard holds armed (None for a pinned-off
    /// guard).
    pub fn id(&self) -> Option<MutantId> {
        current()
    }
}

impl Drop for MutantGuard {
    fn drop(&mut self) {
        ARMED.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn catalog_is_well_formed() {
        assert!(CATALOG.len() >= 25, "issue floor: ≥25 operators");
        let ids: HashSet<u32> = CATALOG.iter().map(|op| op.id.0).collect();
        assert_eq!(ids.len(), CATALOG.len(), "ids are unique");
        assert!(!ids.contains(&0), "0 is the disarmed sentinel");
        let names: HashSet<&str> = CATALOG.iter().map(|op| op.name).collect();
        assert_eq!(names.len(), CATALOG.len(), "names are unique");
        let layers: HashSet<_> = CATALOG.iter().map(|op| op.layer).collect();
        assert!(layers.len() >= 3, "operators span ≥3 JIT layers: {layers:?}");
        for op in CATALOG {
            let century = match op.layer {
                Layer::BytecodeCompiler => 1,
                Layer::RegisterAllocator => 2,
                Layer::Convention => 3,
                Layer::Backend => 4,
                Layer::CodeCache => 5,
            };
            assert_eq!(op.id.0 / 100, century, "{} is numbered by layer", op.name);
            assert!(!op.description.is_empty());
            assert!(!op.expected_category.is_empty());
        }
    }

    #[test]
    fn catalog_is_sorted_by_id() {
        for w in CATALOG.windows(2) {
            assert!(w[0].id < w[1].id, "{} before {}", w[0].name, w[1].name);
        }
    }

    #[test]
    fn parse_accepts_ids_and_names() {
        assert_eq!(parse("106"), Ok(ops::FLIP_COMPARE_COND));
        assert_eq!(parse("flip-compare-cond"), Ok(ops::FLIP_COMPARE_COND));
        assert!(parse("999").is_err());
        assert!(parse("not-a-mutant").is_err());
        assert!(parse("0").is_err(), "the disarmed sentinel is not armable");
    }

    #[test]
    fn guard_arms_and_disarms() {
        assert_eq!(current(), None);
        {
            let g = FaultInjector::arm(ops::FLIP_COMPARE_COND).unwrap();
            assert_eq!(g.id(), Some(ops::FLIP_COMPARE_COND));
            assert!(armed(ops::FLIP_COMPARE_COND));
            assert!(!armed(ops::INVERT_JCC), "only one mutant at a time");
        }
        assert_eq!(current(), None, "drop disarms");
        assert!(!armed(ops::FLIP_COMPARE_COND));
    }

    #[test]
    fn arming_unknown_ids_is_refused() {
        assert!(FaultInjector::arm(MutantId(0)).is_err());
        assert!(FaultInjector::arm(MutantId(9999)).is_err());
    }

    #[test]
    fn pinned_off_holds_the_lock_disarmed() {
        let g = FaultInjector::pinned_off();
        assert_eq!(g.id(), None);
        assert_eq!(current(), None);
    }
}

/// Compile-time source fingerprint (see `igjit-corpus`).
pub mod srcid;
