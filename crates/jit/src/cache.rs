//! Compiled-code caching for the differential campaign.
//!
//! The test compilation schema (§4.2) embeds the operand stack, temps
//! and literals of the input frame as constants, so compiled code is a
//! pure function of `(front-end, ISA, instruction sequence, embedded
//! frame values, special oops)`. The campaign, however, compiles once
//! per *run*: every model of a path, every probe variant and every
//! re-materialization triggers an identical compile. A [`CodeCache`]
//! keyed on exactly the compile-relevant inputs collapses those runs
//! onto one artifact per distinct key — native methods, whose code
//! depends only on the method id and ISA, drop from thousands of
//! compiles to one per `(method, ISA)` pair.
//!
//! Refusals ([`CompileError`]) are cached too: the 60 unimplemented
//! FFI templates refuse identically on every model.
//!
//! Every compile goes through a cache. A campaign shares one across
//! its sweep; one-shot callers (`test_instruction`, `test_sequence`,
//! a generated test's replay) make their own for the call, so the
//! paths of one sequence that differ only in the receiver share one
//! compile.
//!
//! Engine v5 reworked the lookup path around two observations. First,
//! the campaign performs ~3× more lookups than compiles, and building
//! an owned [`CompileKey`] per lookup means three `Vec` allocations
//! that are immediately discarded on a hit — [`CompileKeyRef`] borrows
//! the frame's slices instead, and the owned key is only materialized
//! on a miss. Second, every artifact is eventually *executed* many
//! times, so each cache entry ([`CachedArtifact`]) is shared behind an
//! `Arc` and machines borrow its bytes for every replay.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

use igjit_bytecode::fxhash::FxHasher64;
use igjit_bytecode::Instruction;
use igjit_heap::Oop;
use igjit_machine::Isa;
use igjit_mutate::{armed, ops as mutops};

use crate::{CompileError, CompiledCode, CompilerKind};

/// Applies the cache-layer mutations: each drops one compile-relevant
/// field from the lookup key, conflating entries that must be distinct.
fn mutate_key(mut key: CompileKey) -> CompileKey {
    match &mut key {
        CompileKey::Bytecode { kind, stack, nil, true_obj, false_obj, .. } => {
            if armed(mutops::CACHE_KEY_IGNORES_STACK) {
                stack.clear();
            }
            if armed(mutops::CACHE_KEY_IGNORES_KIND) {
                *kind = CompilerKind::SimpleStackBased;
            }
            if armed(mutops::CACHE_KEY_IGNORES_SPECIAL_OOPS) {
                *nil = 0;
                *true_obj = 0;
                *false_obj = 0;
            }
        }
        CompileKey::Native { nil, true_obj, false_obj, .. } => {
            if armed(mutops::CACHE_KEY_IGNORES_SPECIAL_OOPS) {
                *nil = 0;
                *true_obj = 0;
                *false_obj = 0;
            }
        }
    }
    key
}

/// Everything a test compilation depends on, by value.
///
/// The receiver is *not* part of a bytecode key: it rides in the
/// calling-convention register and never reaches the generated code.
///
/// Lookups normally go through the allocation-free [`CompileKeyRef`];
/// an owned key is built only when an artifact is actually inserted.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum CompileKey {
    /// A bytecode (sequence) test compilation.
    Bytecode {
        /// Front-end tier.
        kind: CompilerKind,
        /// Target ISA.
        isa: Isa,
        /// The instruction sequence under test.
        instrs: Vec<Instruction>,
        /// Operand-stack oops embedded by `genPushLiteral`.
        stack: Vec<u32>,
        /// Temp oops materialized by the preamble.
        temps: Vec<u32>,
        /// Method literal oops.
        literals: Vec<u32>,
        /// The nil oop compiled into push-constant code.
        nil: u32,
        /// The true oop.
        true_obj: u32,
        /// The false oop.
        false_obj: u32,
    },
    /// A native-method template compilation.
    Native {
        /// Native method id.
        id: u32,
        /// Target ISA.
        isa: Isa,
        /// The nil oop.
        nil: u32,
        /// The true oop.
        true_obj: u32,
        /// The false oop.
        false_obj: u32,
    },
}

impl CompileKey {
    /// Bucket hash; must agree with [`CompileKeyRef::bucket_hash`] on
    /// equivalent keys (enforced by `ref_and_owned_lookups_agree`).
    fn bucket_hash(&self) -> u64 {
        let mut h = FxHasher64::new();
        match self {
            CompileKey::Bytecode {
                kind,
                isa,
                instrs,
                stack,
                temps,
                literals,
                nil,
                true_obj,
                false_obj,
            } => {
                0u8.hash(&mut h);
                kind.hash(&mut h);
                isa.hash(&mut h);
                instrs.as_slice().hash(&mut h);
                for part in [stack, temps, literals] {
                    part.len().hash(&mut h);
                    for v in part {
                        v.hash(&mut h);
                    }
                }
                (nil, true_obj, false_obj).hash(&mut h);
            }
            CompileKey::Native { id, isa, nil, true_obj, false_obj } => {
                1u8.hash(&mut h);
                (id, isa, nil, true_obj, false_obj).hash(&mut h);
            }
        }
        h.finish()
    }
}

/// A borrowed view of a [`CompileKey`]: the hot lookup path hashes and
/// compares the frame's own slices without allocating; the owned key
/// (three `Vec` clones) is only built on the miss path, ~3× less
/// often than lookups in a campaign sweep.
#[derive(Clone, Copy, Debug)]
pub enum CompileKeyRef<'a> {
    /// A bytecode (sequence) test compilation.
    Bytecode {
        /// Front-end tier.
        kind: CompilerKind,
        /// Target ISA.
        isa: Isa,
        /// The instruction sequence under test.
        instrs: &'a [Instruction],
        /// Operand-stack oops embedded by `genPushLiteral`.
        stack: &'a [Oop],
        /// Temp oops materialized by the preamble.
        temps: &'a [Oop],
        /// Method literal oops.
        literals: &'a [Oop],
        /// The nil oop compiled into push-constant code.
        nil: u32,
        /// The true oop.
        true_obj: u32,
        /// The false oop.
        false_obj: u32,
    },
    /// A native-method template compilation.
    Native {
        /// Native method id.
        id: u32,
        /// Target ISA.
        isa: Isa,
        /// The nil oop.
        nil: u32,
        /// The true oop.
        true_obj: u32,
        /// The false oop.
        false_obj: u32,
    },
}

impl<'a> CompileKeyRef<'a> {
    /// Applies the cache-layer mutations at the borrow level (the
    /// owned-key path applies the same ones via `mutate_key`): each
    /// drops one compile-relevant field, conflating entries that must
    /// be distinct.
    fn mutated(self) -> CompileKeyRef<'a> {
        let mut key = self;
        match &mut key {
            CompileKeyRef::Bytecode { kind, stack, nil, true_obj, false_obj, .. } => {
                if armed(mutops::CACHE_KEY_IGNORES_STACK) {
                    *stack = &[];
                }
                if armed(mutops::CACHE_KEY_IGNORES_KIND) {
                    *kind = CompilerKind::SimpleStackBased;
                }
                if armed(mutops::CACHE_KEY_IGNORES_SPECIAL_OOPS) {
                    *nil = 0;
                    *true_obj = 0;
                    *false_obj = 0;
                }
            }
            CompileKeyRef::Native { nil, true_obj, false_obj, .. } => {
                if armed(mutops::CACHE_KEY_IGNORES_SPECIAL_OOPS) {
                    *nil = 0;
                    *true_obj = 0;
                    *false_obj = 0;
                }
            }
        }
        key
    }

    /// Bucket hash; agrees with [`CompileKey::bucket_hash`] on
    /// equivalent keys.
    fn bucket_hash(&self) -> u64 {
        let mut h = FxHasher64::new();
        match *self {
            CompileKeyRef::Bytecode {
                kind,
                isa,
                instrs,
                stack,
                temps,
                literals,
                nil,
                true_obj,
                false_obj,
            } => {
                0u8.hash(&mut h);
                kind.hash(&mut h);
                isa.hash(&mut h);
                instrs.hash(&mut h);
                for part in [stack, temps, literals] {
                    part.len().hash(&mut h);
                    for o in part {
                        o.0.hash(&mut h);
                    }
                }
                (nil, true_obj, false_obj).hash(&mut h);
            }
            CompileKeyRef::Native { id, isa, nil, true_obj, false_obj } => {
                1u8.hash(&mut h);
                (id, isa, nil, true_obj, false_obj).hash(&mut h);
            }
        }
        h.finish()
    }

    /// Whether this borrowed key denotes the same compilation as the
    /// stored owned key.
    fn matches(&self, owned: &CompileKey) -> bool {
        fn oops_eq(a: &[Oop], b: &[u32]) -> bool {
            a.len() == b.len() && a.iter().zip(b).all(|(o, v)| o.0 == *v)
        }
        match (*self, owned) {
            (
                CompileKeyRef::Bytecode {
                    kind,
                    isa,
                    instrs,
                    stack,
                    temps,
                    literals,
                    nil,
                    true_obj,
                    false_obj,
                },
                CompileKey::Bytecode {
                    kind: okind,
                    isa: oisa,
                    instrs: oinstrs,
                    stack: ostack,
                    temps: otemps,
                    literals: oliterals,
                    nil: onil,
                    true_obj: otrue,
                    false_obj: ofalse,
                },
            ) => {
                kind == *okind
                    && isa == *oisa
                    && instrs == oinstrs.as_slice()
                    && oops_eq(stack, ostack)
                    && oops_eq(temps, otemps)
                    && oops_eq(literals, oliterals)
                    && (nil, true_obj, false_obj) == (*onil, *otrue, *ofalse)
            }
            (
                CompileKeyRef::Native { id, isa, nil, true_obj, false_obj },
                CompileKey::Native {
                    id: oid,
                    isa: oisa,
                    nil: onil,
                    true_obj: otrue,
                    false_obj: ofalse,
                },
            ) => (id, isa, nil, true_obj, false_obj) == (*oid, *oisa, *onil, *otrue, *ofalse),
            _ => false,
        }
    }

    /// Materializes the owned key (the only allocating step of a
    /// lookup, taken on misses).
    fn to_owned_key(self) -> CompileKey {
        match self {
            CompileKeyRef::Bytecode {
                kind,
                isa,
                instrs,
                stack,
                temps,
                literals,
                nil,
                true_obj,
                false_obj,
            } => CompileKey::Bytecode {
                kind,
                isa,
                instrs: instrs.to_vec(),
                stack: stack.iter().map(|o| o.0).collect(),
                temps: temps.iter().map(|o| o.0).collect(),
                literals: literals.iter().map(|o| o.0).collect(),
                nil,
                true_obj,
                false_obj,
            },
            CompileKeyRef::Native { id, isa, nil, true_obj, false_obj } => {
                CompileKey::Native { id, isa, nil, true_obj, false_obj }
            }
        }
    }
}

/// One cache slot: the compiled artifact, or the front-end's refusal,
/// shared so machines borrow its bytes for every replay.
pub type CachedArtifact = Arc<Result<CompiledCode, CompileError>>;

/// One hash bucket: entries whose keys collide on the pre-computed
/// `u64`, compared exactly on lookup (nearly always a singleton).
type CacheBucket = Vec<(CompileKey, CachedArtifact)>;

/// A concurrent cache of compiled test artifacts (including refusals),
/// shared across models, probes, paths and worker threads.
///
/// Compilation is deterministic, so cache hits return byte-identical
/// code and the campaign's outputs are unchanged by caching; the
/// `code_cache_tests` suite enforces both properties.
///
/// Entries are stored in buckets keyed by a pre-computed `u64` hash so
/// the hot path — a borrowed-key lookup — hashes borrowed slices once
/// and compares within a (nearly always singleton) bucket, without
/// ever building an owned key.
pub struct CodeCache {
    map: RwLock<HashMap<u64, CacheBucket>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl Default for CodeCache {
    fn default() -> Self {
        CodeCache::new()
    }
}

impl CodeCache {
    /// An empty cache.
    pub fn new() -> CodeCache {
        CodeCache {
            map: RwLock::new(HashMap::new()),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    /// Looks up the borrowed `key`, invoking `compile` on a miss. The
    /// returned entry is shared; machines borrow the artifact bytes
    /// straight out of it.
    pub fn get_or_compile_ref(
        &self,
        key: CompileKeyRef<'_>,
        compile: impl FnOnce() -> Result<CompiledCode, CompileError>,
    ) -> CachedArtifact {
        let key = key.mutated();
        let bucket_hash = key.bucket_hash();
        if let Some(bucket) = self.map.read().expect("code cache poisoned").get(&bucket_hash) {
            if let Some((_, entry)) = bucket.iter().find(|(stored, _)| key.matches(stored)) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(entry);
            }
        }
        // Compile outside the lock; a racing thread compiling the same
        // key produces an identical artifact (compilation is pure).
        self.misses.fetch_add(1, Ordering::Relaxed);
        let entry = Arc::new(compile());
        let owned = key.to_owned_key();
        let mut map = self.map.write().expect("code cache poisoned");
        let bucket = map.entry(bucket_hash).or_default();
        if let Some((_, existing)) = bucket.iter().find(|(stored, _)| key.matches(stored)) {
            return Arc::clone(existing);
        }
        bucket.push((owned, Arc::clone(&entry)));
        entry
    }

    /// Owned-key lookup, for callers that already hold a
    /// [`CompileKey`] (tests, one-shot tools); the campaign's hot path
    /// uses [`CodeCache::get_or_compile_ref`].
    pub fn get_or_compile(
        &self,
        key: CompileKey,
        compile: impl FnOnce() -> Result<CompiledCode, CompileError>,
    ) -> CachedArtifact {
        let key = mutate_key(key);
        let bucket_hash = key.bucket_hash();
        if let Some(bucket) = self.map.read().expect("code cache poisoned").get(&bucket_hash) {
            if let Some((_, entry)) = bucket.iter().find(|(stored, _)| *stored == key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(entry);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let entry = Arc::new(compile());
        let mut map = self.map.write().expect("code cache poisoned");
        let bucket = map.entry(bucket_hash).or_default();
        if let Some((_, existing)) = bucket.iter().find(|(stored, _)| *stored == key) {
            return Arc::clone(existing);
        }
        bucket.push((key, Arc::clone(&entry)));
        entry
    }

    /// Number of lookups answered from the cache.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that had to compile.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Seeds an artifact without touching the hit/miss counters
    /// (corpus warm-start: a preloaded artifact becomes an ordinary
    /// hit when the sweep first asks for it). The key is inserted
    /// verbatim — stored keys already carry any cache-key mutation
    /// applied when they were first compiled, and the corpus
    /// fingerprint guarantees the arming state matches. First insert
    /// wins.
    pub fn preload(&self, key: CompileKey, artifact: Result<CompiledCode, CompileError>) {
        let bucket_hash = key.bucket_hash();
        let mut map = self.map.write().expect("code cache poisoned");
        let bucket = map.entry(bucket_hash).or_default();
        if bucket.iter().any(|(stored, _)| *stored == key) {
            return;
        }
        bucket.push((key, Arc::new(artifact)));
    }

    /// All stored entries, for corpus write-back: the artifacts are
    /// shared, not copied. Order is unspecified (the corpus encoder
    /// canonicalizes by key).
    pub fn snapshot(&self) -> Vec<(CompileKey, CachedArtifact)> {
        self.map
            .read()
            .expect("code cache poisoned")
            .values()
            .flat_map(|bucket| bucket.iter().map(|(k, e)| (k.clone(), Arc::clone(e))))
            .collect()
    }

    /// Distinct artifacts currently stored.
    pub fn len(&self) -> usize {
        self.map.read().expect("code cache poisoned").values().map(Vec::len).sum()
    }

    /// Whether the cache holds no artifacts.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn native_key(id: u32) -> CompileKey {
        CompileKey::Native { id, isa: Isa::X86ish, nil: 2, true_obj: 6, false_obj: 10 }
    }

    fn native_key_ref(id: u32) -> CompileKeyRef<'static> {
        CompileKeyRef::Native { id, isa: Isa::X86ish, nil: 2, true_obj: 6, false_obj: 10 }
    }

    fn fake_code(byte: u8) -> Result<CompiledCode, CompileError> {
        Ok(CompiledCode { code: vec![byte; 4], isa: Isa::X86ish, ntemps: 0 })
    }

    #[test]
    fn second_lookup_hits_and_shares_the_artifact() {
        let cache = CodeCache::new();
        let a = cache.get_or_compile(native_key(1), || fake_code(0xAA));
        let b = cache.get_or_compile(native_key(1), || panic!("must not recompile"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn distinct_keys_compile_separately() {
        let cache = CodeCache::new();
        cache.get_or_compile(native_key(1), || fake_code(1));
        cache.get_or_compile(native_key(2), || fake_code(2));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn refusals_are_cached() {
        let cache = CodeCache::new();
        let key = native_key(120);
        cache.get_or_compile(key.clone(), || Err(CompileError::NotImplemented("ffi")));
        let r = cache.get_or_compile(key, || panic!("refusal must be cached"));
        assert!(matches!(*r, Err(CompileError::NotImplemented("ffi"))));
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn ref_and_owned_lookups_agree() {
        use igjit_bytecode::Instruction;
        let cache = CodeCache::new();
        // Warm via the borrowed path, hit via the owned path — and the
        // same for a bytecode key, whose slice fields exercise the
        // cross-representation hash/equality contract.
        let seeded = cache.get_or_compile_ref(native_key_ref(7), || fake_code(7));
        let owned = cache.get_or_compile(native_key(7), || panic!("must hit"));
        assert!(Arc::ptr_eq(&seeded, &owned));

        let stack = [Oop(21), Oop(42)];
        let instrs = [Instruction::Add];
        let bc_ref = CompileKeyRef::Bytecode {
            kind: CompilerKind::StackToRegister,
            isa: Isa::Arm32ish,
            instrs: &instrs,
            stack: &stack,
            temps: &[],
            literals: &[],
            nil: 2,
            true_obj: 6,
            false_obj: 10,
        };
        let bc_owned = CompileKey::Bytecode {
            kind: CompilerKind::StackToRegister,
            isa: Isa::Arm32ish,
            instrs: instrs.to_vec(),
            stack: vec![21, 42],
            temps: vec![],
            literals: vec![],
            nil: 2,
            true_obj: 6,
            false_obj: 10,
        };
        assert_eq!(bc_ref.bucket_hash(), bc_owned.bucket_hash());
        assert!(bc_ref.matches(&bc_owned));
        let first = cache.get_or_compile_ref(bc_ref, || fake_code(0x42));
        let second = cache.get_or_compile(bc_owned, || panic!("must hit"));
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!((cache.hits(), cache.misses()), (2, 2));
    }

    #[test]
    fn ref_miss_materializes_a_key_that_later_refs_hit() {
        let stack = [Oop(8)];
        let key = CompileKeyRef::Bytecode {
            kind: CompilerKind::SimpleStackBased,
            isa: Isa::X86ish,
            instrs: &[],
            stack: &stack,
            temps: &[],
            literals: &[],
            nil: 2,
            true_obj: 6,
            false_obj: 10,
        };
        let cache = CodeCache::new();
        let a = cache.get_or_compile_ref(key, || fake_code(1));
        let b = cache.get_or_compile_ref(key, || panic!("must hit"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
    }
}
