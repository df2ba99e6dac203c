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
        stack: Vec<Oop>,
        /// Temp oops materialized by the preamble.
        temps: Vec<Oop>,
        /// Method literal oops.
        literals: Vec<Oop>,
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
    /// The borrowed view of this key, which the cache hashes and
    /// compares.
    pub fn as_ref(&self) -> CompileKeyRef<'_> {
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
            } => CompileKeyRef::Bytecode {
                kind: *kind,
                isa: *isa,
                instrs,
                stack,
                temps,
                literals,
                nil: *nil,
                true_obj: *true_obj,
                false_obj: *false_obj,
            },
            &CompileKey::Native { id, isa, nil, true_obj, false_obj } => {
                CompileKeyRef::Native { id, isa, nil, true_obj, false_obj }
            }
        }
    }
}

/// A borrowed view of a [`CompileKey`]: the hot lookup path hashes and
/// compares the frame's own slices without allocating; the owned key
/// (three `Vec` clones) is only built on the miss path, ~3× less
/// often than lookups in a campaign sweep. Stored keys are compared
/// through their own [`CompileKey::as_ref`] view, so one derived hash
/// and one derived equality serve every lookup.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
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
    /// Applies the cache-layer mutations: each drops one
    /// compile-relevant field from the lookup key, conflating entries
    /// that must be distinct.
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

    /// The pre-computed `u64` a cache bucket is keyed by.
    fn bucket_hash(&self) -> u64 {
        let mut h = FxHasher64::new();
        self.hash(&mut h);
        h.finish()
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
                stack: stack.to_vec(),
                temps: temps.to_vec(),
                literals: literals.to_vec(),
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

/// A fresh bucket, sized for the one entry it nearly always holds.
fn new_bucket() -> CacheBucket {
    Vec::with_capacity(1)
}

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
            if let Some((_, entry)) = bucket.iter().find(|(stored, _)| stored.as_ref() == key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(entry);
            }
        }
        // Compile outside the lock; a racing thread compiling the same
        // key produces an identical artifact (compilation is pure).
        self.misses.fetch_add(1, Ordering::Relaxed);
        let entry = Arc::new(compile());
        let mut map = self.map.write().expect("code cache poisoned");
        let bucket = map.entry(bucket_hash).or_insert_with(new_bucket);
        if let Some((_, existing)) = bucket.iter().find(|(stored, _)| stored.as_ref() == key) {
            return Arc::clone(existing);
        }
        bucket.push((key.to_owned_key(), Arc::clone(&entry)));
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
        let bucket_hash = key.as_ref().bucket_hash();
        let mut map = self.map.write().expect("code cache poisoned");
        let bucket = map.entry(bucket_hash).or_insert_with(new_bucket);
        if bucket.iter().any(|(stored, _)| stored.as_ref() == key.as_ref()) {
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

    fn native_key(id: u32) -> CompileKeyRef<'static> {
        CompileKeyRef::Native { id, isa: Isa::X86ish, nil: 2, true_obj: 6, false_obj: 10 }
    }

    fn fake_code(byte: u8) -> Result<CompiledCode, CompileError> {
        Ok(CompiledCode { code: vec![byte; 4], isa: Isa::X86ish, ntemps: 0 })
    }

    #[test]
    fn second_lookup_hits_and_shares_the_artifact() {
        let cache = CodeCache::new();
        let a = cache.get_or_compile_ref(native_key(1), || fake_code(0xAA));
        let b = cache.get_or_compile_ref(native_key(1), || panic!("must not recompile"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn distinct_keys_compile_separately() {
        let cache = CodeCache::new();
        cache.get_or_compile_ref(native_key(1), || fake_code(1));
        cache.get_or_compile_ref(native_key(2), || fake_code(2));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn refusals_are_cached() {
        let cache = CodeCache::new();
        cache.get_or_compile_ref(native_key(120), || Err(CompileError::NotImplemented("ffi")));
        let r = cache.get_or_compile_ref(native_key(120), || panic!("refusal must be cached"));
        assert!(matches!(*r, Err(CompileError::NotImplemented("ffi"))));
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn preloaded_owned_keys_are_hit_by_borrowed_lookups() {
        use igjit_bytecode::Instruction;
        // The corpus warm start preloads owned keys; the sweep then
        // looks them up through the frame's borrowed slices. Both key
        // shapes must hit, and a preload counts as neither.
        let cache = CodeCache::new();
        let stack = [Oop(21), Oop(42)];
        let instrs = [Instruction::Add];
        let bytecode = CompileKeyRef::Bytecode {
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
        for (key, byte) in [(native_key(7), 7), (bytecode, 0x42)] {
            cache.preload(key.to_owned_key(), fake_code(byte));
            let hit = cache.get_or_compile_ref(key, || panic!("must hit"));
            assert_eq!((*hit).as_ref().unwrap().code, [byte; 4]);
        }
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (2, 0, 2));
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
        let (stored, _) = &cache.snapshot()[0];
        assert_eq!(stored.as_ref(), key);
    }
}
