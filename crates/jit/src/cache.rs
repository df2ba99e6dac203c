//! Compiled-code caching for the differential campaign.
//!
//! The test compilation schema (§4.2) embeds the operand stack, temps
//! and literals of the input frame as constants, so compiled code is a
//! pure function of `(front-end, ISA, instruction sequence, embedded
//! frame values, special oops)`. The front-end is a hand-written tier
//! or the meta tier's partial evaluator ([`FrontEnd`]); both compile
//! through one cache. The campaign, however, compiles once
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
//! Lookups borrow the frame's own slices as a [`CompileKeyRef`]; an
//! owned [`CompileKey`] exists only as the corpus type. The cache keeps
//! its entries in one flat store: the key slices of every entry live in
//! two typed arenas (instructions and oops) and the code bytes in one
//! byte arena, so a miss appends to a handful of buffers instead of
//! allocating a key, a bucket and a shared artifact, and dropping the
//! cache frees those buffers instead of thousands of small objects. A
//! hit copies the artifact's bytes into a caller-owned buffer while the
//! read lock is held, so no entry is shared and nothing is reference
//! counted. Stored
//! keys are viewed back as [`CompileKeyRef`]s over the arenas, so the
//! derived `Hash`/`Eq` and `CompileKeyRef::mutated` are the only key
//! logic.

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::RwLock;

use igjit_bytecode::fxhash::{FxHashMap, FxHasher64};
use igjit_bytecode::Instruction;
use igjit_heap::Oop;
use igjit_machine::Isa;
use igjit_mutate::{armed, ops as mutops};

use crate::{CompileError, CompiledCode, CompilerKind};

/// The front-end a bytecode test compilation runs through.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FrontEnd {
    /// A hand-written bytecode tier.
    Tier(CompilerKind),
    /// The meta tier: the partial evaluator over the interpreter's
    /// step functions (`igjit-metajit`), which compiles one
    /// instruction at a time.
    Meta,
}

/// Everything a test compilation depends on, by value.
///
/// The receiver is *not* part of a bytecode key: it rides in the
/// calling-convention register and never reaches the generated code.
///
/// The corpus stores keys in this form: [`CodeCache::preload`] copies
/// one into the cache and [`CodeCache::snapshot`] rebuilds them.
/// Lookups go through the borrowed [`CompileKeyRef`].
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum CompileKey {
    /// A bytecode (sequence) test compilation.
    Bytecode {
        /// Front-end: a hand-written tier or the meta evaluator.
        front_end: FrontEnd,
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
                front_end,
                isa,
                instrs,
                stack,
                temps,
                literals,
                nil,
                true_obj,
                false_obj,
            } => CompileKeyRef::Bytecode {
                front_end: *front_end,
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

/// A borrowed view of a [`CompileKey`]: the lookup path hashes and
/// compares the frame's own slices without allocating, and a stored
/// key is viewed the same way over the cache's arenas, so one derived
/// hash and one derived equality serve every lookup.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CompileKeyRef<'a> {
    /// A bytecode (sequence) test compilation.
    Bytecode {
        /// Front-end: a hand-written tier or the meta evaluator.
        front_end: FrontEnd,
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
    /// that must be distinct. Dropping the tier collapses the
    /// hand-written tiers only: no mutant makes a meta key equal to a
    /// tier key.
    fn mutated(self) -> CompileKeyRef<'a> {
        let mut key = self;
        match &mut key {
            CompileKeyRef::Bytecode { front_end, stack, nil, true_obj, false_obj, .. } => {
                if armed(mutops::CACHE_KEY_IGNORES_STACK) {
                    *stack = &[];
                }
                if let FrontEnd::Tier(kind) = front_end {
                    if armed(mutops::CACHE_KEY_IGNORES_KIND) {
                        *kind = CompilerKind::SimpleStackBased;
                    }
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

    /// The owned key, for the corpus.
    fn to_owned_key(self) -> CompileKey {
        match self {
            CompileKeyRef::Bytecode {
                front_end,
                isa,
                instrs,
                stack,
                temps,
                literals,
                nil,
                true_obj,
                false_obj,
            } => CompileKey::Bytecode {
                front_end,
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

/// A range of one of the cache's arenas.
#[derive(Clone, Copy, Debug)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    /// Appends `parts`, in order, to `arena` and returns where they
    /// landed.
    fn push<T: Copy>(arena: &mut Vec<T>, parts: &[&[T]]) -> Span {
        let start = arena.len();
        for part in parts {
            arena.extend_from_slice(part);
        }
        let span = |n: usize| u32::try_from(n).expect("a cache arena stays below 2^32 items");
        Span { start: span(start), len: span(arena.len() - start) }
    }

    fn of<T>(self, arena: &[T]) -> &[T] {
        &arena[self.start as usize..][..self.len as usize]
    }
}

/// A stored key: the fixed fields by value, the slices as spans of the
/// arenas. A bytecode key's stack, temps and literals are contiguous in
/// the oop arena, in that order.
#[derive(Clone, Copy, Debug)]
enum StoredKey {
    Bytecode {
        front_end: FrontEnd,
        isa: Isa,
        instrs: Span,
        oops: Span,
        stack_len: u32,
        temps_len: u32,
        nil: u32,
        true_obj: u32,
        false_obj: u32,
    },
    Native {
        id: u32,
        isa: Isa,
        nil: u32,
        true_obj: u32,
        false_obj: u32,
    },
}

/// A stored artifact: its code as a span of the byte arena.
#[derive(Clone, Copy, Debug)]
struct StoredCode {
    code: Span,
    isa: Isa,
    ntemps: u32,
}

/// One cache entry: the key, the artifact or the front-end's refusal,
/// and the next older entry whose key has the same hash.
#[derive(Debug)]
struct Entry {
    key: StoredKey,
    artifact: Result<StoredCode, CompileError>,
    older: Option<u32>,
}

/// The flat store behind a [`CodeCache`].
#[derive(Default)]
struct Store {
    /// Key hash → the newest entry with that hash; older ones chain
    /// through [`Entry::older`].
    newest: FxHashMap<u64, u32>,
    entries: Vec<Entry>,
    instrs: Vec<Instruction>,
    oops: Vec<Oop>,
    bytes: Vec<u8>,
}

impl Store {
    /// The borrowed view of `entry`'s key.
    fn key(&self, entry: &Entry) -> CompileKeyRef<'_> {
        match entry.key {
            StoredKey::Bytecode {
                front_end,
                isa,
                instrs,
                oops,
                stack_len,
                temps_len,
                nil,
                true_obj,
                false_obj,
            } => {
                let (stack, rest) = oops.of(&self.oops).split_at(stack_len as usize);
                let (temps, literals) = rest.split_at(temps_len as usize);
                CompileKeyRef::Bytecode {
                    front_end,
                    isa,
                    instrs: instrs.of(&self.instrs),
                    stack,
                    temps,
                    literals,
                    nil,
                    true_obj,
                    false_obj,
                }
            }
            StoredKey::Native { id, isa, nil, true_obj, false_obj } => {
                CompileKeyRef::Native { id, isa, nil, true_obj, false_obj }
            }
        }
    }

    /// The entry whose key equals `key`, which hashes to `hash`.
    fn find(&self, hash: u64, key: CompileKeyRef<'_>) -> Option<&Entry> {
        let mut at = self.newest.get(&hash).copied();
        while let Some(i) = at {
            let entry = &self.entries[i as usize];
            if self.key(entry) == key {
                return Some(entry);
            }
            at = entry.older;
        }
        None
    }

    /// Stores `artifact` under `key` (hashing to `hash`) unless an
    /// equal key is already stored: the first insert wins.
    fn insert(
        &mut self,
        hash: u64,
        key: CompileKeyRef<'_>,
        artifact: &Result<CompiledCode, CompileError>,
    ) {
        if self.find(hash, key).is_some() {
            return;
        }
        let key = match key {
            CompileKeyRef::Bytecode {
                front_end,
                isa,
                instrs,
                stack,
                temps,
                literals,
                nil,
                true_obj,
                false_obj,
            } => StoredKey::Bytecode {
                front_end,
                isa,
                instrs: Span::push(&mut self.instrs, &[instrs]),
                oops: Span::push(&mut self.oops, &[stack, temps, literals]),
                stack_len: stack.len() as u32,
                temps_len: temps.len() as u32,
                nil,
                true_obj,
                false_obj,
            },
            CompileKeyRef::Native { id, isa, nil, true_obj, false_obj } => {
                StoredKey::Native { id, isa, nil, true_obj, false_obj }
            }
        };
        let artifact = match artifact {
            Ok(c) => Ok(StoredCode {
                code: Span::push(&mut self.bytes, &[&c.code]),
                isa: c.isa,
                ntemps: c.ntemps,
            }),
            Err(e) => Err(e.clone()),
        };
        let index = u32::try_from(self.entries.len()).expect("fewer than 2^32 cache entries");
        let older = self.newest.insert(hash, index);
        self.entries.push(Entry { key, artifact, older });
    }

    /// Copies `entry`'s artifact into `out`, reusing its code buffer,
    /// or returns the refusal.
    fn load(&self, entry: &Entry, out: &mut CompiledCode) -> Result<(), CompileError> {
        match &entry.artifact {
            Ok(c) => {
                fill(out, c.code.of(&self.bytes), c.isa, c.ntemps);
                Ok(())
            }
            Err(e) => Err(e.clone()),
        }
    }

    /// The owned artifact of `entry`, for the corpus.
    fn artifact(&self, entry: &Entry) -> Result<CompiledCode, CompileError> {
        let mut out = CompiledCode { code: Vec::new(), isa: Isa::X86ish, ntemps: 0 };
        self.load(entry, &mut out).map(|()| out)
    }
}

/// Overwrites `out` with an artifact, reusing its code buffer.
fn fill(out: &mut CompiledCode, code: &[u8], isa: Isa, ntemps: u32) {
    out.code.clear();
    out.code.extend_from_slice(code);
    out.isa = isa;
    out.ntemps = ntemps;
}

/// A concurrent cache of compiled test artifacts (including refusals),
/// shared across models, probes, paths and worker threads.
///
/// Compilation is deterministic, so cache hits return byte-identical
/// code and the campaign's outputs are unchanged by caching; the
/// `code_cache_tests` suite enforces both properties.
///
/// Entries live in one flat store (see the module doc): a lookup hashes
/// the borrowed key once, walks the (nearly always single-entry) chain
/// of stored keys with that hash comparing exactly, and on a hit copies
/// the artifact out. Steady-state lookups allocate nothing.
pub struct CodeCache {
    store: RwLock<Store>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    /// Bits of the key hash the store indexes by; tests clear bits to
    /// force collisions.
    #[cfg(test)]
    hash_mask: u64,
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
            store: RwLock::new(Store::default()),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            #[cfg(test)]
            hash_mask: u64::MAX,
        }
    }

    /// The hash `key` is stored under.
    fn hash_of(&self, key: &CompileKeyRef<'_>) -> u64 {
        let hash = key.bucket_hash();
        #[cfg(test)]
        let hash = hash & self.hash_mask;
        hash
    }

    /// Looks up the borrowed `key`, invoking `compile` on a miss, and
    /// copies the artifact into `out` (reusing its code buffer), or
    /// returns the front-end's refusal.
    pub fn get_or_compile_ref(
        &self,
        key: CompileKeyRef<'_>,
        out: &mut CompiledCode,
        compile: impl FnOnce() -> Result<CompiledCode, CompileError>,
    ) -> Result<(), CompileError> {
        let key = key.mutated();
        let hash = self.hash_of(&key);
        {
            let store = self.store.read().expect("code cache poisoned");
            if let Some(entry) = store.find(hash, key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return store.load(entry, out);
            }
        }
        // Compile outside the lock; a racing thread compiling the same
        // key produces an identical artifact (compilation is pure), and
        // the first insert wins.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let artifact = compile();
        self.store.write().expect("code cache poisoned").insert(hash, key, &artifact);
        let c = artifact?;
        fill(out, &c.code, c.isa, c.ntemps);
        Ok(())
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
        let key = key.as_ref();
        let hash = self.hash_of(&key);
        self.store.write().expect("code cache poisoned").insert(hash, key, &artifact);
    }

    /// All stored entries as owned keys and artifacts, for corpus
    /// write-back. Order is unspecified (the corpus encoder
    /// canonicalizes by key).
    pub fn snapshot(&self) -> Vec<(CompileKey, Result<CompiledCode, CompileError>)> {
        let store = self.store.read().expect("code cache poisoned");
        store
            .entries
            .iter()
            .map(|entry| (store.key(entry).to_owned_key(), store.artifact(entry)))
            .collect()
    }

    /// Distinct artifacts currently stored.
    pub fn len(&self) -> usize {
        self.store.read().expect("code cache poisoned").entries.len()
    }

    /// Whether the cache holds no artifacts.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igjit_mutate::{FaultInjector, MutantGuard, MutantId};
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn native_key(id: u32) -> CompileKeyRef<'static> {
        CompileKeyRef::Native { id, isa: Isa::X86ish, nil: 2, true_obj: 6, false_obj: 10 }
    }

    fn fake_code(byte: u8) -> Result<CompiledCode, CompileError> {
        Ok(CompiledCode { code: vec![byte; 4], isa: Isa::X86ish, ntemps: 0 })
    }

    fn buffer() -> CompiledCode {
        CompiledCode { code: Vec::new(), isa: Isa::Arm32ish, ntemps: 0 }
    }

    /// An artifact's observable parts.
    type Parts = Result<(Vec<u8>, Isa, u32), CompileError>;

    fn parts(artifact: &Result<CompiledCode, CompileError>) -> Parts {
        artifact.as_ref().map(|c| (c.code.clone(), c.isa, c.ntemps)).map_err(Clone::clone)
    }

    /// Looks `key` up and returns what the lookup put in a buffer.
    fn lookup(
        cache: &CodeCache,
        key: CompileKeyRef<'_>,
        compile: impl FnOnce() -> Result<CompiledCode, CompileError>,
    ) -> Parts {
        let mut out = buffer();
        let result = cache.get_or_compile_ref(key, &mut out, compile);
        parts(&result.map(|()| out))
    }

    #[test]
    fn second_lookup_hits_and_copies_the_artifact() {
        let _off = FaultInjector::pinned_off();
        let cache = CodeCache::new();
        let a = lookup(&cache, native_key(1), || fake_code(0xAA));
        let b = lookup(&cache, native_key(1), || panic!("must not recompile"));
        assert_eq!(a, Ok((vec![0xAA; 4], Isa::X86ish, 0)));
        assert_eq!(a, b);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn distinct_keys_compile_separately() {
        let _off = FaultInjector::pinned_off();
        let cache = CodeCache::new();
        let one = lookup(&cache, native_key(1), || fake_code(1));
        let two = lookup(&cache, native_key(2), || fake_code(2));
        assert_ne!(one, two);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn refusals_are_cached() {
        let _off = FaultInjector::pinned_off();
        let cache = CodeCache::new();
        let first = lookup(&cache, native_key(120), || Err(CompileError::NotImplemented("ffi")));
        let again = lookup(&cache, native_key(120), || panic!("refusal must be cached"));
        assert_eq!(first, Err(CompileError::NotImplemented("ffi")));
        assert_eq!(again, first);
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn preloaded_owned_keys_are_hit_by_borrowed_lookups() {
        let _off = FaultInjector::pinned_off();
        // The corpus warm start preloads owned keys; the sweep then
        // looks them up through the frame's borrowed slices. Both key
        // shapes must hit, and a preload counts as neither.
        let cache = CodeCache::new();
        let stack = [Oop(21), Oop(42)];
        let instrs = [Instruction::Add];
        let bytecode = CompileKeyRef::Bytecode {
            front_end: FrontEnd::Tier(CompilerKind::StackToRegister),
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
            let hit = lookup(&cache, key, || panic!("must hit"));
            assert_eq!(hit.unwrap().0, [byte; 4]);
        }
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (2, 0, 2));
    }

    #[test]
    fn a_missed_key_is_stored_for_later_lookups_and_snapshots() {
        let _off = FaultInjector::pinned_off();
        let stack = [Oop(8)];
        let key = CompileKeyRef::Bytecode {
            front_end: FrontEnd::Tier(CompilerKind::SimpleStackBased),
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
        let a = lookup(&cache, key, || fake_code(1));
        let b = lookup(&cache, key, || panic!("must hit"));
        assert_eq!(a, b);
        assert_eq!(cache.len(), 1);
        let (stored, artifact) = &cache.snapshot()[0];
        assert_eq!(stored.as_ref(), key);
        assert_eq!(parts(artifact), a);
    }

    /// A key for `Add` over `stack` through `front_end`, with the
    /// special oops `native_key` uses. A compile key has no receiver
    /// field: the receiver rides in a register, so frames that differ
    /// only in the receiver look up one key.
    fn add_key(front_end: FrontEnd, isa: Isa, stack: &[Oop]) -> CompileKeyRef<'_> {
        CompileKeyRef::Bytecode {
            front_end,
            isa,
            instrs: &[Instruction::Add],
            stack,
            temps: &[],
            literals: &[],
            nil: 2,
            true_obj: 6,
            false_obj: 10,
        }
    }

    #[test]
    fn meta_lookups_hit_on_equal_slices_only() {
        let _off = FaultInjector::pinned_off();
        let cache = CodeCache::new();
        let meta = |isa, stack| add_key(FrontEnd::Meta, isa, stack);
        let first = lookup(&cache, meta(Isa::X86ish, &[Oop(3), Oop(5)]), || fake_code(0));
        let again = lookup(&cache, meta(Isa::X86ish, &[Oop(3), Oop(5)]), || panic!("must hit"));
        assert_eq!(first, again);
        // A different stack or ISA misses.
        let others: [(Isa, &[Oop]); 3] = [
            (Isa::X86ish, &[Oop(3), Oop(7)]),
            (Isa::X86ish, &[Oop(3)]),
            (Isa::Arm32ish, &[Oop(3), Oop(5)]),
        ];
        for (byte, (isa, stack)) in (1..).zip(others) {
            let got = lookup(&cache, meta(isa, stack), || fake_code(byte));
            assert_eq!(got, parts(&fake_code(byte)), "{isa:?} {stack:?}");
        }
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 4, 4));
    }

    #[test]
    fn no_cache_key_mutant_makes_a_meta_key_equal_a_tier_key() {
        // Identical slices and special oops: only the front-end tells a
        // meta key from a tier key. Dropping the tier (502) collapses
        // the hand-written tiers onto one key, and dropping the special
        // oops (503) drops them on both sides; neither may serve a
        // tier's code to the meta tier or back.
        let stack = [Oop(3), Oop(5)];
        for mutant in [mutops::CACHE_KEY_IGNORES_KIND, mutops::CACHE_KEY_IGNORES_SPECIAL_OOPS] {
            let _armed = FaultInjector::arm(mutant).unwrap();
            let meta = add_key(FrontEnd::Meta, Isa::X86ish, &stack);
            let cache = CodeCache::new();
            assert_eq!(lookup(&cache, meta, || fake_code(0xEE)), parts(&fake_code(0xEE)));
            for (i, kind) in CompilerKind::ALL.into_iter().enumerate() {
                let tier = add_key(FrontEnd::Tier(kind), Isa::X86ish, &stack);
                assert_ne!(meta.mutated(), tier.mutated(), "{mutant:?} {kind:?}");
                // Under 502 every tier replays the first tier's code.
                let first = if mutant == mutops::CACHE_KEY_IGNORES_KIND { 0 } else { i as u8 };
                let got = lookup(&cache, tier, || fake_code(i as u8));
                assert_eq!(got, parts(&fake_code(first)), "{mutant:?} {kind:?}");
            }
            assert_eq!(lookup(&cache, meta, || panic!("must hit")), parts(&fake_code(0xEE)));
        }
    }

    /// A generated key: every field drawn from a small pool, so that
    /// keys repeat and differ in one field at a time.
    #[derive(Clone, Debug)]
    enum GenKey {
        Bytecode {
            front_end: FrontEnd,
            isa: Isa,
            instrs: Vec<Instruction>,
            stack: Vec<Oop>,
            temps: Vec<Oop>,
            literals: Vec<Oop>,
            special: [u32; 3],
        },
        Native {
            id: u32,
            isa: Isa,
            special: [u32; 3],
        },
    }

    impl GenKey {
        fn as_ref(&self) -> CompileKeyRef<'_> {
            match self {
                GenKey::Bytecode { front_end, isa, instrs, stack, temps, literals, special } => {
                    CompileKeyRef::Bytecode {
                        front_end: *front_end,
                        isa: *isa,
                        instrs,
                        stack,
                        temps,
                        literals,
                        nil: special[0],
                        true_obj: special[1],
                        false_obj: special[2],
                    }
                }
                &GenKey::Native { id, isa, special } => CompileKeyRef::Native {
                    id,
                    isa,
                    nil: special[0],
                    true_obj: special[1],
                    false_obj: special[2],
                },
            }
        }
    }

    fn isa_of(pick: u8) -> Isa {
        if pick & 1 == 0 {
            Isa::X86ish
        } else {
            Isa::Arm32ish
        }
    }

    /// Up to two oops from a two-value pool, the empty slice included.
    fn oops_of(bits: u8) -> Vec<Oop> {
        (0..bits % 3).map(|i| Oop(u32::from(bits >> (2 + i)) & 1)).collect()
    }

    fn gen_key() -> impl Strategy<Value = GenKey> {
        (any::<bool>(), any::<u8>(), any::<u32>(), any::<u8>()).prop_map(|(native, a, b, c)| {
            let byte = |n: u32| (b >> (8 * n)) as u8;
            let special = [2 + 4 * u32::from(c & 1), 6, 10 - 10 * u32::from(c >> 1 & 1)];
            if native {
                return GenKey::Native { id: [1, 2, 120][usize::from(a % 3)], isa: isa_of(c >> 2), special };
            }
            const POOL: [Instruction; 3] =
                [Instruction::Add, Instruction::PushOne, Instruction::PushReceiver];
            GenKey::Bytecode {
                front_end: [
                    FrontEnd::Tier(CompilerKind::SimpleStackBased),
                    FrontEnd::Tier(CompilerKind::StackToRegister),
                    FrontEnd::Tier(CompilerKind::RegisterAllocating),
                    FrontEnd::Meta,
                ][usize::from(a % 4)],
                isa: isa_of(c >> 2),
                instrs: (0..(a >> 2) % 3).map(|i| POOL[usize::from((a >> (4 + i)) % 3)]).collect(),
                stack: oops_of(byte(0)),
                temps: oops_of(byte(1)),
                literals: oops_of(byte(2)),
                special,
            }
        })
    }

    /// What a compile of `key` produces: a refusal for native 120 and
    /// for any program with a `PushReceiver`, otherwise code that
    /// depends on every field of the key.
    fn compile_of(key: CompileKeyRef<'_>) -> Result<CompiledCode, CompileError> {
        let refuses = match key {
            CompileKeyRef::Native { id, .. } => id == 120,
            CompileKeyRef::Bytecode { instrs, .. } => instrs.contains(&Instruction::PushReceiver),
        };
        if refuses {
            return Err(CompileError::NotImplemented("refused"));
        }
        let (isa, ntemps) = match key {
            CompileKeyRef::Bytecode { isa, temps, .. } => (isa, temps.len() as u32),
            CompileKeyRef::Native { isa, .. } => (isa, 0),
        };
        let code = format!("{key:?}").into_bytes();
        Ok(CompiledCode { code, isa, ntemps })
    }

    /// What the armed `mutant` makes a lookup key forget, written out
    /// independently of [`CompileKeyRef::mutated`].
    fn forget(key: &mut CompileKey, mutant: Option<MutantId>) {
        use mutops::{CACHE_KEY_IGNORES_KIND, CACHE_KEY_IGNORES_SPECIAL_OOPS, CACHE_KEY_IGNORES_STACK};
        let (nil, true_obj, false_obj) = match key {
            CompileKey::Bytecode { front_end, stack, nil, true_obj, false_obj, .. } => {
                if mutant == Some(CACHE_KEY_IGNORES_STACK) {
                    stack.clear();
                }
                if let (Some(CACHE_KEY_IGNORES_KIND), FrontEnd::Tier(kind)) = (mutant, front_end) {
                    *kind = CompilerKind::SimpleStackBased;
                }
                (nil, true_obj, false_obj)
            }
            CompileKey::Native { nil, true_obj, false_obj, .. } => (nil, true_obj, false_obj),
        };
        if mutant == Some(CACHE_KEY_IGNORES_SPECIAL_OOPS) {
            (*nil, *true_obj, *false_obj) = (0, 0, 0);
        }
    }

    /// One step of a stream: a lookup, or a preload carrying a marker
    /// byte so that which of two preloads won shows in the bytes.
    #[derive(Clone, Debug)]
    enum Step {
        Lookup(GenKey),
        Preload(GenKey, u8),
    }

    fn gen_step() -> impl Strategy<Value = Step> {
        (gen_key(), 0u8..4, any::<u8>()).prop_map(|(key, pick, marker)| match pick {
            0 => Step::Preload(key, marker),
            _ => Step::Lookup(key),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The flat store against a `HashMap` from owned keys to
        /// artifacts, under forced hash collisions and under each
        /// cache-key mutant: every lookup hits exactly when the
        /// reference holds its key, returns the reference's artifact
        /// (bytes, ISA, temps or refusal), and in the end the counters,
        /// `len()` and `snapshot()` agree with the reference.
        #[test]
        fn flat_store_behaves_like_a_map_of_owned_keys(
            steps in proptest::collection::vec(gen_step(), 0..80),
            mask_pick in 0u8..3,
            mutant_pick in 0u8..4,
        ) {
            let mutant = [
                None,
                Some(mutops::CACHE_KEY_IGNORES_STACK),
                Some(mutops::CACHE_KEY_IGNORES_KIND),
                Some(mutops::CACHE_KEY_IGNORES_SPECIAL_OOPS),
            ][usize::from(mutant_pick)];
            let _guard: MutantGuard = match mutant {
                Some(id) => FaultInjector::arm(id).unwrap(),
                None => FaultInjector::pinned_off(),
            };
            // All keys in one chain, a few chains, or the full hash.
            let hash_mask = [0, 0b11, u64::MAX][usize::from(mask_pick)];
            let cache = CodeCache { hash_mask, ..CodeCache::new() };
            let mut reference: HashMap<CompileKey, Result<CompiledCode, CompileError>> =
                HashMap::new();
            let (mut hits, mut misses) = (0, 0);
            let mut out = buffer();
            for step in &steps {
                match step {
                    Step::Preload(key, marker) => {
                        let owned = key.as_ref().to_owned_key();
                        let artifact = fake_code(*marker);
                        reference.entry(owned.clone()).or_insert_with(|| artifact.clone());
                        cache.preload(owned, artifact);
                    }
                    Step::Lookup(key) => {
                        let mut stored = key.as_ref().to_owned_key();
                        forget(&mut stored, mutant);
                        let expected = match reference.get(&stored) {
                            Some(artifact) => {
                                hits += 1;
                                parts(artifact)
                            }
                            None => {
                                misses += 1;
                                let artifact = compile_of(key.as_ref());
                                let expected = parts(&artifact);
                                reference.insert(stored, artifact);
                                expected
                            }
                        };
                        let got = cache
                            .get_or_compile_ref(key.as_ref(), &mut out, || compile_of(key.as_ref()))
                            .map(|()| (out.code.clone(), out.isa, out.ntemps));
                        prop_assert_eq!(got, expected, "{:?}", key);
                    }
                }
                prop_assert_eq!((cache.hits(), cache.misses()), (hits, misses));
                prop_assert_eq!(cache.len(), reference.len());
            }
            let snapshot: HashMap<CompileKey, Parts> =
                cache.snapshot().iter().map(|(k, a)| (k.clone(), parts(a))).collect();
            prop_assert_eq!(snapshot.len(), cache.len(), "snapshot keys are distinct");
            let expected: HashMap<CompileKey, Parts> =
                reference.iter().map(|(k, a)| (k.clone(), parts(a))).collect();
            prop_assert_eq!(snapshot, expected);
        }
    }
}
