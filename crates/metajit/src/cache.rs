//! The meta-artifact cache.
//!
//! Meta-compiled code is a pure function of `(ISA, instruction,
//! embedded frame values, special oops)` — the receiver is dynamic and
//! deliberately absent from the key. The cache is **campaign-owned**,
//! not process-global: the mutation foundry arms fault injectors
//! in-process, and the evaluator's `backend::lower` call sits behind
//! several of them, so artifacts compiled under one arming must never
//! be served to a run under another.
//!
//! A lookup hashes and compares the frame's own slices; the owned key
//! (three `Vec`s) is built only when a miss stores an entry.

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use igjit_bytecode::fxhash::{FxHashMap, FxHasher64};
use igjit_bytecode::Instruction;
use igjit_heap::Oop;
use igjit_interp::Frame;
use igjit_machine::Isa;

use crate::compile::{MetaArtifact, MetaRefusal};

/// Everything a meta-compilation depends on, by value; built only when
/// a miss stores an entry.
struct MetaKey {
    isa: Isa,
    instr: Instruction,
    stack: Vec<Oop>,
    temps: Vec<Oop>,
    literals: Vec<Oop>,
    specials: [Oop; 3],
}

impl MetaKey {
    fn borrowed(&self) -> MetaKeyRef<'_> {
        MetaKeyRef {
            isa: self.isa,
            instr: self.instr,
            stack: &self.stack,
            temps: &self.temps,
            literals: &self.literals,
            specials: self.specials,
        }
    }
}

/// A borrowed view of a [`MetaKey`]: lookups hash and compare the
/// frame's own slices, so a hit allocates nothing.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct MetaKeyRef<'a> {
    isa: Isa,
    instr: Instruction,
    stack: &'a [Oop],
    temps: &'a [Oop],
    literals: &'a [Oop],
    specials: [Oop; 3],
}

impl MetaKeyRef<'_> {
    fn bucket_hash(&self) -> u64 {
        let mut h = FxHasher64::new();
        self.hash(&mut h);
        h.finish()
    }

    fn to_owned_key(self) -> MetaKey {
        MetaKey {
            isa: self.isa,
            instr: self.instr,
            stack: self.stack.to_vec(),
            temps: self.temps.to_vec(),
            literals: self.literals.to_vec(),
            specials: self.specials,
        }
    }
}

/// One cache slot: the artifact, or the remembered refusal.
type MetaEntry = Arc<Result<MetaArtifact, MetaRefusal>>;

/// Cache of meta-compiled artifacts (and remembered refusals, so a
/// trampolining key does not re-run the evaluator per model).
///
/// Entries sit in buckets keyed by the borrowed key's hash and are
/// compared exactly within a (nearly always singleton) bucket, as in
/// the bytecode tiers' `CodeCache`.
#[derive(Default)]
pub struct MetaCache {
    entries: Mutex<FxHashMap<u64, Vec<(MetaKey, MetaEntry)>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl MetaCache {
    /// An empty cache.
    pub fn new() -> MetaCache {
        MetaCache::default()
    }

    /// Looks up the artifact for one (instruction, frame shape) on one
    /// ISA, or runs `compile` — [`compile_meta`] over the same inputs,
    /// wrapped however the caller needs, e.g. to time the miss — and
    /// remembers what it returns.
    ///
    /// [`compile_meta`]: crate::compile_meta
    #[allow(clippy::too_many_arguments)]
    pub fn get_or_compile(
        &self,
        isa: Isa,
        instr: Instruction,
        frame: &Frame<Oop>,
        nil: Oop,
        true_obj: Oop,
        false_obj: Oop,
        compile: impl FnOnce() -> Result<MetaArtifact, MetaRefusal>,
    ) -> Arc<Result<MetaArtifact, MetaRefusal>> {
        let key = MetaKeyRef {
            isa,
            instr,
            stack: &frame.stack,
            temps: &frame.temps,
            literals: &frame.method.literals,
            specials: [nil, true_obj, false_obj],
        };
        let bucket_hash = key.bucket_hash();
        {
            let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(bucket) = entries.get(&bucket_hash) {
                if let Some((_, e)) = bucket.iter().find(|(stored, _)| stored.borrowed() == key) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Arc::clone(e);
                }
            }
        }
        // Compile outside the lock: evaluation is pure, so a racing
        // duplicate compile returns an identical artifact.
        let compiled = Arc::new(compile());
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        // Buckets are nearly always singletons: size them for one.
        let bucket = entries.entry(bucket_hash).or_insert_with(|| Vec::with_capacity(1));
        if let Some((_, existing)) = bucket.iter().find(|(stored, _)| stored.borrowed() == key) {
            return Arc::clone(existing);
        }
        bucket.push((key.to_owned_key(), Arc::clone(&compiled)));
        compiled
    }

    /// Lookups answered without compiling.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Evaluator invocations actually run.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct keys cached.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap_or_else(|e| e.into_inner()).values().map(Vec::len).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for MetaCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetaCache")
            .field("entries", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igjit_interp::MethodInfo;

    fn frame(receiver: u32, stack: &[u32]) -> Frame<Oop> {
        let mut f = Frame::new(Oop(receiver), MethodInfo::empty());
        f.stack = stack.iter().map(|&w| Oop(w)).collect();
        f
    }

    fn lookup(cache: &MetaCache, isa: Isa, f: &Frame<Oop>) -> MetaEntry {
        cache.get_or_compile(isa, Instruction::Add, f, Oop(2), Oop(6), Oop(10), || {
            Err(MetaRefusal { reason: "stub".into() })
        })
    }

    #[test]
    fn borrowed_lookups_hit_on_equal_frames_only() {
        let cache = MetaCache::new();
        let first = lookup(&cache, Isa::X86ish, &frame(1, &[3, 5]));
        // The receiver is not part of the key.
        let again = lookup(&cache, Isa::X86ish, &frame(9, &[3, 5]));
        assert!(Arc::ptr_eq(&first, &again));
        lookup(&cache, Isa::X86ish, &frame(1, &[3, 7]));
        lookup(&cache, Isa::X86ish, &frame(1, &[3]));
        lookup(&cache, Isa::Arm32ish, &frame(1, &[3, 5]));
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 4, 4));
    }
}
