//! The meta-artifact cache.
//!
//! Meta-compiled code is a pure function of `(ISA, instruction,
//! embedded frame values, special oops)` — the receiver is dynamic and
//! deliberately absent from the key. The cache is **campaign-owned**,
//! not process-global: the mutation foundry arms fault injectors
//! in-process, and the evaluator's `backend::lower` call sits behind
//! several of them, so artifacts compiled under one arming must never
//! be served to a run under another.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use igjit_bytecode::Instruction;
use igjit_heap::Oop;
use igjit_interp::Frame;
use igjit_machine::Isa;

use crate::compile::{MetaArtifact, MetaRefusal};

#[derive(Clone, PartialEq, Eq, Hash)]
struct MetaKey {
    isa: Isa,
    instr: Instruction,
    stack: Vec<u32>,
    temps: Vec<u32>,
    literals: Vec<u32>,
    nil: u32,
    true_obj: u32,
    false_obj: u32,
}

/// Cache of meta-compiled artifacts (and remembered refusals, so a
/// trampolining key does not re-run the evaluator per model).
#[derive(Default)]
pub struct MetaCache {
    entries: Mutex<HashMap<MetaKey, Arc<Result<MetaArtifact, MetaRefusal>>>>,
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
        let key = MetaKey {
            isa,
            instr,
            stack: frame.stack.iter().map(|o| o.0).collect(),
            temps: frame.temps.iter().map(|o| o.0).collect(),
            literals: frame.method.literals.iter().map(|o| o.0).collect(),
            nil: nil.0,
            true_obj: true_obj.0,
            false_obj: false_obj.0,
        };
        {
            let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(e) = entries.get(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(e);
            }
        }
        // Compile outside the lock: evaluation is pure, so a racing
        // duplicate compile returns an identical artifact.
        let compiled = Arc::new(compile());
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(entries.entry(key).or_insert(compiled))
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
        self.entries.lock().unwrap_or_else(|e| e.into_inner()).len()
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
