//! The object memory: arena, headers, allocation and checked access.

use crate::class::{ClassDescription, ClassIndex, ClassTable};
use crate::error::{HeapError, HeapResult};
use crate::external::ExternalMemory;
use crate::format::ObjectFormat;
use crate::snapshot::{SealState, Snapshot};
use crate::tagged::{is_small_int_value, Oop};

/// Number of 32-bit header words before every object body:
/// `[class|format, element count, identity hash]`.
pub const HEADER_WORDS: u32 = 3;

const HEAP_BASE: u32 = 0x0001_0000;
const DEFAULT_HEAP_WORDS: usize = 1 << 18; // 1 MiB arena
const DEFAULT_EXTERNAL_BYTES: usize = 4096;
/// Words zero-committed up front; the rest of the arena is committed on
/// demand as allocation reaches it. The differential campaign builds a
/// fresh memory per materialized model, so eagerly zeroing the full
/// arena each time made memory bandwidth the sweep's bottleneck.
const INITIAL_COMMIT_WORDS: usize = 1 << 10;
/// Committed words kept beyond the allocation frontier so unchecked
/// reads just past the last object (the planted missing-type-check
/// defects read a "float payload" there) still see zeros, exactly as
/// they did when the whole arena was zeroed up front.
const COMMIT_MARGIN_WORDS: usize = 16;

/// The simulated 32-bit object memory.
///
/// Owns the heap arena, the class table, the three canonical objects
/// (`nil`, `false`, `true`) and the simulated external memory region.
/// All body accesses are bounds- and format-checked and report
/// [`HeapError`]s; *unchecked* raw word access (used by JIT-compiled
/// code running on the machine simulator) goes through
/// [`ObjectMemory::read_word_raw`] / [`ObjectMemory::write_word_raw`],
/// which only check arena bounds — mirroring how machine code sees
/// memory.
#[derive(Clone, Debug)]
pub struct ObjectMemory {
    words: Vec<u32>,
    capacity_words: usize,
    alloc_ptr: u32,
    classes: ClassTable,
    /// Addresses of live objects, sorted ascending. Allocation only
    /// ever moves `alloc_ptr` forward and restore only truncates, so
    /// plain pushes keep the order — and membership is a binary search
    /// instead of a hash probe on the checked-access hot path.
    live: Vec<u32>,
    hash_counter: u32,
    nil_obj: Oop,
    false_obj: Oop,
    true_obj: Oop,
    external: ExternalMemory,
    seal: Option<Box<SealState>>,
    outer: Option<Box<SealState>>,
    seal_epoch: u64,
}

/// Semantic equality: two memories are equal when every observable —
/// allocation frontier, live set, class table, object words, external
/// region, identity-hash counter — matches. Seal bookkeeping and how
/// much of the arena happens to be committed are not observable (all
/// uncommitted words read as zero), so trailing zero words are
/// insignificant.
impl PartialEq for ObjectMemory {
    fn eq(&self, other: &ObjectMemory) -> bool {
        fn trimmed(words: &[u32]) -> &[u32] {
            let mut n = words.len();
            while n > 0 && words[n - 1] == 0 {
                n -= 1;
            }
            &words[..n]
        }
        self.capacity_words == other.capacity_words
            && self.alloc_ptr == other.alloc_ptr
            && self.hash_counter == other.hash_counter
            && self.nil_obj == other.nil_obj
            && self.false_obj == other.false_obj
            && self.true_obj == other.true_obj
            && self.live == other.live
            && self.classes == other.classes
            && self.external == other.external
            && trimmed(&self.words) == trimmed(&other.words)
    }
}

impl Default for ObjectMemory {
    fn default() -> Self {
        Self::new()
    }
}

impl ObjectMemory {
    /// Creates a memory with the default arena size and well-known
    /// classes and instances installed.
    pub fn new() -> ObjectMemory {
        ObjectMemory::with_capacity(DEFAULT_HEAP_WORDS)
    }

    /// Creates a memory with an arena of `words` 32-bit words. The
    /// arena is committed (zeroed) lazily as allocation reaches it.
    pub fn with_capacity(words: usize) -> ObjectMemory {
        let mut mem = ObjectMemory {
            words: vec![0; words.min(INITIAL_COMMIT_WORDS)],
            capacity_words: words,
            alloc_ptr: HEAP_BASE,
            classes: ClassTable::with_well_known_classes(),
            live: Vec::new(),
            hash_counter: 0,
            nil_obj: Oop::ZERO,
            false_obj: Oop::ZERO,
            true_obj: Oop::ZERO,
            external: ExternalMemory::new(DEFAULT_EXTERNAL_BYTES),
            seal: None,
            outer: None,
            seal_epoch: 0,
        };
        mem.nil_obj = mem
            .allocate(ClassIndex::UNDEFINED_OBJECT, ObjectFormat::ZeroSized, 0)
            .expect("fresh heap cannot be full");
        mem.false_obj = mem
            .allocate(ClassIndex::FALSE, ObjectFormat::ZeroSized, 0)
            .expect("fresh heap cannot be full");
        mem.true_obj = mem
            .allocate(ClassIndex::TRUE, ObjectFormat::ZeroSized, 0)
            .expect("fresh heap cannot be full");
        mem
    }

    /// Returns the memory to the state of a freshly constructed one of
    /// the same capacity, reusing the arena buffer. Observably
    /// equivalent (`==`) to `ObjectMemory::with_capacity(capacity)`;
    /// callers that build one memory per exploration step reset a
    /// scratch instance instead of paying an allocation each time.
    pub fn reset(&mut self) {
        // Words at or beyond the allocation frontier are zero by
        // invariant (nothing writes past `alloc_ptr`, and restore
        // re-zeroes rolled-back allocations), so zeroing up to the
        // frontier leaves the whole committed buffer zero.
        let frontier = ((self.alloc_ptr - HEAP_BASE) / 4) as usize;
        let hi = frontier.min(self.words.len());
        self.words[..hi].fill(0);
        self.words.truncate(self.capacity_words.min(INITIAL_COMMIT_WORDS));
        self.alloc_ptr = HEAP_BASE;
        self.classes.truncate(ClassIndex::FIRST_USER.0 as usize);
        self.live.clear();
        self.hash_counter = 0;
        self.external.reset();
        self.seal = None;
        self.outer = None;
        self.seal_epoch = 0;
        self.nil_obj = self
            .allocate(ClassIndex::UNDEFINED_OBJECT, ObjectFormat::ZeroSized, 0)
            .expect("fresh heap cannot be full");
        self.false_obj = self
            .allocate(ClassIndex::FALSE, ObjectFormat::ZeroSized, 0)
            .expect("fresh heap cannot be full");
        self.true_obj = self
            .allocate(ClassIndex::TRUE, ObjectFormat::ZeroSized, 0)
            .expect("fresh heap cannot be full");
    }

    // ------------------------------------------------------------------
    // Canonical objects and class table
    // ------------------------------------------------------------------

    /// The `nil` object.
    pub fn nil(&self) -> Oop {
        self.nil_obj
    }

    /// The `false` object.
    pub fn false_object(&self) -> Oop {
        self.false_obj
    }

    /// The `true` object.
    pub fn true_object(&self) -> Oop {
        self.true_obj
    }

    /// Maps a Rust bool to the corresponding canonical object.
    pub fn bool_object(&self, value: bool) -> Oop {
        if value {
            self.true_obj
        } else {
            self.false_obj
        }
    }

    /// Read access to the class table.
    pub fn classes(&self) -> &ClassTable {
        &self.classes
    }

    /// Registers a user class.
    pub fn add_class(&mut self, desc: ClassDescription) -> ClassIndex {
        self.classes.add_class(desc)
    }

    /// The simulated external memory region.
    pub fn external(&self) -> &ExternalMemory {
        &self.external
    }

    /// Mutable access to the simulated external memory region.
    pub fn external_mut(&mut self) -> &mut ExternalMemory {
        &mut self.external
    }

    // ------------------------------------------------------------------
    // Snapshot / restore
    // ------------------------------------------------------------------

    /// Seals the current heap image and returns a token for
    /// [`ObjectMemory::restore`]. Sealing is O(frontier/64): it records
    /// the allocation high-water marks and arms a dirty-word bitmap;
    /// no heap contents are copied. A second `seal` supersedes all
    /// existing levels (their tokens become stale).
    pub fn seal(&mut self) -> Snapshot {
        self.seal_epoch += 1;
        let frontier_idx = (self.alloc_ptr - HEAP_BASE) / 4;
        self.seal = Some(Box::new(SealState::new(
            self.seal_epoch,
            self.alloc_ptr,
            frontier_idx,
            self.words.len(),
            self.hash_counter,
            self.classes.len(),
        )));
        self.outer = None;
        self.external.seal_in_place();
        Snapshot { epoch: self.seal_epoch }
    }

    /// Seals a second, *nested* level on top of the current seal, which
    /// moves to the outer slot (its token stays valid: restoring it
    /// rolls back through both levels and re-activates it). At most two
    /// levels exist — pushing while already nested folds the superseded
    /// inner log into the outer seal first. Errors when unsealed.
    ///
    /// This serves the replay loop's two reset horizons: an outer seal
    /// at the reusable blank image and an inner seal per materialized
    /// frame, restored between engine runs.
    pub fn push_seal(&mut self) -> HeapResult<Snapshot> {
        let prev = self.seal.take().ok_or(HeapError::NotSealed)?;
        match &mut self.outer {
            None => self.outer = Some(prev),
            Some(outer) => outer.absorb(&prev),
        }
        self.seal_epoch += 1;
        let frontier_idx = (self.alloc_ptr - HEAP_BASE) / 4;
        self.seal = Some(Box::new(SealState::new(
            self.seal_epoch,
            self.alloc_ptr,
            frontier_idx,
            self.words.len(),
            self.hash_counter,
            self.classes.len(),
        )));
        self.external.push_seal_in_place();
        Ok(Snapshot { epoch: self.seal_epoch })
    }

    /// Rolls the memory back to the sealed image `snap` names,
    /// returning the number of dirty units undone (heap words written
    /// below the sealed frontier + words allocated beyond it +
    /// external bytes). Cost is O(that number), not O(heap). The seal
    /// stays armed, so mutate/restore cycles can repeat indefinitely.
    ///
    /// Restoring the *outer* token of a nested pair rolls back through
    /// the inner level first, consumes it, and re-activates the outer
    /// seal (whose token stays usable; the inner one goes stale).
    pub fn restore(&mut self, snap: &Snapshot) -> HeapResult<usize> {
        let inner_epoch = self.seal.as_ref().map(|s| s.epoch).ok_or(HeapError::NotSealed)?;
        if inner_epoch == snap.epoch {
            let seal = self.seal.as_mut().expect("checked above");
            let mut dirty = apply_level_restore(
                seal,
                &mut self.words,
                &mut self.alloc_ptr,
                &mut self.hash_counter,
                &mut self.live,
                &mut self.classes,
            );
            dirty += self.external.restore_seal();
            return Ok(dirty);
        }
        match &self.outer {
            Some(outer) if outer.epoch == snap.epoch => {}
            _ => {
                return Err(HeapError::StaleSnapshot { expected: snap.epoch, actual: inner_epoch })
            }
        }
        // Restore-to-outer: the inner log holds the only record of
        // writes since the inner seal, so roll it back first, then
        // apply the outer level and promote it to the active seal.
        let mut inner = self.seal.take().expect("checked above");
        let mut dirty = apply_level_restore(
            &mut inner,
            &mut self.words,
            &mut self.alloc_ptr,
            &mut self.hash_counter,
            &mut self.live,
            &mut self.classes,
        );
        dirty += self.external.restore_seal();
        let mut outer = self.outer.take().expect("checked above");
        dirty += apply_level_restore(
            &mut outer,
            &mut self.words,
            &mut self.alloc_ptr,
            &mut self.hash_counter,
            &mut self.live,
            &mut self.classes,
        );
        dirty += self.external.restore_outer();
        self.seal = Some(outer);
        Ok(dirty)
    }

    /// Brings this memory, a twin standing exactly at `src`'s sealed
    /// image, up to `src`'s current contents: the pre-frontier words
    /// `src`'s undo log names, the words it allocated past the sealed
    /// frontier, its allocation pointer and hash counter, its live set,
    /// class table and external bytes. Cost is O(what `src` changed
    /// since the seal), not O(heap). The copied words go through this
    /// memory's own write barrier, so restoring its seal afterwards
    /// rolls the mirror back like any other run.
    ///
    /// The twin is a clone of `src` taken at the seal (they then share
    /// the seal's image id) that has not changed since; anything else —
    /// either memory unsealed, different images, a twin that has
    /// written, allocated or registered a class since its seal — is an
    /// error and leaves this memory untouched.
    pub fn mirror_from(&mut self, src: &ObjectMemory) -> HeapResult<()> {
        let (Some(from), Some(to)) = (src.seal.as_deref(), self.seal.as_deref()) else {
            return Err(HeapError::NotSealed);
        };
        let at_seal = to.undo_len() == 0
            && self.external.dirty_len() == 0
            && self.alloc_ptr == to.alloc_ptr
            && self.words.len() == to.committed_len
            && self.classes.len() == to.class_count
            && self.hash_counter == to.hash_counter;
        if from.image != to.image || !at_seal {
            return Err(HeapError::NotAtSharedSeal);
        }
        let seal = self.seal.as_deref_mut().expect("checked above");
        for idx in from.dirtied() {
            seal.note(idx, self.words[idx]);
            self.words[idx] = src.words[idx];
        }
        let frontier = from.frontier_idx as usize;
        let src_frontier = ((src.alloc_ptr - HEAP_BASE) / 4) as usize;
        self.words.resize(src.words.len(), 0);
        self.words[frontier..src_frontier].copy_from_slice(&src.words[frontier..src_frontier]);
        self.alloc_ptr = src.alloc_ptr;
        self.hash_counter = src.hash_counter;
        let sealed_live = src.live.partition_point(|&addr| addr < from.alloc_ptr);
        self.live.extend_from_slice(&src.live[sealed_live..]);
        self.classes.extend_from(&src.classes, from.class_count);
        self.external.mirror_from(&src.external);
        Ok(())
    }

    /// Drops the seal (both levels, with their dirty tracking) without
    /// restoring, leaving the current contents as-is. Outstanding
    /// tokens become unusable. Cloned replicas that will never be
    /// restored should unseal to shed the write-barrier bookkeeping.
    pub fn unseal(&mut self) {
        self.seal = None;
        self.outer = None;
        self.external.unseal();
    }

    /// Whether a seal is currently armed.
    pub fn is_sealed(&self) -> bool {
        self.seal.is_some()
    }

    /// Dirty units accumulated since the seal (or last restore):
    /// distinct pre-frontier heap words + external bytes written.
    /// 0 when unsealed.
    pub fn dirty_len(&self) -> usize {
        self.seal.as_ref().map_or(0, |s| s.undo_len()) + self.external.dirty_len()
    }

    /// Write barrier: every overwrite of an already-committed word goes
    /// through here so a seal can log the old value. Unsealed cost is
    /// one branch.
    #[inline]
    fn note_write(&mut self, idx: usize) {
        if let Some(seal) = &mut self.seal {
            seal.note(idx, self.words[idx]);
        }
    }

    // ------------------------------------------------------------------
    // Tag-level predicates (the interpreter's `objectMemory` protocol)
    // ------------------------------------------------------------------

    /// `areIntegers:and:` — both oops are tagged SmallIntegers.
    pub fn are_integers(&self, a: Oop, b: Oop) -> bool {
        a.is_small_int() && b.is_small_int()
    }

    /// `isIntegerObject:`.
    pub fn is_integer_object(&self, oop: Oop) -> bool {
        oop.is_small_int()
    }

    /// `isIntegerValue:` — the overflow check of Listing 1.
    pub fn is_integer_value(&self, value: i64) -> bool {
        is_small_int_value(value)
    }

    /// `integerValueOf:` — untag without checking (unsafe by design).
    pub fn integer_value_of(&self, oop: Oop) -> i64 {
        oop.small_int_value()
    }

    /// `integerObjectOf:` — tag a value known to be in range.
    pub fn integer_object_of(&self, value: i64) -> Oop {
        Oop::from_small_int(value)
    }

    // ------------------------------------------------------------------
    // Headers
    // ------------------------------------------------------------------

    /// Class index of any oop (SmallIntegers report their virtual class).
    pub fn class_index_of(&self, oop: Oop) -> ClassIndex {
        if oop.is_small_int() {
            return ClassIndex::SMALL_INTEGER;
        }
        match self.header0(oop) {
            Ok(h) => ClassIndex(h & 0x00ff_ffff),
            Err(_) => ClassIndex::INVALID,
        }
    }

    /// Format of a heap object.
    pub fn format_of(&self, oop: Oop) -> HeapResult<ObjectFormat> {
        let h = self.header0(oop)?;
        ObjectFormat::from_bits(h >> 24)
            .ok_or_else(|| HeapError::InvalidAddress { addr: oop.address() })
    }

    /// Element count: pointer slots, bytes, or words depending on format.
    pub fn element_count(&self, oop: Oop) -> HeapResult<u32> {
        let base = self.object_index(oop)?;
        Ok(self.words[base + 1])
    }

    /// Pointer-slot count; errors on non-pointer formats.
    pub fn slot_count(&self, oop: Oop) -> HeapResult<u32> {
        let fmt = self.format_of(oop)?;
        if !fmt.has_pointer_slots() && fmt != ObjectFormat::ZeroSized {
            return Err(HeapError::WrongFormat { oop });
        }
        self.element_count(oop)
    }

    /// Byte count of a byte-indexable object.
    pub fn byte_count(&self, oop: Oop) -> HeapResult<u32> {
        let fmt = self.format_of(oop)?;
        if !fmt.is_bytes() {
            return Err(HeapError::WrongFormat { oop });
        }
        self.element_count(oop)
    }

    /// The stored identity hash of a heap object.
    pub fn identity_hash(&self, oop: Oop) -> HeapResult<u32> {
        let base = self.object_index(oop)?;
        Ok(self.words[base + 2])
    }

    /// Whether this oop points at a live allocated object.
    pub fn is_live_object(&self, oop: Oop) -> bool {
        oop.is_pointer() && self.live.binary_search(&oop.address()).is_ok()
    }

    // ------------------------------------------------------------------
    // Allocation
    // ------------------------------------------------------------------

    /// Allocates an object of class `class` with `count` elements whose
    /// meaning depends on `format` (pointer slots, bytes or words).
    pub fn allocate(
        &mut self,
        class: ClassIndex,
        format: ObjectFormat,
        count: u32,
    ) -> HeapResult<Oop> {
        let body_words = match format {
            ObjectFormat::ZeroSized => 0,
            ObjectFormat::Fixed
            | ObjectFormat::Indexable
            | ObjectFormat::CompiledMethod
            | ObjectFormat::Words => count,
            ObjectFormat::Bytes => count.div_ceil(4),
            ObjectFormat::BoxedFloat64 => 2,
            ObjectFormat::ExternalAddress => 1,
        };
        let total = HEADER_WORDS + body_words;
        let addr = self.alloc_ptr;
        let end = addr as u64 + 4 * total as u64;
        let limit = HEAP_BASE as u64 + 4 * self.capacity_words as u64;
        if end > limit {
            return Err(HeapError::OutOfMemory);
        }
        self.alloc_ptr = end as u32;
        let base = ((addr - HEAP_BASE) / 4) as usize;
        let object_end = base + total as usize;
        if object_end + COMMIT_MARGIN_WORDS > self.words.len() {
            // Geometric growth, clamped to the arena capacity (the
            // limit check above guarantees the object itself fits).
            let target = (object_end + COMMIT_MARGIN_WORDS)
                .max(self.words.len() * 2)
                .min(self.capacity_words);
            self.words.resize(target, 0);
        }
        self.hash_counter = self.hash_counter.wrapping_add(0x9e37);
        // No write barrier: all of [base, object_end) sits at or past
        // any sealed frontier (alloc_ptr only grows), and restore
        // re-zeroes that region wholesale.
        self.words[base] = class.0 | (format.to_bits() << 24);
        self.words[base + 1] = match format {
            ObjectFormat::BoxedFloat64 => 2,
            ObjectFormat::ExternalAddress => 1,
            _ => count,
        };
        self.words[base + 2] = self.hash_counter & 0x3fff_ffff;
        let nil = self.nil_obj;
        if format.has_pointer_slots() {
            for i in 0..count as usize {
                self.words[base + HEADER_WORDS as usize + i] = nil.0;
            }
        } else {
            for i in 0..body_words as usize {
                self.words[base + HEADER_WORDS as usize + i] = 0;
            }
        }
        let oop = Oop::from_address(addr);
        debug_assert!(self.live.last().is_none_or(|&l| l < addr));
        self.live.push(addr);
        Ok(oop)
    }

    /// Allocates an `Array` populated from `elements`.
    pub fn instantiate_array(&mut self, elements: &[Oop]) -> HeapResult<Oop> {
        let arr = self.allocate(ClassIndex::ARRAY, ObjectFormat::Indexable, elements.len() as u32)?;
        for (i, &e) in elements.iter().enumerate() {
            self.store_pointer(arr, i as u32, e)?;
        }
        Ok(arr)
    }

    /// Allocates a byte object of class `class` populated from `bytes`.
    pub fn instantiate_bytes(&mut self, class: ClassIndex, bytes: &[u8]) -> HeapResult<Oop> {
        let obj = self.allocate(class, ObjectFormat::Bytes, bytes.len() as u32)?;
        for (i, &b) in bytes.iter().enumerate() {
            self.store_byte(obj, i as u32, b)?;
        }
        Ok(obj)
    }

    /// Allocates a boxed float.
    pub fn instantiate_float(&mut self, value: f64) -> HeapResult<Oop> {
        let obj = self.allocate(ClassIndex::FLOAT, ObjectFormat::BoxedFloat64, 2)?;
        let bits = value.to_bits();
        let base = self.object_index(obj)?;
        self.note_write(base + HEADER_WORDS as usize);
        self.note_write(base + HEADER_WORDS as usize + 1);
        self.words[base + HEADER_WORDS as usize] = bits as u32;
        self.words[base + HEADER_WORDS as usize + 1] = (bits >> 32) as u32;
        Ok(obj)
    }

    /// Allocates an external-address handle pointing at `addr` in the
    /// simulated external memory.
    pub fn instantiate_external_address(&mut self, addr: u32) -> HeapResult<Oop> {
        let obj = self.allocate(ClassIndex::EXTERNAL_ADDRESS, ObjectFormat::ExternalAddress, 1)?;
        let base = self.object_index(obj)?;
        self.note_write(base + HEADER_WORDS as usize);
        self.words[base + HEADER_WORDS as usize] = addr;
        Ok(obj)
    }

    /// Reads the payload of a boxed float.
    pub fn float_value_of(&self, oop: Oop) -> HeapResult<f64> {
        if self.format_of(oop)? != ObjectFormat::BoxedFloat64 {
            return Err(HeapError::WrongFormat { oop });
        }
        let base = self.object_index(oop)?;
        let lo = self.words[base + HEADER_WORDS as usize] as u64;
        let hi = self.words[base + HEADER_WORDS as usize + 1] as u64;
        Ok(f64::from_bits(lo | (hi << 32)))
    }

    /// Reads a float payload *without* checking the receiver's format —
    /// the unchecked unboxing JIT-compiled float primitives perform when
    /// their type check was omitted (the paper's §5.3 defect family).
    pub fn float_value_unchecked(&self, oop: Oop) -> HeapResult<f64> {
        let base = self.object_index(oop)?;
        let n = self.words.len();
        let lo_i = base + HEADER_WORDS as usize;
        if lo_i + 1 >= n {
            return Err(HeapError::InvalidAddress { addr: oop.address() });
        }
        let lo = self.words[lo_i] as u64;
        let hi = self.words[lo_i + 1] as u64;
        Ok(f64::from_bits(lo | (hi << 32)))
    }

    /// Reads the address stored in an external-address handle.
    pub fn external_address_of(&self, oop: Oop) -> HeapResult<u32> {
        if self.format_of(oop)? != ObjectFormat::ExternalAddress {
            return Err(HeapError::WrongFormat { oop });
        }
        let base = self.object_index(oop)?;
        Ok(self.words[base + HEADER_WORDS as usize])
    }

    // ------------------------------------------------------------------
    // Checked body access
    // ------------------------------------------------------------------

    /// Reads pointer slot `index` (0-based) of a pointer-format object.
    pub fn fetch_pointer(&self, oop: Oop, index: u32) -> HeapResult<Oop> {
        let fmt = self.format_of(oop)?;
        if !fmt.has_pointer_slots() {
            return Err(HeapError::WrongFormat { oop });
        }
        let size = self.element_count(oop)?;
        if index >= size {
            return Err(HeapError::OutOfBoundsSlot { oop, index, size });
        }
        let base = self.object_index(oop)?;
        Ok(Oop(self.words[base + HEADER_WORDS as usize + index as usize]))
    }

    /// Writes pointer slot `index` (0-based) of a pointer-format object.
    pub fn store_pointer(&mut self, oop: Oop, index: u32, value: Oop) -> HeapResult<()> {
        let fmt = self.format_of(oop)?;
        if !fmt.has_pointer_slots() {
            return Err(HeapError::WrongFormat { oop });
        }
        let size = self.element_count(oop)?;
        if index >= size {
            return Err(HeapError::OutOfBoundsSlot { oop, index, size });
        }
        let base = self.object_index(oop)?;
        self.note_write(base + HEADER_WORDS as usize + index as usize);
        self.words[base + HEADER_WORDS as usize + index as usize] = value.0;
        Ok(())
    }

    /// Reads byte `index` (0-based) of a byte-format object.
    pub fn fetch_byte(&self, oop: Oop, index: u32) -> HeapResult<u8> {
        let size = self.byte_count(oop)?;
        if index >= size {
            return Err(HeapError::OutOfBoundsSlot { oop, index, size });
        }
        let base = self.object_index(oop)?;
        let w = self.words[base + HEADER_WORDS as usize + (index / 4) as usize];
        Ok((w >> (8 * (index % 4))) as u8)
    }

    /// Writes byte `index` (0-based) of a byte-format object.
    pub fn store_byte(&mut self, oop: Oop, index: u32, value: u8) -> HeapResult<()> {
        let size = self.byte_count(oop)?;
        if index >= size {
            return Err(HeapError::OutOfBoundsSlot { oop, index, size });
        }
        let base = self.object_index(oop)?;
        let wi = base + HEADER_WORDS as usize + (index / 4) as usize;
        let shift = 8 * (index % 4);
        self.note_write(wi);
        self.words[wi] = (self.words[wi] & !(0xffu32 << shift)) | (u32::from(value) << shift);
        Ok(())
    }

    /// Reads 32-bit word element `index` of a word-format object.
    pub fn fetch_word(&self, oop: Oop, index: u32) -> HeapResult<u32> {
        if self.format_of(oop)? != ObjectFormat::Words {
            return Err(HeapError::WrongFormat { oop });
        }
        let size = self.element_count(oop)?;
        if index >= size {
            return Err(HeapError::OutOfBoundsSlot { oop, index, size });
        }
        let base = self.object_index(oop)?;
        Ok(self.words[base + HEADER_WORDS as usize + index as usize])
    }

    /// Writes 32-bit word element `index` of a word-format object.
    pub fn store_word(&mut self, oop: Oop, index: u32, value: u32) -> HeapResult<()> {
        if self.format_of(oop)? != ObjectFormat::Words {
            return Err(HeapError::WrongFormat { oop });
        }
        let size = self.element_count(oop)?;
        if index >= size {
            return Err(HeapError::OutOfBoundsSlot { oop, index, size });
        }
        let base = self.object_index(oop)?;
        self.note_write(base + HEADER_WORDS as usize + index as usize);
        self.words[base + HEADER_WORDS as usize + index as usize] = value;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Raw access (machine-code view of memory)
    // ------------------------------------------------------------------

    /// Lowest mapped heap byte address.
    pub fn heap_base(&self) -> u32 {
        HEAP_BASE
    }

    /// One past the highest *allocated* heap byte address.
    pub fn heap_limit(&self) -> u32 {
        self.alloc_ptr
    }

    /// Raw word read with only arena bounds checking — how JIT-compiled
    /// code sees memory on the machine simulator.
    pub fn read_word_raw(&self, addr: u32) -> HeapResult<u32> {
        if !addr.is_multiple_of(4) || addr < HEAP_BASE || addr >= self.alloc_ptr {
            return Err(HeapError::InvalidAddress { addr });
        }
        Ok(self.words[((addr - HEAP_BASE) / 4) as usize])
    }

    /// Raw word write with only arena bounds checking.
    pub fn write_word_raw(&mut self, addr: u32, value: u32) -> HeapResult<()> {
        if !addr.is_multiple_of(4) || addr < HEAP_BASE || addr >= self.alloc_ptr {
            return Err(HeapError::InvalidAddress { addr });
        }
        self.note_write(((addr - HEAP_BASE) / 4) as usize);
        self.words[((addr - HEAP_BASE) / 4) as usize] = value;
        Ok(())
    }

    fn object_index(&self, oop: Oop) -> HeapResult<usize> {
        if oop.is_small_int() {
            return Err(HeapError::NotAPointer { oop });
        }
        let addr = oop.address();
        if self.live.binary_search(&addr).is_err() {
            return Err(HeapError::InvalidAddress { addr });
        }
        Ok(((addr - HEAP_BASE) / 4) as usize)
    }

    fn header0(&self, oop: Oop) -> HeapResult<u32> {
        let base = self.object_index(oop)?;
        Ok(self.words[base])
    }
}

/// Rolls one seal level back over the heap-side state (the external
/// region restores separately), returning the dirty words undone. A
/// free function over disjoint fields so `restore` can apply it to the
/// inner and outer levels in sequence.
fn apply_level_restore(
    seal: &mut SealState,
    words: &mut Vec<u32>,
    alloc_ptr: &mut u32,
    hash_counter: &mut u32,
    live: &mut Vec<u32>,
    classes: &mut ClassTable,
) -> usize {
    let mut dirty = 0usize;
    // Undo post-seal allocations: words at or beyond the sealed
    // frontier were zero at seal time (nothing writes beyond
    // `alloc_ptr`), so re-zero up to the current frontier and drop
    // any commit growth. Truncated words need no zeroing — recommit
    // via `Vec::resize` zero-fills them again.
    let frontier = seal.frontier_idx as usize;
    let cur_frontier = ((*alloc_ptr - HEAP_BASE) / 4) as usize;
    let hi = cur_frontier.min(seal.committed_len).min(words.len());
    if hi > frontier {
        for w in &mut words[frontier..hi] {
            *w = 0;
        }
        dirty += hi - frontier;
    }
    words.truncate(seal.committed_len);
    dirty += seal.rollback(words);
    *alloc_ptr = seal.alloc_ptr;
    *hash_counter = seal.hash_counter;
    let sealed_frontier_addr = seal.alloc_ptr;
    live.truncate(live.partition_point(|&addr| addr < sealed_frontier_addr));
    classes.truncate(seal.class_count);
    dirty
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn canonical_objects_have_expected_classes() {
        let mem = ObjectMemory::new();
        assert_eq!(mem.class_index_of(mem.nil()), ClassIndex::UNDEFINED_OBJECT);
        assert_eq!(mem.class_index_of(mem.false_object()), ClassIndex::FALSE);
        assert_eq!(mem.class_index_of(mem.true_object()), ClassIndex::TRUE);
        assert_eq!(mem.bool_object(true), mem.true_object());
        assert_eq!(mem.bool_object(false), mem.false_object());
    }

    #[test]
    fn small_int_class_is_virtual() {
        let mem = ObjectMemory::new();
        assert_eq!(
            mem.class_index_of(Oop::from_small_int(7)),
            ClassIndex::SMALL_INTEGER
        );
    }

    #[test]
    fn array_allocation_and_access() {
        let mut mem = ObjectMemory::new();
        let a = mem.instantiate_array(&[Oop::from_small_int(1), Oop::from_small_int(2)]).unwrap();
        assert_eq!(mem.slot_count(a).unwrap(), 2);
        assert_eq!(mem.fetch_pointer(a, 1).unwrap().small_int_value(), 2);
        mem.store_pointer(a, 0, Oop::from_small_int(9)).unwrap();
        assert_eq!(mem.fetch_pointer(a, 0).unwrap().small_int_value(), 9);
    }

    #[test]
    fn out_of_bounds_slot_access_errors() {
        let mut mem = ObjectMemory::new();
        let a = mem.instantiate_array(&[Oop::from_small_int(1)]).unwrap();
        assert_eq!(
            mem.fetch_pointer(a, 1),
            Err(HeapError::OutOfBoundsSlot { oop: a, index: 1, size: 1 })
        );
        assert!(mem.store_pointer(a, 5, Oop::from_small_int(0)).is_err());
    }

    #[test]
    fn byte_object_roundtrip() {
        let mut mem = ObjectMemory::new();
        let b = mem.instantiate_bytes(ClassIndex::BYTE_ARRAY, &[10, 20, 30, 40, 50]).unwrap();
        assert_eq!(mem.byte_count(b).unwrap(), 5);
        for (i, v) in [10u8, 20, 30, 40, 50].iter().enumerate() {
            assert_eq!(mem.fetch_byte(b, i as u32).unwrap(), *v);
        }
        mem.store_byte(b, 4, 99).unwrap();
        assert_eq!(mem.fetch_byte(b, 4).unwrap(), 99);
        assert!(mem.fetch_byte(b, 5).is_err());
    }

    #[test]
    fn float_boxing_roundtrip() {
        let mut mem = ObjectMemory::new();
        for v in [0.0, -1.5, 3.25, f64::MAX, f64::MIN_POSITIVE] {
            let f = mem.instantiate_float(v).unwrap();
            assert_eq!(mem.float_value_of(f).unwrap(), v);
            assert_eq!(mem.class_index_of(f), ClassIndex::FLOAT);
        }
    }

    #[test]
    fn unchecked_float_unboxing_garbage() {
        // The hazard behind the "missing compiled type check" defects:
        // unboxing a non-float object yields garbage, not an error.
        let mut mem = ObjectMemory::new();
        let a = mem.instantiate_array(&[Oop::from_small_int(1), Oop::from_small_int(2)]).unwrap();
        let garbage = mem.float_value_unchecked(a).unwrap();
        let real = mem.instantiate_float(1.5).unwrap();
        assert_ne!(garbage, mem.float_value_of(real).unwrap());
        assert!(mem.float_value_of(a).is_err());
    }

    #[test]
    fn wrong_format_accesses_error() {
        let mut mem = ObjectMemory::new();
        let b = mem.instantiate_bytes(ClassIndex::BYTE_ARRAY, &[1, 2, 3]).unwrap();
        assert!(mem.fetch_pointer(b, 0).is_err());
        let a = mem.instantiate_array(&[]).unwrap();
        assert!(mem.fetch_byte(a, 0).is_err());
        assert!(mem.fetch_word(a, 0).is_err());
    }

    #[test]
    fn word_object_roundtrip() {
        let mut mem = ObjectMemory::new();
        let w = mem.allocate(ClassIndex::WORD_ARRAY, ObjectFormat::Words, 3).unwrap();
        mem.store_word(w, 2, 0xdead_beef).unwrap();
        assert_eq!(mem.fetch_word(w, 2).unwrap(), 0xdead_beef);
        assert!(mem.fetch_word(w, 3).is_err());
    }

    #[test]
    fn identity_hashes_are_distinct_and_stable() {
        let mut mem = ObjectMemory::new();
        let a = mem.instantiate_array(&[]).unwrap();
        let b = mem.instantiate_array(&[]).unwrap();
        assert_ne!(mem.identity_hash(a).unwrap(), mem.identity_hash(b).unwrap());
        assert_eq!(mem.identity_hash(a).unwrap(), mem.identity_hash(a).unwrap());
    }

    #[test]
    fn external_address_objects() {
        let mut mem = ObjectMemory::new();
        let h = mem.instantiate_external_address(0x40).unwrap();
        assert_eq!(mem.external_address_of(h).unwrap(), 0x40);
        assert_eq!(mem.class_index_of(h), ClassIndex::EXTERNAL_ADDRESS);
        let a = mem.instantiate_array(&[]).unwrap();
        assert!(mem.external_address_of(a).is_err());
    }

    #[test]
    fn raw_access_respects_arena_bounds() {
        let mut mem = ObjectMemory::new();
        let a = mem.instantiate_array(&[Oop::from_small_int(3)]).unwrap();
        let body = a.address() + 4 * HEADER_WORDS;
        assert_eq!(mem.read_word_raw(body).unwrap(), Oop::from_small_int(3).0);
        assert!(mem.read_word_raw(2).is_err(), "below heap base");
        assert!(mem.read_word_raw(mem.heap_limit()).is_err(), "above allocations");
        assert!(mem.read_word_raw(body + 1).is_err(), "misaligned");
        assert!(mem.write_word_raw(0xffff_fffc, 0).is_err());
    }

    #[test]
    fn out_of_memory_is_reported() {
        let mut mem = ObjectMemory::with_capacity(32);
        let mut last = Ok(Oop::ZERO);
        for _ in 0..100 {
            last = mem.allocate(ClassIndex::ARRAY, ObjectFormat::Indexable, 4);
            if last.is_err() {
                break;
            }
        }
        assert_eq!(last, Err(HeapError::OutOfMemory));
    }

    #[test]
    fn reset_is_indistinguishable_from_fresh() {
        let mut mem = ObjectMemory::new();
        let a = mem.instantiate_array(&[Oop::from_small_int(1), Oop::from_small_int(2)]).unwrap();
        mem.store_pointer(a, 0, Oop::from_small_int(9)).unwrap();
        mem.instantiate_float(2.5).unwrap();
        mem.add_class(ClassDescription {
            name: "Scratch".into(),
            instance_format: ObjectFormat::Fixed,
            fixed_slots: 1,
        });
        mem.external_mut().write_uint(0, 4, 0xdead_beef).unwrap();
        let snap = mem.seal();
        mem.instantiate_array(&[Oop::from_small_int(7)]).unwrap();
        mem.restore(&snap).unwrap();
        mem.instantiate_bytes(ClassIndex::BYTE_ARRAY, b"hello").unwrap();

        mem.reset();
        let fresh = ObjectMemory::new();
        assert_eq!(mem, fresh);
        assert_eq!(mem.nil(), fresh.nil());
        assert_eq!(mem.true_object(), fresh.true_object());
        assert!(!mem.is_live_object(a));
        // Allocation after reset replays the fresh sequence exactly
        // (addresses and identity hashes included).
        let mut fresh = fresh;
        let x = mem.instantiate_array(&[Oop::from_small_int(3)]).unwrap();
        let y = fresh.instantiate_array(&[Oop::from_small_int(3)]).unwrap();
        assert_eq!(x, y);
        assert_eq!(mem, fresh);
    }

    #[test]
    fn dead_addresses_are_not_objects() {
        let mem = ObjectMemory::new();
        let bogus = Oop::from_address(mem.heap_limit() + 0x100);
        assert!(!mem.is_live_object(bogus));
        assert!(mem.fetch_pointer(bogus, 0).is_err());
        assert!(mem.format_of(bogus).is_err());
    }

    #[test]
    fn seal_restore_undoes_mutation_and_allocation() {
        let mut mem = ObjectMemory::new();
        let a = mem.instantiate_array(&[Oop::from_small_int(1), Oop::from_small_int(2)]).unwrap();
        let f = mem.instantiate_float(1.5).unwrap();
        mem.external_mut().write_uint(0, 4, 0x1234).unwrap();
        let baseline = mem.clone();
        let snap = mem.seal();

        // Mutate existing objects, allocate new ones, register a class,
        // touch external memory.
        mem.store_pointer(a, 0, Oop::from_small_int(99)).unwrap();
        let b = mem.instantiate_array(&[Oop::from_small_int(7)]).unwrap();
        let g = mem.instantiate_float(2.5).unwrap();
        mem.add_class(ClassDescription {
            name: "Scratch".into(),
            instance_format: ObjectFormat::Fixed,
            fixed_slots: 1,
        });
        mem.external_mut().write_uint(0, 4, 0xdead_beef).unwrap();
        assert!(mem.dirty_len() > 0);

        let dirty = mem.restore(&snap).unwrap();
        assert!(dirty > 0);
        assert_eq!(mem, baseline);
        assert_eq!(mem.fetch_pointer(a, 0).unwrap().small_int_value(), 1);
        assert_eq!(mem.float_value_of(f).unwrap(), 1.5);
        assert_eq!(mem.external().read_uint(0, 4).unwrap(), 0x1234);
        assert!(!mem.is_live_object(b));
        assert!(!mem.is_live_object(g));
        assert_eq!(mem.classes().len(), baseline.classes().len());

        // Replayed allocation is bit-identical to the post-seal one
        // (same address, same identity hash).
        let b2 = mem.instantiate_array(&[Oop::from_small_int(7)]).unwrap();
        assert_eq!(b2, b);
        mem.restore(&snap).unwrap();
        assert_eq!(mem, baseline);
    }

    #[test]
    fn restore_is_repeatable_across_many_rounds() {
        let mut mem = ObjectMemory::new();
        let a = mem.instantiate_array(&[Oop::from_small_int(5)]).unwrap();
        let baseline = mem.clone();
        let snap = mem.seal();
        for round in 0..10 {
            mem.store_pointer(a, 0, Oop::from_small_int(round)).unwrap();
            let w = mem.allocate(ClassIndex::WORD_ARRAY, ObjectFormat::Words, 4).unwrap();
            mem.store_word(w, 1, 0xabcd).unwrap();
            mem.restore(&snap).unwrap();
            assert_eq!(mem, baseline);
        }
    }

    #[test]
    fn stale_and_missing_seals_error() {
        let mut mem = ObjectMemory::new();
        let snap = mem.seal();
        let snap2 = mem.seal();
        assert_eq!(
            mem.restore(&snap),
            Err(HeapError::StaleSnapshot { expected: snap.epoch(), actual: snap2.epoch() })
        );
        assert!(mem.restore(&snap2).is_ok());
        mem.unseal();
        assert!(!mem.is_sealed());
        assert_eq!(mem.restore(&snap2), Err(HeapError::NotSealed));
    }

    #[test]
    fn raw_writes_are_restored() {
        let mut mem = ObjectMemory::new();
        let a = mem.instantiate_array(&[Oop::from_small_int(3)]).unwrap();
        let baseline = mem.clone();
        let snap = mem.seal();
        let body = a.address() + 4 * HEADER_WORDS;
        mem.write_word_raw(body, 0xffff_ffff).unwrap();
        assert_eq!(mem.restore(&snap).unwrap(), 1);
        assert_eq!(mem, baseline);
    }

    #[test]
    fn restore_cost_tracks_mutations_not_heap_size() {
        let mut mem = ObjectMemory::new();
        let a = mem.instantiate_array(&vec![Oop::from_small_int(0); 200]).unwrap();
        let snap = mem.seal();
        // Write the same slot repeatedly: first-write-wins dedup means
        // one undo entry, so restore reports exactly one dirty word.
        for v in 0..50 {
            mem.store_pointer(a, 7, Oop::from_small_int(v)).unwrap();
        }
        assert_eq!(mem.dirty_len(), 1);
        assert_eq!(mem.restore(&snap).unwrap(), 1);
    }

    #[test]
    fn nested_seal_restores_both_levels() {
        let mut mem = ObjectMemory::new();
        let a = mem.instantiate_array(&[Oop::from_small_int(1)]).unwrap();
        let blank = mem.clone();
        let outer = mem.seal();
        // Writes while only the outer seal is armed.
        mem.store_pointer(a, 0, Oop::from_small_int(2)).unwrap();
        let b = mem.instantiate_array(&[Oop::from_small_int(7)]).unwrap();
        mem.external_mut().write_uint(0, 2, 0x1234).unwrap();
        let mid = mem.clone();
        let inner = mem.push_seal().unwrap();
        // Inner mutate/restore cycles roll back to the mid image,
        // including writes landing below the *outer* frontier.
        for round in 0..5 {
            mem.store_pointer(a, 0, Oop::from_small_int(round)).unwrap();
            mem.store_pointer(b, 0, Oop::from_small_int(-round)).unwrap();
            let _ = mem.instantiate_float(0.5 * round as f64);
            mem.external_mut().write_uint(0, 4, 0xdead_beef).unwrap();
            mem.restore(&inner).unwrap();
            assert_eq!(mem, mid);
        }
        // Restore-to-outer rolls back through both levels…
        mem.store_pointer(a, 0, Oop::from_small_int(42)).unwrap();
        mem.restore(&outer).unwrap();
        assert_eq!(mem, blank);
        // …and re-activates the outer seal: the inner token goes
        // stale, the outer one keeps working (a fresh round of
        // mutate + push + restore-to-outer is legal).
        assert!(mem.restore(&inner).is_err());
        mem.store_pointer(a, 0, Oop::from_small_int(9)).unwrap();
        let inner2 = mem.push_seal().unwrap();
        let _ = mem.instantiate_array(&[]).unwrap();
        mem.restore(&inner2).unwrap();
        mem.restore(&outer).unwrap();
        assert_eq!(mem, blank);
    }

    #[test]
    fn push_seal_twice_absorbs_the_superseded_inner() {
        let mut mem = ObjectMemory::new();
        let a = mem
            .instantiate_array(&[Oop::from_small_int(1), Oop::from_small_int(2)])
            .unwrap();
        let blank = mem.clone();
        let outer = mem.seal();
        mem.store_pointer(a, 0, Oop::from_small_int(10)).unwrap();
        let inner1 = mem.push_seal().unwrap();
        // Sub-outer-frontier writes recorded only by the first inner
        // log — they must survive into the outer log when superseded.
        mem.store_pointer(a, 1, Oop::from_small_int(20)).unwrap();
        mem.external_mut().write_uint(0, 4, 0xabcd).unwrap();
        let inner2 = mem.push_seal().unwrap();
        assert!(mem.restore(&inner1).is_err(), "superseded inner token is stale");
        mem.store_pointer(a, 0, Oop::from_small_int(30)).unwrap();
        mem.restore(&inner2).unwrap();
        assert_eq!(mem.fetch_pointer(a, 0).unwrap().small_int_value(), 10);
        assert_eq!(mem.fetch_pointer(a, 1).unwrap().small_int_value(), 20);
        assert_eq!(mem.external().read_uint(0, 4).unwrap(), 0xabcd);
        mem.restore(&outer).unwrap();
        assert_eq!(mem, blank);
    }

    #[test]
    fn push_seal_requires_a_seal_and_full_seal_supersedes_nesting() {
        let mut mem = ObjectMemory::new();
        assert_eq!(mem.push_seal().unwrap_err(), HeapError::NotSealed);
        let outer = mem.seal();
        let _inner = mem.push_seal().unwrap();
        let fresh = mem.seal();
        assert!(mem.restore(&outer).is_err(), "full seal staled the outer token");
        assert!(mem.restore(&fresh).is_ok());
    }

    proptest! {
        /// Restore-from-snapshot must be indistinguishable from never
        /// having run: arbitrary interleavings of slot stores, raw
        /// writes, allocations, float boxing, external writes and
        /// nested restores always roll back to the sealed image.
        #[test]
        fn prop_mutate_restore_roundtrip(
            ops in proptest::collection::vec((0u8..6, any::<u16>(), any::<u16>()), 0..48),
            restore_every in 1usize..8,
        ) {
            let mut mem = ObjectMemory::new();
            let arr = mem.instantiate_array(
                &(0..8).map(Oop::from_small_int).collect::<Vec<_>>()).unwrap();
            let bytes = mem.instantiate_bytes(ClassIndex::BYTE_ARRAY, &[0; 16]).unwrap();
            let baseline = mem.clone();
            let snap = mem.seal();
            for (i, &(op, x, y)) in ops.iter().enumerate() {
                match op {
                    0 => { let _ = mem.store_pointer(arr, u32::from(x) % 8, Oop::from_small_int(i64::from(y))); }
                    1 => { let _ = mem.store_byte(bytes, u32::from(x) % 16, y as u8); }
                    2 => { let _ = mem.instantiate_array(&[Oop::from_small_int(i64::from(x))]); }
                    3 => { let _ = mem.instantiate_float(f64::from(x) + f64::from(y) / 7.0); }
                    4 => { let _ = mem.external_mut().write_uint(u32::from(x) % 64, 4, u32::from(y)); }
                    _ => {
                        let body = arr.address() + 4 * HEADER_WORDS + 4 * (u32::from(x) % 8);
                        let _ = mem.write_word_raw(body, u32::from(y));
                    }
                }
                if i % restore_every == 0 {
                    mem.restore(&snap).unwrap();
                    prop_assert_eq!(&mem, &baseline);
                }
            }
            mem.restore(&snap).unwrap();
            prop_assert_eq!(&mem, &baseline);
        }
    }

    proptest! {
        #[test]
        fn prop_bytes_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..64)) {
            let mut mem = ObjectMemory::new();
            let b = mem.instantiate_bytes(ClassIndex::BYTE_ARRAY, &data).unwrap();
            prop_assert_eq!(mem.byte_count(b).unwrap() as usize, data.len());
            for (i, &v) in data.iter().enumerate() {
                prop_assert_eq!(mem.fetch_byte(b, i as u32).unwrap(), v);
            }
        }

        #[test]
        fn prop_array_store_fetch(vals in proptest::collection::vec(-1000i64..1000, 1..32),
                                  idx in 0usize..32) {
            let mut mem = ObjectMemory::new();
            let oops: Vec<Oop> = vals.iter().map(|&v| Oop::from_small_int(v)).collect();
            let a = mem.instantiate_array(&oops).unwrap();
            if idx < vals.len() {
                prop_assert_eq!(mem.fetch_pointer(a, idx as u32).unwrap(), oops[idx]);
            } else {
                prop_assert!(mem.fetch_pointer(a, idx as u32).is_err());
            }
        }

        #[test]
        fn prop_float_roundtrip(v in any::<f64>()) {
            let mut mem = ObjectMemory::new();
            let f = mem.instantiate_float(v).unwrap();
            let back = mem.float_value_of(f).unwrap();
            prop_assert_eq!(v.to_bits(), back.to_bits());
        }
    }
}
