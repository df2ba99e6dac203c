//! Copy-on-write heap snapshots.
//!
//! The differential campaign materializes one concrete frame per
//! (path, model) and then runs it under several engines that must all
//! start from bit-identical memory. Rebuilding the heap per engine is
//! O(heap); sealing it once and rolling back after each run is
//! O(words actually mutated by the run).
//!
//! The mechanism exploits an `ObjectMemory` invariant: words are only
//! ever written below `alloc_ptr`, so at seal time every committed word
//! at or beyond the allocation frontier is zero. A run can then be
//! undone by
//!
//! 1. re-zeroing `[sealed frontier, current frontier)` and truncating
//!    the commit back to its sealed length (undoes post-seal
//!    allocations),
//! 2. replaying a first-write-wins undo log of `(index, old word)`
//!    pairs for writes that landed *below* the sealed frontier,
//! 3. restoring the allocation pointer, hash counter, live set, class
//!    table length and external memory.
//!
//! [`Snapshot`] is an epoch-stamped token; restoring against a memory
//! whose seal has moved on (or was never taken) is a [`HeapError`]
//! (`StaleSnapshot` / `NotSealed`), not silent corruption.
//!
//! The same log lets a *twin* — a clone taken right after the seal —
//! catch up with the original without rebuilding anything:
//! `ObjectMemory::mirror_from` replays the original's undo-logged words,
//! its post-seal allocations and its class and external changes onto the
//! twin, at a cost of O(what the original changed). Every seal carries a
//! process-unique image id that clones share, so mirroring between heaps
//! that do not stand at the same sealed image is a [`HeapError`]
//! (`NotAtSharedSeal`), never a silent mix of two images.
//!
//! A level that a restore-to-outer retires is not freed: it stays
//! behind as the memory's [`Spare`], already clean (rollback clears
//! every dirty bit it set), and the next seal re-arms it — growing its
//! bitmap only when the frontier grew past what it covers. A replay
//! loop that pushes and retires one inner level per model therefore
//! allocates nothing once its buffers have grown.
//!
//! [`HeapError`]: crate::error::HeapError

use std::sync::atomic::{AtomicU64, Ordering};

/// An opaque, epoch-stamped token naming one sealed heap image.
///
/// Obtained from `ObjectMemory::seal` and consumed (by reference, any
/// number of times) by `ObjectMemory::restore`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Snapshot {
    pub(crate) epoch: u64,
}

impl Snapshot {
    /// The seal epoch this token was issued for (diagnostic only).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// Per-seal bookkeeping owned by a sealed `ObjectMemory`.
///
/// The dirty bitmap spans (at least) the words below the sealed
/// allocation frontier and dedupes undo-log entries so each word is
/// logged at most once between restores (first-write-wins: the logged
/// value is the sealed one). A level is re-armed rather than rebuilt
/// ([`SealState::arm`]): its buffers outlive the seal they served.
#[derive(Clone, Debug)]
pub(crate) struct SealState {
    pub(crate) epoch: u64,
    /// Process-unique id of the sealed image, shared by clones of the
    /// sealed memory: two heaps whose active seals carry the same id
    /// were one heap at seal time.
    pub(crate) image: u64,
    /// Sealed allocation pointer (byte address).
    pub(crate) alloc_ptr: u32,
    /// Sealed allocation frontier as a word index into `words`.
    pub(crate) frontier_idx: u32,
    /// Sealed committed length of the `words` vector.
    pub(crate) committed_len: usize,
    /// Sealed identity-hash counter.
    pub(crate) hash_counter: u32,
    /// Sealed class-table length.
    pub(crate) class_count: usize,
    dirty: Vec<u64>,
    undo: Vec<(u32, u32)>,
}

impl SealState {
    /// A level sealing the image these marks describe: `spare`
    /// re-armed if there is one, else a fresh box. Every level gets a
    /// new image id.
    pub(crate) fn arm(
        spare: Option<Box<SealState>>,
        epoch: u64,
        alloc_ptr: u32,
        frontier_idx: u32,
        committed_len: usize,
        hash_counter: u32,
        class_count: usize,
    ) -> Box<SealState> {
        // Ids only need to be unique, which `fetch_add` gives under
        // any ordering; they publish no other data.
        static NEXT_IMAGE: AtomicU64 = AtomicU64::new(1);
        let image = NEXT_IMAGE.fetch_add(1, Ordering::Relaxed);
        let bitmap_words = (frontier_idx as usize >> 6) + 1;
        let Some(mut seal) = spare else {
            return Box::new(SealState {
                epoch,
                image,
                alloc_ptr,
                frontier_idx,
                committed_len,
                hash_counter,
                class_count,
                dirty: vec![0; bitmap_words],
                undo: Vec::new(),
            });
        };
        debug_assert!(seal.undo.is_empty(), "a spare level is clean");
        // The bitmap is all zero; words past the frontier are never
        // consulted (`note` stops at the frontier first), so it only
        // has to grow.
        if seal.dirty.len() < bitmap_words {
            seal.dirty.resize(bitmap_words, 0);
        }
        *seal = SealState {
            epoch,
            image,
            alloc_ptr,
            frontier_idx,
            committed_len,
            hash_counter,
            class_count,
            dirty: std::mem::take(&mut seal.dirty),
            undo: std::mem::take(&mut seal.undo),
        };
        seal
    }

    /// Write barrier: records `old` as the sealed value of word `idx`
    /// the first time that word is overwritten after the seal. Writes
    /// at or beyond the sealed frontier need no log entry — restore
    /// re-zeroes that region wholesale.
    #[inline]
    pub(crate) fn note(&mut self, idx: usize, old: u32) {
        if (idx as u32) >= self.frontier_idx {
            return;
        }
        let word = idx >> 6;
        let bit = 1u64 << (idx & 63);
        if self.dirty[word] & bit == 0 {
            self.dirty[word] |= bit;
            self.undo.push((idx as u32, old));
        }
    }

    /// Number of distinct pre-frontier words dirtied since the last
    /// restore (or the seal).
    pub(crate) fn undo_len(&self) -> usize {
        self.undo.len()
    }

    /// The pre-frontier words dirtied since the last restore (or the
    /// seal), each once, in first-write order.
    pub(crate) fn dirtied(&self) -> impl Iterator<Item = usize> + '_ {
        self.undo.iter().map(|&(idx, _)| idx as usize)
    }

    /// Applies the undo log to `words` and resets the dirty tracking,
    /// returning how many words were rolled back.
    pub(crate) fn rollback(&mut self, words: &mut [u32]) -> usize {
        for &(idx, old) in self.undo.iter().rev() {
            words[idx as usize] = old;
        }
        self.forget()
    }

    /// Resets the dirty tracking without touching any word (the log
    /// has been applied or folded elsewhere), returning how many
    /// entries it held. The level is then clean enough to re-arm.
    pub(crate) fn forget(&mut self) -> usize {
        let n = self.undo.len();
        for &(idx, _) in &self.undo {
            self.dirty[idx as usize >> 6] &= !(1u64 << (idx as usize & 63));
        }
        self.undo.clear();
        n
    }

    /// Folds the undo log of a superseded *inner* seal into this
    /// (outer) one. The inner log holds the only record of
    /// sub-outer-frontier writes made while it was active; first-write
    /// wins, so entries this log already has keep their (older, hence
    /// correct) value. Entries at or beyond this seal's frontier are
    /// covered by the restore-time zero sweep and are dropped.
    pub(crate) fn absorb(&mut self, inner: &SealState) {
        for &(idx, old) in &inner.undo {
            if idx >= self.frontier_idx {
                continue;
            }
            let word = idx as usize >> 6;
            let bit = 1u64 << (idx as usize & 63);
            if self.dirty[word] & bit == 0 {
                self.dirty[word] |= bit;
                self.undo.push((idx, old));
            }
        }
    }
}

/// A retired seal level kept for the next seal to re-arm, clean: its
/// undo log is empty and its dirty bitmap all zero. A clone of the
/// owning memory starts without one, so cloning copies no scratch
/// buffers and a clone's next seal is boxed fresh.
#[derive(Debug)]
pub(crate) struct Spare<T>(Option<Box<T>>);

impl<T> Spare<T> {
    /// Takes the spare level, if any.
    pub(crate) fn take(&mut self) -> Option<Box<T>> {
        self.0.take()
    }

    /// Keeps `level` (which the caller has made clean) for re-arming.
    pub(crate) fn keep(&mut self, level: Box<T>) {
        self.0 = Some(level);
    }
}

impl<T> Default for Spare<T> {
    fn default() -> Self {
        Spare(None)
    }
}

impl<T> Clone for Spare<T> {
    fn clone(&self) -> Self {
        Spare(None)
    }
}
