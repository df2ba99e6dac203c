//! Simulated external (non-heap) memory.
//!
//! The paper's *missing functionality* defect family concerns FFI
//! native methods that read and write raw external memory. We have no
//! real FFI, so the substrate provides a bounded, deterministic byte
//! region standing in for "memory outside the object heap". The
//! interpreter's FFI primitives operate on it; the 32-bit template
//! compiler never learned to (that is the planted defect).

use crate::error::{HeapError, HeapResult};
use crate::snapshot::Spare;

/// A bounded external memory region addressed from 0.
#[derive(Clone, Debug)]
pub struct ExternalMemory {
    bytes: Vec<u8>,
    seal: Option<Box<ExtSeal>>,
    outer: Option<Box<ExtSeal>>,
    /// The inner level the last restore-to-outer retired, re-armed by
    /// the next seal.
    spare: Spare<ExtSeal>,
}

/// Byte-granular dirty tracking for a sealed region. The region never
/// resizes, so a first-write-wins undo log of `(addr, old byte)` pairs
/// (deduped through a bitmap) is all restore needs.
#[derive(Clone, Debug)]
struct ExtSeal {
    dirty: Vec<u64>,
    undo: Vec<(u32, u8)>,
}

impl ExtSeal {
    /// Applies the undo log to `bytes` and resets the dirty tracking,
    /// returning how many bytes were rolled back.
    fn rollback(&mut self, bytes: &mut [u8]) -> usize {
        for &(addr, old) in self.undo.iter().rev() {
            bytes[addr as usize] = old;
        }
        self.forget()
    }

    /// Resets the dirty tracking without touching any byte, returning
    /// how many entries it held; the level is then clean to re-arm.
    fn forget(&mut self) -> usize {
        let n = self.undo.len();
        for &(addr, _) in &self.undo {
            self.dirty[addr as usize >> 6] &= !(1u64 << (addr as usize & 63));
        }
        self.undo.clear();
        n
    }

    /// Folds a superseded inner seal's undo log into this (outer) one;
    /// first-write wins, so entries this log already has keep their
    /// older value.
    fn absorb(&mut self, inner: &ExtSeal) {
        for &(addr, old) in &inner.undo {
            let word = addr as usize >> 6;
            let bit = 1u64 << (addr as usize & 63);
            if self.dirty[word] & bit == 0 {
                self.dirty[word] |= bit;
                self.undo.push((addr, old));
            }
        }
    }
}

/// Two regions are equal when their contents are — seal bookkeeping is
/// not observable state.
impl PartialEq for ExternalMemory {
    fn eq(&self, other: &ExternalMemory) -> bool {
        self.bytes == other.bytes
    }
}

impl ExternalMemory {
    /// Creates a zero-filled region of `size` bytes.
    pub fn new(size: usize) -> ExternalMemory {
        ExternalMemory { bytes: vec![0; size], seal: None, outer: None, spare: Spare::default() }
    }

    /// A tracking level: the clean spare re-armed (the region never
    /// resizes, so its bitmap always fits), else a fresh one.
    fn fresh_seal(&mut self) -> Box<ExtSeal> {
        self.spare.take().unwrap_or_else(|| {
            Box::new(ExtSeal { dirty: vec![0; (self.bytes.len() >> 6) + 1], undo: Vec::new() })
        })
    }

    /// Starts (or restarts) dirty tracking against the current
    /// contents, superseding any nested pair of seals.
    pub(crate) fn seal_in_place(&mut self) {
        self.outer = None;
        self.seal = Some(self.fresh_seal());
    }

    /// Starts a nested (inner) tracking level above the current seal,
    /// which moves to the outer slot. The inner log of an already
    /// nested pair is folded into the outer one first — it holds the
    /// only record of writes made while it was active.
    pub(crate) fn push_seal_in_place(&mut self) {
        match self.seal.take() {
            None => {}
            Some(mut prev) => match &mut self.outer {
                None => self.outer = Some(prev),
                Some(outer) => {
                    outer.absorb(&prev);
                    prev.forget();
                    self.spare.keep(prev);
                }
            },
        }
        self.seal = Some(self.fresh_seal());
    }

    /// Rolls the region back to its (inner) sealed contents; returns
    /// how many bytes were undone. No-op (0) when unsealed.
    pub(crate) fn restore_seal(&mut self) -> usize {
        let Some(seal) = self.seal.as_mut() else { return 0 };
        seal.rollback(&mut self.bytes)
    }

    /// Rolls the region back to the *outer* sealed contents — the
    /// inner level must already have been rolled back via
    /// [`ExternalMemory::restore_seal`]. The inner seal is retired,
    /// clean, for the next seal to re-arm; the outer becomes the active
    /// one. No-op (0) when not nested.
    pub(crate) fn restore_outer(&mut self) -> usize {
        let Some(mut outer) = self.outer.take() else { return 0 };
        let n = outer.rollback(&mut self.bytes);
        if let Some(inner) = self.seal.replace(outer) {
            debug_assert!(inner.undo.is_empty(), "the inner level was rolled back first");
            self.spare.keep(inner);
        }
        n
    }

    /// Copies the bytes `src` wrote since its (inner) seal onto this
    /// region, logging each in this region's own seal. The caller
    /// guarantees both regions held the same bytes at their seals.
    pub(crate) fn mirror_from(&mut self, src: &ExternalMemory) {
        let Some(from) = src.seal.as_deref() else { return };
        for &(addr, _) in &from.undo {
            self.note(addr);
            self.bytes[addr as usize] = src.bytes[addr as usize];
        }
    }

    /// Drops dirty tracking (both levels) without restoring.
    pub(crate) fn unseal(&mut self) {
        self.seal = None;
        self.outer = None;
    }

    /// Returns the region to its as-new state (all zeros, unsealed)
    /// without reallocating the byte buffer.
    pub(crate) fn reset(&mut self) {
        self.bytes.fill(0);
        self.seal = None;
        self.outer = None;
    }

    /// Distinct bytes dirtied since the seal (or last restore).
    pub(crate) fn dirty_len(&self) -> usize {
        self.seal.as_ref().map_or(0, |s| s.undo.len())
    }

    #[inline]
    fn note(&mut self, addr: u32) {
        if let Some(seal) = &mut self.seal {
            let idx = addr as usize;
            let word = idx >> 6;
            let bit = 1u64 << (idx & 63);
            if seal.dirty[word] & bit == 0 {
                seal.dirty[word] |= bit;
                seal.undo.push((addr, self.bytes[idx]));
            }
        }
    }

    /// Region size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the region is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Reads `width` (1, 2 or 4) bytes little-endian at `addr`.
    pub fn read_uint(&self, addr: u32, width: u32) -> HeapResult<u32> {
        let end = addr
            .checked_add(width)
            .ok_or(HeapError::ExternalOutOfBounds { addr, width })?;
        if end as usize > self.bytes.len() || !matches!(width, 1 | 2 | 4) {
            return Err(HeapError::ExternalOutOfBounds { addr, width });
        }
        let mut v: u32 = 0;
        for i in (0..width).rev() {
            v = (v << 8) | u32::from(self.bytes[(addr + i) as usize]);
        }
        Ok(v)
    }

    /// Writes `width` (1, 2 or 4) bytes little-endian at `addr`.
    pub fn write_uint(&mut self, addr: u32, width: u32, value: u32) -> HeapResult<()> {
        let end = addr
            .checked_add(width)
            .ok_or(HeapError::ExternalOutOfBounds { addr, width })?;
        if end as usize > self.bytes.len() || !matches!(width, 1 | 2 | 4) {
            return Err(HeapError::ExternalOutOfBounds { addr, width });
        }
        for i in 0..width {
            self.note(addr + i);
            self.bytes[(addr + i) as usize] = (value >> (8 * i)) as u8;
        }
        Ok(())
    }

    /// Sign-extends a `width`-byte read to i32.
    pub fn read_int(&self, addr: u32, width: u32) -> HeapResult<i32> {
        let raw = self.read_uint(addr, width)?;
        Ok(match width {
            1 => raw as u8 as i8 as i32,
            2 => raw as u16 as i16 as i32,
            _ => raw as i32,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut m = ExternalMemory::new(64);
        m.write_uint(0, 1, 0xab).unwrap();
        m.write_uint(8, 2, 0xbeef).unwrap();
        m.write_uint(16, 4, 0xdead_beef).unwrap();
        assert_eq!(m.read_uint(0, 1).unwrap(), 0xab);
        assert_eq!(m.read_uint(8, 2).unwrap(), 0xbeef);
        assert_eq!(m.read_uint(16, 4).unwrap(), 0xdead_beef);
    }

    #[test]
    fn sign_extension() {
        let mut m = ExternalMemory::new(16);
        m.write_uint(0, 1, 0xff).unwrap();
        m.write_uint(4, 2, 0x8000).unwrap();
        assert_eq!(m.read_int(0, 1).unwrap(), -1);
        assert_eq!(m.read_int(4, 2).unwrap(), -32768);
    }

    #[test]
    fn seal_restore_rolls_back_writes() {
        let mut m = ExternalMemory::new(32);
        m.write_uint(0, 4, 0x1111_2222).unwrap();
        m.seal_in_place();
        m.write_uint(0, 4, 0xdead_beef).unwrap();
        m.write_uint(8, 2, 0x4455).unwrap();
        assert_eq!(m.dirty_len(), 6);
        assert_eq!(m.restore_seal(), 6);
        assert_eq!(m.read_uint(0, 4).unwrap(), 0x1111_2222);
        assert_eq!(m.read_uint(8, 2).unwrap(), 0);
        // The seal stays armed: a second mutate/restore round works.
        m.write_uint(4, 1, 0x7f).unwrap();
        assert_eq!(m.restore_seal(), 1);
        assert_eq!(m.read_uint(4, 1).unwrap(), 0);
    }

    #[test]
    fn out_of_bounds_is_an_error() {
        let mut m = ExternalMemory::new(4);
        assert!(m.read_uint(4, 1).is_err());
        assert!(m.read_uint(2, 4).is_err());
        assert!(m.write_uint(u32::MAX, 4, 0).is_err());
        assert!(m.read_uint(0, 3).is_err(), "width 3 is not a valid access");
    }
}
