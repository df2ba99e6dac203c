//! Heap access errors.

use crate::class::ClassIndex;
use crate::tagged::Oop;

/// Result alias for heap operations.
pub type HeapResult<T> = Result<T, HeapError>;

/// Everything that can go wrong touching the object memory.
///
/// `OutOfBoundsSlot` maps onto the paper's *invalid memory access* exit
/// condition: the concolic engine treats it as "the object needs more
/// slots" for bytecodes and as a genuine failure for native methods.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HeapError {
    /// The oop is a SmallInteger where a heap object was required.
    NotAPointer {
        /// The offending oop.
        oop: Oop,
    },
    /// The address does not point at a live object header.
    InvalidAddress {
        /// The offending byte address.
        addr: u32,
    },
    /// A slot index past the object's slot count was accessed.
    OutOfBoundsSlot {
        /// Object whose body was accessed.
        oop: Oop,
        /// The out-of-range index.
        index: u32,
        /// The object's actual element count.
        size: u32,
    },
    /// The object's format does not support the attempted access.
    WrongFormat {
        /// Object whose body was accessed.
        oop: Oop,
    },
    /// The class index is not registered in the class table.
    UnknownClass {
        /// The unregistered index.
        class: ClassIndex,
    },
    /// The heap arena is exhausted.
    OutOfMemory,
    /// An external-memory access fell outside the simulated region.
    ExternalOutOfBounds {
        /// Faulting external address.
        addr: u32,
        /// Access width in bytes.
        width: u32,
    },
    /// `restore` was called on a memory that carries no seal.
    NotSealed,
    /// `restore` was called with a snapshot token from a superseded
    /// seal.
    StaleSnapshot {
        /// Epoch the token names.
        expected: u64,
        /// Epoch of the memory's current seal.
        actual: u64,
    },
    /// `mirror_from` was asked to copy between memories that do not
    /// stand at the same sealed image: their active seals name
    /// different images, or the target has changed since its seal.
    NotAtSharedSeal,
}

impl std::fmt::Display for HeapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeapError::NotAPointer { oop } => write!(f, "{oop:?} is not a heap pointer"),
            HeapError::InvalidAddress { addr } => write!(f, "0x{addr:08x} is not an object"),
            HeapError::OutOfBoundsSlot { oop, index, size } => {
                write!(f, "index {index} out of bounds (size {size}) in {oop:?}")
            }
            HeapError::WrongFormat { oop } => write!(f, "format of {oop:?} forbids this access"),
            HeapError::UnknownClass { class } => write!(f, "unknown class index {}", class.0),
            HeapError::OutOfMemory => write!(f, "object heap exhausted"),
            HeapError::ExternalOutOfBounds { addr, width } => {
                write!(f, "external access of {width} bytes at 0x{addr:08x} out of bounds")
            }
            HeapError::NotSealed => write!(f, "memory carries no seal to restore to"),
            HeapError::StaleSnapshot { expected, actual } => {
                write!(f, "snapshot names seal epoch {expected} but memory is at {actual}")
            }
            HeapError::NotAtSharedSeal => {
                write!(f, "mirror target does not stand at the source's sealed image")
            }
        }
    }
}

impl std::error::Error for HeapError {}
