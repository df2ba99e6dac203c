//! # igjit-jit — the Cogit-style JIT compilers
//!
//! The Pharo VM's JIT (Cogit, §4.1 of the paper) has one IR, several
//! byte-code front-ends, a template-based native-method front-end, and
//! per-ISA back-ends. This crate reproduces that architecture:
//!
//! * [`Ir`] — a CogRTL-flavoured linear IR over virtual registers,
//! * three bytecode front-ends sharing one generator, differing in the
//!   [`CompilerOptions`] exactly like the real tiers differ:
//!   - [`CompilerKind::SimpleStackBased`] — push/pop byte-codes map to
//!     machine push/pop; **no static type prediction** (every
//!     arithmetic bytecode compiles to a send),
//!   - [`CompilerKind::StackToRegister`] — parse-time stack that
//!     avoids unnecessary stack traffic; inlines **SmallInteger**
//!     arithmetic but — unlike the interpreter — **not Float**
//!     arithmetic (the paper's *optimisation difference* family),
//!   - [`CompilerKind::RegisterAllocating`] — extends StackToRegister
//!     with a linear-scan register allocator,
//! * a [`native`] template compiler for the native methods, carrying
//!   the planted compiled-side defects (missing float receiver checks,
//!   unsigned bitwise semantics, floored `quo:`, 60 unimplemented FFI
//!   templates),
//! * [`backend::lower`] — lowering + encoding for the two ISAs
//!   ([`igjit_machine::Isa::X86ish`] two-address,
//!   [`igjit_machine::Isa::Arm32ish`] three-address).
//!
//! The compilation schema follows §4.2: the unit is a whole method —
//! a preamble materializing temps, `genPushLiteral` for each required
//! operand-stack value, the instruction under test, then
//! exit-condition-specific returns and `Stop` breakpoints.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backend;
mod bytecode_compiler;
pub mod cache;
mod convention;
mod ir;
pub mod native;
mod regalloc;

pub use bytecode_compiler::{compile_bytecode_sequence_test, compile_bytecode_test,
                            BytecodeTestInput, CompilerKind, CompilerOptions};
pub use cache::{CachedArtifact, CodeCache, CompileKey, CompileKeyRef};
pub use native::NativeTestInput;
pub use regalloc::SPILL_BYTES;
pub use convention::Convention;
pub use ir::{Ir, LabelId, VReg, MUST_BE_BOOLEAN_SELECTOR};
pub use native::compile_native_test;

use igjit_machine::Isa;

/// A compiled test method ready to run on the machine simulator.
#[derive(Clone, Debug)]
pub struct CompiledCode {
    /// Encoded machine code (map at `CODE_BASE`).
    pub code: Vec<u8>,
    /// Target ISA.
    pub isa: Isa,
    /// Number of temp slots the preamble materialized.
    pub ntemps: u32,
}

/// Compilation failures.
#[derive(Clone, PartialEq, Debug)]
pub enum CompileError {
    /// The front-end has no implementation for this operation — the
    /// paper's *missing functionality* defect family surfaces here
    /// (e.g. all FFI native methods on the 32-bit template compiler).
    NotImplemented(&'static str),
    /// The instruction is outside what the testing front-end models.
    Unsupported(&'static str),
    /// Back-end lowering failed (assembler-level bug).
    Backend(String),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::NotImplemented(what) => write!(f, "not implemented: {what}"),
            CompileError::Unsupported(what) => write!(f, "unsupported: {what}"),
            CompileError::Backend(what) => write!(f, "backend error: {what}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Breakpoint codes used by the test compilation schema.
pub mod stops {
    /// Fall-through end of a bytecode test (Success) / native-method
    /// fall-through (Failure, §4.2's breakpoint after the native
    /// behaviour).
    pub const FALL_THROUGH: u8 = 0;
    /// The jump-taken landing pad of a jump bytecode test.
    pub const JUMP_TAKEN: u8 = 1;
}

/// Compile-time source fingerprint (see `igjit-corpus`).
pub mod srcid;
