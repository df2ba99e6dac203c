//! # igjit-metajit — the meta-compiled tier (#5)
//!
//! Druid ("Meta-compilation of Baseline JIT Compilers", PAPERS.md)
//! derives a baseline JIT from the interpreter itself. This crate
//! closes that loop for the reproduction: a **partial evaluator over
//! the interpreter's step functions** that emits CogRTL IR per opcode,
//! lowered by the same back-ends as the hand-written tiers and judged
//! by the same differential pipeline.
//!
//! There is exactly one copy of the semantics: the evaluator is a
//! [`igjit_interp::VmContext`] implementation whose values are
//! compile-time constants ([`MetaVal::Static`]) or runtime registers
//! ([`MetaVal::Dyn`]). Running the unmodified
//! [`igjit_interp::step`] with it folds every frame-value computation
//! at compile time (§4.2 embeds the frame as constants, so only the
//! receiver is dynamic), records heap accesses as `Load`/`Store` IR,
//! and decides the instruction's exit statically. Whatever the
//! evaluator cannot decide without consulting runtime heap state
//! *refuses* ([`igjit_jit::CompileError::Unsupported`]) instead of
//! guessing — the differential campaign then routes that (instruction,
//! frame) through an interpreter trampoline, keeping the tier total
//! from day one while coverage is reported per run.
//!
//! The crate keeps no cache of its own. A meta-compiled test method is
//! a pure function of the same inputs as a hand-written tier's, so the
//! campaign looks it up in its one [`igjit_jit::CodeCache`], under a
//! key whose front-end is [`igjit_jit::FrontEnd::Meta`].
//!
//! ## Example: meta-compile `Add` for a concrete frame
//!
//! ```
//! use igjit_heap::{ObjectMemory, Oop};
//! use igjit_bytecode::Instruction;
//! use igjit_interp::{Frame, MethodInfo};
//! use igjit_metajit::compile_meta;
//! use igjit_machine::Isa;
//!
//! let mem = ObjectMemory::new();
//! let mut frame = Frame::new(Oop::from_small_int(0), MethodInfo::empty());
//! frame.stack = vec![Oop::from_small_int(20), Oop::from_small_int(22)];
//! let code = compile_meta(
//!     Instruction::Add, &frame,
//!     mem.nil(), mem.true_object(), mem.false_object(),
//!     Isa::X86ish,
//! ).expect("int + int folds");
//! assert!(!code.code.is_empty());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod compile;
mod eval;

pub use compile::compile_meta;
pub use eval::MetaVal;

/// Compile-time source fingerprint (see `igjit-corpus`).
pub mod srcid;
