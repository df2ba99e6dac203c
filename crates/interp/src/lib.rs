//! # igjit-interp — the executable specification
//!
//! The paper's core insight is that a VM's bytecode interpreter *is*
//! an executable specification of the language semantics, precise
//! enough to drive JIT compiler testing. This crate is that
//! interpreter — with one structural twist that makes the paper's
//! concolic meta-interpretation natural in Rust: every semantic
//! operation the interpreter performs (tag tests, class tests,
//! arithmetic, heap accesses, frame accesses) goes through the
//! [`VmContext`] trait.
//!
//! * [`ConcreteContext`] implements the trait directly over the
//!   [`igjit_heap::ObjectMemory`]; running [`step`] with it is plain
//!   interpretation.
//! * The `igjit-concolic` crate implements the same trait with values
//!   that carry a symbolic shadow; running the *same* [`step`] code
//!   records path constraints. There is exactly one copy of the
//!   semantics, so the interpreter genuinely is the specification —
//!   there is no second model to drift.
//!
//! The crate also implements the VM's **112 native methods**
//! (primitives) behind the same trait, with the paper's safety
//! contract: native methods check their operands and fail with
//! [`NativeOutcome::Failure`]; bytecodes are unsafe by design.
//!
//! Two of the paper's *authentic defects* live here (see DESIGN.md):
//! the interpreter's `primitiveAsFloat` misses its receiver type check
//! (Listing 5 of the paper), and the bitwise native methods refuse
//! negative operands while their compiled versions will not.
//!
//! ## Example: interpret a method
//!
//! [`run_method`] is the crate's one fetch loop: it decodes the
//! instruction at pc, runs [`step`] on it and moves pc, until the
//! method returns, sends, faults or falls off its end.
//!
//! ```
//! use igjit_heap::ObjectMemory;
//! use igjit_bytecode::{Instruction, MethodBuilder};
//! use igjit_interp::{run_method, MethodResult};
//!
//! let mut mem = ObjectMemory::new();
//! let mut b = MethodBuilder::new(0, 0);
//! b.push_small_int(20);
//! b.push_small_int(22);
//! b.emit(Instruction::Add);
//! b.emit(Instruction::ReturnTop);
//! let m = b.install(&mut mem).unwrap();
//! let nil = mem.nil();
//! match run_method(&mut mem, m, nil, &[]).unwrap() {
//!     MethodResult::Returned(v) => assert_eq!(v.small_int_value(), 42),
//!     other => panic!("{other:?}"),
//! }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod concrete;
mod context;
mod exit;
mod frame;
mod image;
pub mod natives;
mod runner;
pub mod spec;
mod step;

pub use concrete::ConcreteContext;
pub use image::Image;
pub use context::{AllocFault, CmpKind, MemFault, VmContext};
pub use exit::{ExitCondition, Selector, StepOutcome};
pub use frame::{Frame, MethodInfo};
pub use natives::{native_catalog, native_spec, run_native, NativeGroup, NativeMethodId,
                  NativeMethodSpec, NativeOutcome};
pub use runner::{run_method, MethodResult, RunError};
pub use spec::{step_spec, StepSpec};
pub use step::step;

/// Compile-time source fingerprint (see `igjit-corpus`).
pub mod srcid;
