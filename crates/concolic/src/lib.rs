//! # igjit-concolic — concolic meta-interpretation of the interpreter
//!
//! This crate implements steps 1 of the paper's pipeline (Fig. 1):
//! *concolic exploration* of a VM instruction against the interpreter.
//!
//! The [`ConcolicContext`] implements
//! [`igjit_interp::VmContext`] with values that carry a **symbolic
//! shadow** next to their concrete part; running the *unmodified*
//! interpreter ([`igjit_interp::step`] / `run_native`) under this
//! context records the semantic path condition (§3.3) of the taken
//! path: `isSmallInteger(v)`, class tests, `operand_stack_size`
//! bounds, slot-count bounds and linear integer comparisons.
//!
//! The [`Explorer`] then drives the classic concolic loop (§2.3,
//! Fig. 2):
//!
//! 1. solve the current path-condition prefix with `igjit-solver`,
//! 2. **materialize** a concrete VM frame (and its object graph) from
//!    the model into the walk's scratch heap, reset to its blank image
//!    before every run,
//! 3. run the instruction (or sequence), recording the actually-taken path and its
//!    **exit condition** (§3.4),
//! 4. negate the last not-yet-negated condition and iterate, growing
//!    the frame whenever an `InvalidFrame`/`InvalidMemoryAccess` exit
//!    asked for more operands or slots.
//!
//! Different negations can land on the same path. The walk records a
//! path once, deduplicating by its exact structural [`PathKey`] (path
//! condition plus outcome variant, floats by bit pattern with one
//! NaN): a hash lookup over the indices of the paths already recorded,
//! compared exactly on a hit, with no text and no second copy of a path.
//!
//! Unlike textbook concolic testing, exploration does **not** stop on
//! a failing path — failure exits are first-class results, because the
//! differential tester needs them (§2.2).
//!
//! Campaigns take their explorations from the [`ExplorationCache`],
//! the one place an exploration comes from: it explores each
//! instruction once, in full, attaches the kind-probe models
//! ([`probe_models`]) when probing is on, and shares the result with
//! every compiler target and worker (§5.4).
//!
//! ## Example
//!
//! ```
//! use igjit_concolic::{Explorer, InstrUnderTest};
//! use igjit_bytecode::Instruction;
//!
//! let result = Explorer::new().explore(InstrUnderTest::Bytecode(Instruction::Add));
//! // Table 1 of the paper: the add bytecode has the int/int path, the
//! // overflow path, float paths, type-error send paths and the
//! // invalid-frame paths.
//! assert!(result.paths.len() >= 5);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod explore;
mod materialize;
mod pathkey;
mod probes;
mod state;
mod sym;
mod cache;
mod trace;

pub use cache::{CacheLookup, ExplorationCache, ExplorationKey};
pub use pathkey::PathKey;
pub use probes::{probe_models, DEFAULT_MAX_PROBES};
pub use explore::{CurationReason, ExplorationResult, ExploreError, Explorer, ExploredPath,
                  InstrUnderTest, PathOutcome, SendRecord};
pub use materialize::{materialize_base, materialize_frame, materialize_shared,
                      materialize_shared_into, BaseImage, MaterializedFrame, WitnessError};
pub use state::{byte_kinds, class_for_kind, kind_for_class, pointer_slot_kinds, AbstractState,
                ObjShape, VarRole};
pub use sym::{Origin, SymFloat, SymInt, SymOop};
pub use trace::ConcolicContext;

/// Compile-time source fingerprint (see `igjit-corpus`).
pub mod srcid;
