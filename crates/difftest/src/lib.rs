//! # igjit-difftest — interpreter-guided differential testing
//!
//! Steps 2–4 of the paper's pipeline (Fig. 1): for every execution
//! path the concolic explorer discovered,
//!
//! 1. re-materialize the concrete input VM frame from the path's
//!    model into the replay arena — two heaps per [`Harness`], rolled
//!    back to their sealed blank images between models,
//! 2. run the **interpreter** on it — the oracle,
//! 3. **compile** the program with the front-end under test (per
//!    the §4.2 schema) and run the machine code on the simulator,
//! 4. **compare** the observable behaviour: exit condition, operand
//!    stack, temps, result values, message-send payloads, and side
//!    effects on the input object graph,
//! 5. classify any difference into the paper's six defect families
//!    (Table 3).
//!
//! These steps exist once, as [`Harness::check`], for one model on
//! every ISA. The campaign ([`test_instruction_with`]), bytecode
//! sequences ([`test_sequence`]) and the generated unit tests all call
//! it; a single bytecode is a [`Program`] of length one.
//!
//! The [`probe_models`] pass adds *kind probing*: for unconstrained
//! input variables it re-solves the path condition under extra kind
//! hypotheses, which is how the `primitiveAsFloat` missing-check
//! (whose interpreter path records **no** receiver constraint) becomes
//! visible to differential testing.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod campaign;
mod classify;
mod compare;
mod compiled;
mod meta;
mod oracle;
mod sequence;
mod step;

pub use campaign::{test_instruction, test_instruction_with, CampaignRow, InstructionOutcome,
                   PathVerdict, SnapshotStats, StageClock, StageTimes, Target};
pub use classify::{classify, CauseKey, DefectCategory};
pub use compare::{compare_runs, values_equivalent, Difference, DifferenceKind, Verdict};
pub use compiled::{run_compiled_for_instr, CompiledRun};
pub use meta::MetaRunCounts;
pub use oracle::{concrete_frame, run_oracle, run_oracle_on, EngineExit, OracleRun, SelectorId};
pub use igjit_concolic::probe_models;
pub use sequence::{minimal_sequence_for_path, test_sequence, SequenceOutcome, SEQUENCE_POOL};
pub use step::{Checked, Harness, Program, Tally, SAMPLE_EVERY};

/// Compile-time source fingerprint (see `igjit-corpus`).
pub mod srcid;
