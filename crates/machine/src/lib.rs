//! # igjit-machine — the machine-code simulator
//!
//! The Pharo VM's testing infrastructure runs JIT-compiled code inside
//! a Unicorn-based simulation (Fig. 4 of the paper). This crate is the
//! reproduction's equivalent: a deterministic CPU simulator that
//! executes the back-ends' machine code against the *same*
//! [`igjit_heap::ObjectMemory`] the interpreter uses, which is what
//! makes differential observation of side effects possible.
//!
//! Two synthetic ISAs are provided — [`Isa::X86ish`] (8 registers,
//! two-address ALU, variable-length encoding) and [`Isa::Arm32ish`]
//! (16 registers, three-address ALU, fixed-length encoding) — matching
//! the paper's x86 / ARM32(v5-v7) back-end matrix.
//!
//! Execution halts on:
//! * returning to the caller (sentinel return address),
//! * a breakpoint/Stop instruction (the §4.2 fall-through detector),
//! * a trampoline call (message sends leave compiled code),
//! * an invalid memory access (the simulated segmentation fault).
//!
//! The invalid-access recovery path reproduces the paper's two
//! *simulation error* defects: like the Pharo simulator, it
//! "disassembles the failing instruction and performs a read/write
//! operation using reflection to call the corresponding register
//! setter/getters" — and two float-register setters are missing from
//! the reflection table.
//!
//! ## Example
//!
//! ```
//! use igjit_heap::ObjectMemory;
//! use igjit_machine::*;
//!
//! // Assemble `r0 ← 40; r0 ← r0 + 2; ret` for the x86-ish ISA.
//! let mut code = Vec::new();
//! for i in [
//!     MInstr::MovImm { dst: Reg(0), imm: 40 },
//!     MInstr::AluImm { op: AluOp::Add, dst: Reg(0), a: Reg(0), imm: 2 },
//!     MInstr::Ret,
//! ] {
//!     encode_instr(i, Isa::X86ish, &mut code).unwrap();
//! }
//! let mut mem = ObjectMemory::new();
//! let mut machine = Machine::new(&mut mem, Isa::X86ish, &code);
//! assert_eq!(machine.run(MachineConfig::default()), MachineOutcome::ReturnedToCaller);
//! assert_eq!(machine.reg(Reg(0)), 42);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cpu;
mod disasm;
mod encoding;
mod instr;

pub use cpu::{Machine, MachineConfig, MachineOutcome, MachineSession, CODE_BASE,
              RETURN_SENTINEL, STACK_BASE, STACK_BYTES};
pub use disasm::{disassemble, disassemble_to_string, DisasmLine};
pub use encoding::{decode_instr, encode_instr, EncodeError};
pub use instr::{AluOp, Cond, FAluOp, Isa, MInstr, Reg, TrampolineKind, FReg};

/// Compile-time source fingerprint (see `igjit-corpus`).
pub mod srcid;
