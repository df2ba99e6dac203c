//! Predecoded bytecode programs (engine v8).
//!
//! The interpreter's fetch loop historically decoded every bytecode
//! byte-by-byte and re-matched the ~50-variant opcode enum on every
//! step. A method's bytecodes are immutable, though, so both halves of
//! that work are pure functions of the program bytes:
//! [`PredecodedProgram`] performs them once. A sequential decode from
//! offset 0 yields a dense vector of decoded steps plus a byte-offset →
//! step jump table, and [`PredecodedProgram::resolve`] additionally pins
//! each step's [`StepFn`] so execution becomes an indexed fetch plus an
//! indirect call — no per-step decode, no per-step dispatch match.
//!
//! The artifact is *derived*, never authoritative: it is built from
//! exactly the bytes the fetch loop would otherwise decode, and any
//! program counter that does not land on a sequentially-decoded
//! boundary — a jump into the middle of an instruction, code past a
//! decode failure, or an offset beyond the method — falls back to the
//! byte-level decoder for that step, so decode faults reproduce
//! exactly. Execution under a [`PredecodedProgram`] is therefore
//! step-for-step identical to byte-level decoding; the
//! `predecode_props` proptest suite enforces this over random
//! instruction streams, raw byte soup, and wild jump targets.
//!
//! # Superinstruction fusion
//!
//! The negation walk and the oracle runs overwhelmingly fetch
//! *push-then-operate* pairs (push/push/add, push/push/compare, …).
//! Sequential decode guarantees that step `i + 1` starts exactly at
//! step `i`'s end, so when step `i` is a push — an instruction whose
//! only outcomes are `Continue` or a fault — the runner may execute
//! the following step immediately after a `Continue` without going
//! back through the jump table. [`Step::fuse_next`] marks exactly
//! those pairs; fusion never changes which step functions run or in
//! what order, it only skips the re-fetch between them.

use igjit_bytecode::{decode, Instruction};

use crate::context::VmContext;
use crate::spec::step_spec;
use crate::step::{resolve_step, StepFn};

/// Marker in the jump table for byte offsets that are not a
/// sequentially-decoded instruction boundary.
const NOT_A_BOUNDARY: u32 = u32::MAX;

/// One sequentially decoded instruction of a [`PredecodedProgram`].
#[derive(Clone, Copy, Debug)]
pub struct Step {
    /// The decoded instruction.
    pub instr: Instruction,
    /// Its encoded length in bytes.
    pub len: u8,
    /// Whether the runner may execute the next sequential step
    /// immediately after this one returns `Continue` (superinstruction
    /// fusion): set when this instruction is a push and a next step
    /// exists.
    pub fuse_next: bool,
}

/// A bytecode program decoded once, executed many times.
#[derive(Clone, Debug)]
pub struct PredecodedProgram {
    /// The method bytes (the fallback path and bounds checks still
    /// need them, and keeping them here guarantees the predecoded view
    /// and the byte view can never drift apart).
    bytes: Vec<u8>,
    /// Sequentially decoded steps.
    steps: Vec<Step>,
    /// Byte offset → index into `steps`; [`NOT_A_BOUNDARY`] elsewhere.
    index: Vec<u32>,
}

/// Whether `instr` is a push-class instruction: its only outcomes are
/// `Continue` or a fault, so a following step can be fused after it.
/// Derived from the instruction's [`StepSpec`](crate::StepSpec)
/// (engine v9) instead of a hand-written opcode list; the spec module
/// pins the predicate to the historical list member by member.
fn is_push(instr: Instruction) -> bool {
    step_spec(instr).is_fusible()
}

impl PredecodedProgram {
    /// Decodes `bytes` sequentially from offset 0. Decoding stops at
    /// the first undecodable position (offsets from there on simply
    /// fall back to the byte decoder at run time, which reports the
    /// same decode error the byte path would).
    pub fn new(bytes: &[u8]) -> PredecodedProgram {
        let mut steps: Vec<Step> = Vec::new();
        let mut index = vec![NOT_A_BOUNDARY; bytes.len()];
        let mut off = 0usize;
        while off < bytes.len() {
            let Ok((instr, len)) = decode(bytes, off) else {
                break;
            };
            index[off] = steps.len() as u32;
            steps.push(Step { instr, len: len as u8, fuse_next: false });
            off += len;
        }
        // Fusion marking: a push followed by any sequential step may
        // chain straight into it.
        for i in 0..steps.len().saturating_sub(1) {
            steps[i].fuse_next = is_push(steps[i].instr);
        }
        PredecodedProgram { bytes: bytes.to_vec(), steps, index }
    }

    /// The method bytes the steps were decoded from.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Number of sequentially decoded instructions.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether nothing decoded (empty or immediately invalid bytes).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The sequentially decoded steps.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// The step index starting exactly at byte offset `pc`, or `None`
    /// when `pc` is not a sequentially-decoded boundary (the caller
    /// falls back to [`decode`]).
    #[inline]
    pub fn lookup(&self, pc: usize) -> Option<usize> {
        let idx = *self.index.get(pc)?;
        if idx == NOT_A_BOUNDARY {
            return None;
        }
        Some(idx as usize)
    }

    /// Pins each step's [`StepFn`] for a concrete context type, so a
    /// run loop pays for opcode dispatch once per program instead of
    /// once per executed step. The resolved table is parallel to
    /// [`steps`](Self::steps).
    pub fn resolve<C: VmContext>(&self) -> Vec<StepFn<C>> {
        self.steps.iter().map(|s| resolve_step::<C>(s.instr)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igjit_bytecode::encode;

    fn assemble(instrs: &[Instruction]) -> Vec<u8> {
        let mut out = Vec::new();
        for &i in instrs {
            encode(i, &mut out);
        }
        out
    }

    #[test]
    fn every_boundary_matches_the_byte_decoder() {
        let bytes = assemble(&[
            Instruction::PushTemp(0),
            Instruction::PushInteger(7),
            Instruction::Add,
            Instruction::ReturnTop,
        ]);
        let pd = PredecodedProgram::new(&bytes);
        assert_eq!(pd.len(), 4);
        let mut boundaries = 0;
        for pc in 0..=bytes.len() + 4 {
            if let Some(i) = pd.lookup(pc) {
                let s = pd.steps()[i];
                let (instr, len) = decode(&bytes, pc).unwrap();
                assert_eq!((s.instr, usize::from(s.len)), (instr, len), "pc {pc}");
                boundaries += 1;
            }
        }
        assert_eq!(boundaries, 4, "one boundary per instruction");
    }

    #[test]
    fn fusion_marks_push_pairs_only() {
        let bytes = assemble(&[
            Instruction::PushZero,     // push followed by push: fused
            Instruction::PushOne,      // push followed by op: fused
            Instruction::Add,          // op followed by return: not fused
            Instruction::ReturnTop,    // last step: never fused
        ]);
        let pd = PredecodedProgram::new(&bytes);
        let fused: Vec<bool> = pd.steps().iter().map(|s| s.fuse_next).collect();
        assert_eq!(fused, [true, true, false, false]);
    }

    #[test]
    fn mid_instruction_offsets_are_not_boundaries() {
        let bytes = assemble(&[Instruction::PushInteger(100)]);
        assert!(bytes.len() > 1, "need a multi-byte encoding");
        let pd = PredecodedProgram::new(&bytes);
        assert!(pd.lookup(0).is_some());
        for pc in 1..bytes.len() {
            assert_eq!(pd.lookup(pc), None, "pc {pc} is mid-instruction");
        }
        assert_eq!(pd.lookup(bytes.len()), None, "end of code");
    }

    #[test]
    fn decoding_stops_at_the_first_bad_opcode() {
        let mut bytes = assemble(&[Instruction::Nop]);
        let bad_at = bytes.len();
        bytes.push(0xFF); // outside every opcode page
        bytes.extend_from_slice(&assemble(&[Instruction::ReturnTop]));
        let pd = PredecodedProgram::new(&bytes);
        if decode(&bytes, bad_at).is_err() {
            assert_eq!(pd.len(), 1, "only the Nop predecodes");
            assert_eq!(pd.lookup(bad_at), None);
        }
    }

    #[test]
    fn empty_and_garbage_bytes() {
        let pd = PredecodedProgram::new(&[]);
        assert!(pd.is_empty());
        assert_eq!(pd.lookup(0), None);
    }
}
