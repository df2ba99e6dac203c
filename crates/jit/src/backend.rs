//! Back-ends: lowering IR to machine code per ISA.
//!
//! The two back-ends share the label-resolution logic but differ where
//! the ISAs differ: `X86ish` is two-address (ALU ops are rewritten
//! with moves, commuting where legal), `Arm32ish` lowers three-address
//! ALU ops directly. All registers must be physical by this point —
//! the `RegisterAllocating` front-end runs its allocator first.

use igjit_machine::{encode_instr, AluOp, Cond, Isa, MInstr, Reg, TrampolineKind};
use igjit_mutate::{armed, ops as mutops};

use crate::ir::{Ir, LabelId, VReg};
use crate::CompileError;

/// Inverts a condition code (the `invert-jcc` mutation).
fn invert_cc(cc: Cond) -> Cond {
    match cc {
        Cond::Eq => Cond::Ne,
        Cond::Ne => Cond::Eq,
        Cond::Lt => Cond::Ge,
        Cond::Ge => Cond::Lt,
        Cond::Le => Cond::Gt,
        Cond::Gt => Cond::Le,
        Cond::Ov => Cond::NoOv,
        Cond::NoOv => Cond::Ov,
    }
}

fn phys(v: VReg) -> Result<Reg, CompileError> {
    v.as_phys().ok_or_else(|| {
        CompileError::Backend(format!("virtual register v{} reached the backend unallocated", v.0))
    })
}

fn is_commutative(op: AluOp) -> bool {
    matches!(op, AluOp::Add | AluOp::And | AluOp::Or | AluOp::Xor | AluOp::Mul)
}

/// Expands one IR ALU op into machine instructions respecting the
/// ISA's addressing constraints.
fn lower_alu(
    isa: Isa,
    op: AluOp,
    dst: Reg,
    a: Reg,
    b: Reg,
    out: &mut Vec<MInstr>,
) -> Result<(), CompileError> {
    if !isa.two_address() || dst == a {
        out.push(MInstr::AluReg { op, dst, a: if isa.two_address() { dst } else { a }, b });
        return Ok(());
    }
    if dst == b {
        if is_commutative(op) {
            out.push(MInstr::AluReg { op, dst, a: dst, b: a });
            return Ok(());
        }
        return Err(CompileError::Backend(format!(
            "two-address {op:?} with dst == b is unencodable on {isa:?}"
        )));
    }
    if !armed(mutops::DROP_TWO_ADDRESS_MOV_FIXUP) {
        out.push(MInstr::MovReg { dst, src: a });
    }
    out.push(MInstr::AluReg { op, dst, a: dst, b });
    Ok(())
}

/// Sizes of control-flow instructions (needed before offsets are
/// known).
fn jump_len(isa: Isa, conditional: bool) -> usize {
    match isa {
        Isa::X86ish => {
            if conditional {
                6
            } else {
                5
            }
        }
        Isa::Arm32ish => 8,
    }
}

/// Byte position of the displacement field within an encoded jump.
fn jump_patch_offset(isa: Isa, conditional: bool) -> usize {
    match isa {
        Isa::X86ish => {
            if conditional {
                2
            } else {
                1
            }
        }
        Isa::Arm32ish => 4,
    }
}

/// Lowers and encodes an IR sequence for `isa`.
pub fn lower(ir: &[Ir], isa: Isa) -> Result<Vec<u8>, CompileError> {
    let mut bytes: Vec<u8> = Vec::new();
    let mut label_pos: Vec<Option<usize>> = Vec::new();
    // (patch byte offset, end-of-instruction offset, label)
    let mut fixups: Vec<(usize, usize, LabelId)> = Vec::new();

    let note_label = |label: LabelId, pos: Option<usize>, table: &mut Vec<Option<usize>>| {
        let i = usize::from(label.0);
        if table.len() <= i {
            table.resize(i + 1, None);
        }
        if let Some(p) = pos {
            table[i] = Some(p);
        }
    };

    for op in ir {
        let mut ms: Vec<MInstr> = Vec::new();
        match *op {
            Ir::Label(l) => {
                note_label(l, Some(bytes.len()), &mut label_pos);
            }
            Ir::MovImm { dst, imm } => ms.push(MInstr::MovImm { dst: phys(dst)?, imm }),
            Ir::MovReg { dst, src } => {
                let (dst, src) = (phys(dst)?, phys(src)?);
                if dst != src || armed(mutops::DROP_MOV_ELISION) {
                    ms.push(MInstr::MovReg { dst, src });
                }
            }
            Ir::Load { dst, base, off } => {
                ms.push(MInstr::Load { dst: phys(dst)?, base: phys(base)?, off })
            }
            Ir::Store { src, base, off } => {
                ms.push(MInstr::Store { src: phys(src)?, base: phys(base)?, off })
            }
            Ir::Push { src } => ms.push(MInstr::Push { src: phys(src)? }),
            Ir::Pop { dst } => ms.push(MInstr::PopR { dst: phys(dst)? }),
            Ir::Alu { op, dst, a, b } => {
                lower_alu(isa, op, phys(dst)?, phys(a)?, phys(b)?, &mut ms)?
            }
            Ir::AluImm { op, dst, a, imm } => {
                let (dst, a) = (phys(dst)?, phys(a)?);
                if isa.two_address() && dst != a {
                    if !armed(mutops::DROP_ALUIMM_MOV_FIXUP) {
                        ms.push(MInstr::MovReg { dst, src: a });
                    }
                    ms.push(MInstr::AluImm { op, dst, a: dst, imm });
                } else {
                    ms.push(MInstr::AluImm {
                        op,
                        dst,
                        a: if isa.two_address() { dst } else { a },
                        imm,
                    });
                }
            }
            Ir::Cmp { a, b } => ms.push(MInstr::Cmp { a: phys(a)?, b: phys(b)? }),
            Ir::CmpImm { a, imm } => ms.push(MInstr::CmpImm { a: phys(a)?, imm }),
            Ir::Jump(l) => {
                let len = jump_len(isa, false);
                let patch = bytes.len() + jump_patch_offset(isa, false);
                let end = bytes.len() + len;
                fixups.push((patch, end, l));
                note_label(l, None, &mut label_pos);
                ms.push(MInstr::Jmp { off: 0 });
            }
            Ir::JumpCc(cc, l) => {
                let len = jump_len(isa, true);
                let patch = bytes.len() + jump_patch_offset(isa, true);
                let end = bytes.len() + len;
                fixups.push((patch, end, l));
                note_label(l, None, &mut label_pos);
                let cc = if armed(mutops::INVERT_JCC) { invert_cc(cc) } else { cc };
                ms.push(MInstr::JmpCc { cc, off: 0 });
            }
            Ir::Send { selector_id } => {
                ms.push(MInstr::CallTramp { kind: TrampolineKind::Send, payload: selector_id })
            }
            Ir::AllocFloat { dst } => ms.push(MInstr::CallTramp {
                kind: TrampolineKind::AllocFloat,
                payload: u32::from(phys(dst)?.0),
            }),
            Ir::AllocObject { reg, class, format } => {
                let payload =
                    u32::from(phys(reg)?.0) | ((class & 0xfff) << 8) | ((format & 0xf) << 20);
                ms.push(MInstr::CallTramp { kind: TrampolineKind::AllocObject, payload })
            }
            Ir::Ret => ms.push(MInstr::Ret),
            Ir::Stop(code) => ms.push(MInstr::Brk { code }),
            Ir::FLoad { fd, base, off } => {
                ms.push(MInstr::FLoad { fd, base: phys(base)?, off })
            }
            Ir::FAlu { op, fd, fa, fb } => ms.push(MInstr::FAlu { op, fd, fa, fb }),
            Ir::FCmp { fa, fb } => ms.push(MInstr::FCmp { fa, fb }),
            Ir::FToIntChecked { dst, fs } => {
                ms.push(MInstr::FToIntChecked { dst: phys(dst)?, fs })
            }
            Ir::FExponent { dst, fs } => ms.push(MInstr::FExponent { dst: phys(dst)?, fs }),
            Ir::IntToF { fd, src } => ms.push(MInstr::IntToF { fd, src: phys(src)? }),
            Ir::Nop => ms.push(MInstr::Nop),
        }
        for m in ms {
            encode_instr(m, isa, &mut bytes)
                .map_err(|e| CompileError::Backend(e.to_string()))?;
        }
    }

    for (patch, end, label) in fixups {
        let pos = label_pos
            .get(usize::from(label.0))
            .copied()
            .flatten()
            .ok_or_else(|| CompileError::Backend(format!("unbound label L{}", label.0)))?;
        let mut disp = pos as i64 - end as i64;
        if armed(mutops::JUMP_DISP_OFF_BY_ONE) {
            disp += 1;
        }
        let disp = i32::try_from(disp)
            .map_err(|_| CompileError::Backend("jump displacement overflow".into()))?;
        bytes[patch..patch + 4].copy_from_slice(&disp.to_le_bytes());
    }
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use igjit_heap::ObjectMemory;
    use igjit_machine::{Cond, Machine, MachineConfig, MachineOutcome};

    fn run(ir: &[Ir], isa: Isa) -> (MachineOutcome, Vec<u32>) {
        let code = lower(ir, isa).unwrap();
        let mut mem = ObjectMemory::new();
        let mut m = Machine::new(&mut mem, isa, &code);
        let out = m.run(MachineConfig::default());
        let regs: Vec<u32> = (0..isa.reg_count()).map(|i| m.reg(Reg(i))).collect();
        (out, regs)
    }

    fn p(r: u8) -> VReg {
        VReg::phys(Reg(r))
    }

    #[test]
    fn forward_and_backward_jumps_resolve() {
        for isa in [Isa::X86ish, Isa::Arm32ish] {
            let l_end = LabelId(0);
            let l_loop = LabelId(1);
            let ir = vec![
                Ir::MovImm { dst: p(0), imm: 0 },
                Ir::Label(l_loop),
                Ir::AluImm { op: AluOp::Add, dst: p(0), a: p(0), imm: 1 },
                Ir::CmpImm { a: p(0), imm: 5 },
                Ir::JumpCc(Cond::Ge, l_end),
                Ir::Jump(l_loop),
                Ir::Label(l_end),
                Ir::Ret,
            ];
            let (out, regs) = run(&ir, isa);
            assert_eq!(out, MachineOutcome::ReturnedToCaller, "{isa:?}");
            assert_eq!(regs[0], 5, "{isa:?}");
        }
    }

    #[test]
    fn three_address_alu_works_on_both_isas() {
        // dst, a, b all distinct — x86 needs a mov fixup.
        for isa in [Isa::X86ish, Isa::Arm32ish] {
            let ir = vec![
                Ir::MovImm { dst: p(1), imm: 30 },
                Ir::MovImm { dst: p(2), imm: 12 },
                Ir::Alu { op: AluOp::Add, dst: p(0), a: p(1), b: p(2) },
                Ir::Ret,
            ];
            let (out, regs) = run(&ir, isa);
            assert_eq!(out, MachineOutcome::ReturnedToCaller);
            assert_eq!(regs[0], 42, "{isa:?}");
            assert_eq!(regs[1], 30, "{isa:?}: operand a preserved");
        }
    }

    #[test]
    fn commuted_two_address_alu() {
        // dst == b, commutative: x86 backend must commute.
        for isa in [Isa::X86ish, Isa::Arm32ish] {
            let ir = vec![
                Ir::MovImm { dst: p(0), imm: 30 },
                Ir::MovImm { dst: p(1), imm: 12 },
                Ir::Alu { op: AluOp::Add, dst: p(1), a: p(0), b: p(1) },
                Ir::Ret,
            ];
            let (out, regs) = run(&ir, isa);
            assert_eq!(out, MachineOutcome::ReturnedToCaller);
            assert_eq!(regs[1], 42, "{isa:?}");
        }
    }

    #[test]
    fn non_commutative_dst_eq_b_is_rejected_on_x86() {
        let ir = vec![Ir::Alu { op: AluOp::Sub, dst: p(1), a: p(0), b: p(1) }, Ir::Ret];
        assert!(matches!(lower(&ir, Isa::X86ish), Err(CompileError::Backend(_))));
        assert!(lower(&ir, Isa::Arm32ish).is_ok());
    }

    #[test]
    fn virtual_registers_are_rejected() {
        // The error is built only on failure; it must still name the
        // offending vreg, whether it is a destination or an operand.
        for isa in [Isa::X86ish, Isa::Arm32ish] {
            for ir in [
                vec![Ir::MovImm { dst: VReg(40), imm: 1 }],
                vec![
                    Ir::MovImm { dst: p(0), imm: 1 },
                    Ir::Alu { op: AluOp::Add, dst: p(0), a: p(0), b: VReg(40) },
                ],
            ] {
                match lower(&ir, isa) {
                    Err(CompileError::Backend(msg)) => assert_eq!(
                        msg, "virtual register v40 reached the backend unallocated",
                        "{isa:?}"
                    ),
                    other => panic!("{isa:?}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn unbound_labels_are_rejected() {
        let ir = vec![Ir::Jump(LabelId(3))];
        assert!(matches!(lower(&ir, Isa::X86ish), Err(CompileError::Backend(_))));
    }

    #[test]
    fn send_halts_with_selector() {
        let ir = vec![Ir::Send { selector_id: 9 }];
        let (out, _) = run(&ir, Isa::Arm32ish);
        assert_eq!(out, MachineOutcome::Send { selector_id: 9 });
    }
}
