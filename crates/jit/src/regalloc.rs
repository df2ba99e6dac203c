//! Linear-scan register allocation (the `RegisterAllocatingCogit`
//! extension).
//!
//! The front-end emits virtual registers; this pass assigns physical
//! registers by linear scan over live intervals and spills the rest to
//! fixed frame slots (the preamble reserves a spill area below the
//! temps). x86ish has almost no allocatable registers, so it spills
//! aggressively; Arm32ish rarely spills — a faithful echo of the
//! register-pressure asymmetry between the paper's two back-ends.

use igjit_machine::{Isa, Reg};
use igjit_mutate::{armed, ops as mutops};

use crate::convention::Convention;
use crate::ir::{Ir, VReg};
use crate::CompileError;

/// Number of spill slots every compiled-test frame reserves.
pub const SPILL_SLOTS: u32 = 16;
/// Bytes of the reserved spill area.
pub const SPILL_BYTES: u32 = SPILL_SLOTS * 4;

#[derive(Clone, Copy, Debug)]
enum Loc {
    Reg(Reg),
    Slot(u32),
}

/// Index of a virtual register in the allocator's dense per-vreg
/// tables.
fn dense(v: VReg) -> usize {
    usize::from(v.0 - VReg::FIRST_VIRTUAL)
}

/// The transient temps one op's spilled registers live in: at most
/// two spilled uses, plus a spilled def that shares or takes a temp.
struct TempMap {
    entries: [(VReg, VReg); 3],
    len: usize,
}

impl TempMap {
    const EMPTY: TempMap = TempMap { entries: [(VReg(0), VReg(0)); 3], len: 0 };

    fn get(&self, v: VReg) -> Option<VReg> {
        self.entries[..self.len].iter().find(|e| e.0 == v).map(|e| e.1)
    }

    fn insert(&mut self, v: VReg, t: VReg) {
        match self.entries[..self.len].iter_mut().find(|e| e.0 == v) {
            Some(e) => e.1 = t,
            None => {
                self.entries[self.len] = (v, t);
                self.len += 1;
            }
        }
    }
}

/// The working tables of one allocation, kept per thread so that, once
/// grown, allocating allocates nothing.
#[derive(Default)]
struct AllocScratch {
    /// The registers one op reads and writes.
    regs: Vec<VReg>,
    /// Live intervals (first position, last position), indexed by
    /// `dense(vreg)`.
    intervals: Vec<Option<(usize, usize)>>,
    /// The intervals in allocation order.
    order: Vec<(VReg, (usize, usize))>,
    /// The free pool.
    free: Vec<Reg>,
    /// Where each virtual register lives, indexed by `dense(vreg)`.
    assignment: Vec<Option<Loc>>,
    /// (end, vreg, reg) of the intervals holding a register.
    active: Vec<(usize, VReg, Reg)>,
}

thread_local! {
    static ALLOC_SCRATCH: std::cell::Cell<AllocScratch> =
        std::cell::Cell::new(AllocScratch::default());
}

/// Rewrites `ir` into `out` (cleared first) so that no virtual
/// registers remain.
///
/// `ntemps` positions the spill area: spill slot `i` lives at
/// `FP - 4*(ntemps + i + 1)`.
pub(crate) fn allocate_into(
    ir: &[Ir],
    isa: Isa,
    ntemps: u32,
    out: &mut Vec<Ir>,
) -> Result<(), CompileError> {
    let mut scratch = ALLOC_SCRATCH.take();
    let done = allocate_with(ir, isa, ntemps, out, &mut scratch);
    ALLOC_SCRATCH.set(scratch);
    done
}

fn allocate_with(
    ir: &[Ir],
    isa: Isa,
    ntemps: u32,
    out: &mut Vec<Ir>,
    scratch: &mut AllocScratch,
) -> Result<(), CompileError> {
    let AllocScratch { regs, intervals, order, free, assignment, active } = scratch;
    intervals.clear();
    for (pos, op) in ir.iter().enumerate() {
        regs.clear();
        op.uses(regs);
        if let Some(d) = op.def() {
            regs.push(d);
        }
        for &r in regs.iter().filter(|r| r.is_virtual()) {
            let i = dense(r);
            if intervals.len() <= i {
                intervals.resize(i + 1, None);
            }
            intervals[i].get_or_insert((pos, pos)).1 = pos;
        }
    }
    order.clear();
    order.extend(
        intervals
            .iter()
            .enumerate()
            .filter_map(|(i, iv)| Some((VReg(VReg::FIRST_VIRTUAL + i as u16), (*iv)?))),
    );
    order.sort_unstable_by_key(|&(v, (start, _))| (start, v));

    Convention::allocatable_into(isa, free);
    // Reserve the last pool register as the spill temp.
    let spill_temp = free.pop().ok_or_else(|| CompileError::Backend("no registers".into()))?;
    // A second transient temp for ops with two spilled uses.
    let spill_temp2 = if armed(mutops::SPILL_TEMP_ALIASES_ARG0) {
        Convention::for_isa(isa).arg0
    } else {
        Convention::for_isa(isa).arg2
    };

    assignment.clear();
    assignment.resize(intervals.len(), None);
    active.clear();
    let mut next_slot: u32 = 0;
    let take_slot = |next_slot: &mut u32| -> Result<u32, CompileError> {
        let s = *next_slot;
        *next_slot += 1;
        if s >= SPILL_SLOTS {
            return Err(CompileError::Backend("spill area exhausted".into()));
        }
        Ok(s)
    };

    for &(vreg, (start, end)) in order.iter() {
        let expire_early = armed(mutops::EXPIRE_ACTIVE_EARLY);
        active.retain(|&(aend, _, reg)| {
            if aend < start || (expire_early && aend == start) {
                free.push(reg);
                false
            } else {
                true
            }
        });
        if let Some(reg) = free.pop() {
            assignment[dense(vreg)] = Some(Loc::Reg(reg));
            active.push((end, vreg, reg));
        } else if let Some(victim_idx) = active
            .iter()
            .enumerate()
            .max_by_key(|(_, &(aend, _, _))| aend)
            .map(|(i, _)| i)
            .filter(|&i| armed(mutops::DROP_VICTIM_END_FILTER) || active[i].0 > end)
        {
            // Steal the register from the interval that ends last.
            let (_, victim, reg) = active.remove(victim_idx);
            let slot = take_slot(&mut next_slot)?;
            assignment[dense(victim)] = Some(Loc::Slot(slot));
            assignment[dense(vreg)] = Some(Loc::Reg(reg));
            active.push((end, vreg, reg));
        } else {
            let slot = take_slot(&mut next_slot)?;
            assignment[dense(vreg)] = Some(Loc::Slot(slot));
        }
    }
    let location = |v: VReg| assignment.get(dense(v)).copied().flatten();

    let fp = VReg::phys(Convention::for_isa(isa).fp);
    let stride: u32 = if armed(mutops::SPILL_STRIDE_WIDENED) { 8 } else { 4 };
    let bias: u32 = if armed(mutops::SPILL_SLOT_OFF_BY_ONE) { 0 } else { 1 };
    let slot_off =
        move |slot: u32| -> i16 { -((stride * (ntemps + slot + bias)) as i32) as i16 };

    // Rewrite pass.
    out.clear();
    out.reserve(ir.len() * 2);
    let temps = [VReg::phys(spill_temp), VReg::phys(spill_temp2)];
    for &op in ir {
        regs.clear();
        op.uses(regs);
        let def = op.def();
        // Map each distinct spilled use to a transient temp.
        let mut temp_map = TempMap::EMPTY;
        let mut next_temp = 0;
        for &u in regs.iter().filter(|u| u.is_virtual()) {
            if let Some(Loc::Slot(slot)) = location(u) {
                if temp_map.get(u).is_some() {
                    continue;
                }
                if next_temp >= temps.len() {
                    return Err(CompileError::Backend(
                        "more than two spilled operands in one op".into(),
                    ));
                }
                let t = temps[next_temp];
                next_temp += 1;
                if !armed(mutops::DROP_SPILL_RELOAD) {
                    out.push(Ir::Load { dst: t, base: fp, off: slot_off(slot) });
                }
                temp_map.insert(u, t);
            }
        }
        // If the def is spilled, compute into the spill temp (reusing
        // a use temp when def == use keeps two-address forms legal).
        let def_store = match def {
            Some(d) if d.is_virtual() => match location(d) {
                Some(Loc::Slot(slot)) => {
                    let t = temp_map.get(d).unwrap_or(temps[0]);
                    temp_map.insert(d, t);
                    Some((t, slot))
                }
                _ => None,
            },
            _ => None,
        };
        let rewrite = |v: VReg| -> VReg {
            if !v.is_virtual() {
                return v;
            }
            if let Some(t) = temp_map.get(v) {
                return t;
            }
            match location(v) {
                Some(Loc::Reg(r)) => VReg::phys(r),
                _ => v,
            }
        };
        out.push(rewrite_op(op, &rewrite));
        if let Some((t, slot)) = def_store {
            if !armed(mutops::DROP_SPILL_DEF_STORE) {
                out.push(Ir::Store { src: t, base: fp, off: slot_off(slot) });
            }
        }
    }
    Ok(())
}

fn rewrite_op(op: Ir, f: &dyn Fn(VReg) -> VReg) -> Ir {
    match op {
        Ir::MovImm { dst, imm } => Ir::MovImm { dst: f(dst), imm },
        Ir::MovReg { dst, src } => Ir::MovReg { dst: f(dst), src: f(src) },
        Ir::Load { dst, base, off } => Ir::Load { dst: f(dst), base: f(base), off },
        Ir::Store { src, base, off } => Ir::Store { src: f(src), base: f(base), off },
        Ir::Push { src } => Ir::Push { src: f(src) },
        Ir::Pop { dst } => Ir::Pop { dst: f(dst) },
        Ir::Alu { op, dst, a, b } => Ir::Alu { op, dst: f(dst), a: f(a), b: f(b) },
        Ir::AluImm { op, dst, a, imm } => Ir::AluImm { op, dst: f(dst), a: f(a), imm },
        Ir::Cmp { a, b } => Ir::Cmp { a: f(a), b: f(b) },
        Ir::CmpImm { a, imm } => Ir::CmpImm { a: f(a), imm },
        Ir::AllocFloat { dst } => Ir::AllocFloat { dst: f(dst) },
        Ir::AllocObject { reg, class, format } => {
            Ir::AllocObject { reg: f(reg), class, format }
        }
        Ir::FLoad { fd, base, off } => Ir::FLoad { fd, base: f(base), off },
        Ir::FToIntChecked { dst, fs } => Ir::FToIntChecked { dst: f(dst), fs },
        Ir::FExponent { dst, fs } => Ir::FExponent { dst: f(dst), fs },
        Ir::IntToF { fd, src } => Ir::IntToF { fd, src: f(src) },
        other => other,
    }
}

/// Quick sanity helper: true when no virtual register remains.
#[cfg_attr(not(test), allow(dead_code))]
pub fn fully_allocated(ir: &[Ir]) -> bool {
    ir.iter().all(|op| {
        let mut regs = Vec::new();
        op.uses(&mut regs);
        if let Some(d) = op.def() {
            regs.push(d);
        }
        regs.iter().all(|r| !r.is_virtual())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn allocate(ir: Vec<Ir>, isa: Isa, ntemps: u32) -> Result<Vec<Ir>, CompileError> {
        let mut out = Vec::new();
        allocate_into(&ir, isa, ntemps, &mut out)?;
        Ok(out)
    }
    use igjit_machine::AluOp;

    fn v(n: u16) -> VReg {
        VReg(VReg::FIRST_VIRTUAL + n)
    }

    #[test]
    fn simple_sequences_allocate_registers() {
        let ir = vec![
            Ir::MovImm { dst: v(0), imm: 1 },
            Ir::MovImm { dst: v(1), imm: 2 },
            Ir::Alu { op: AluOp::Add, dst: v(2), a: v(0), b: v(1) },
            Ir::MovReg { dst: VReg::phys(Reg(0)), src: v(2) },
            Ir::Ret,
        ];
        for isa in [Isa::X86ish, Isa::Arm32ish] {
            let out = allocate(ir.clone(), isa, 0).unwrap();
            assert!(fully_allocated(&out), "{isa:?}: {out:?}");
        }
    }

    #[test]
    fn allocation_preserves_semantics() {
        use crate::backend::lower;
        use igjit_heap::ObjectMemory;
        use igjit_machine::{Machine, MachineConfig, MachineOutcome};
        let ir = vec![
            Ir::MovImm { dst: v(0), imm: 10 },
            Ir::MovImm { dst: v(1), imm: 20 },
            Ir::MovImm { dst: v(2), imm: 12 },
            Ir::Alu { op: AluOp::Add, dst: v(3), a: v(0), b: v(1) },
            Ir::Alu { op: AluOp::Add, dst: v(4), a: v(3), b: v(2) },
            Ir::MovReg { dst: VReg::phys(Reg(0)), src: v(4) },
        ];
        for isa in [Isa::X86ish, Isa::Arm32ish] {
            let mut full = ir.clone();
            // Frame teardown before returning, as compiled methods do.
            full.push(Ir::MovReg {
                dst: VReg::phys(isa.sp()),
                src: VReg::phys(isa.fp()),
            });
            full.push(Ir::Ret);
            let alloc = allocate(full, isa, 0).unwrap();
            let code = lower(&alloc, isa).unwrap();
            let mut mem = ObjectMemory::new();
            let mut m = Machine::new(&mut mem, isa, &code);
            // Set up FP so spill slots have a home.
            let sp = m.reg(isa.sp());
            m.set_reg(isa.fp(), sp);
            m.set_reg(isa.sp(), sp - SPILL_BYTES);
            assert_eq!(m.run(MachineConfig::default()), MachineOutcome::ReturnedToCaller);
            assert_eq!(m.reg(Reg(0)), 42, "{isa:?}");
        }
    }

    #[test]
    fn many_live_values_spill_on_x86_and_still_compute() {
        use crate::backend::lower;
        use igjit_heap::ObjectMemory;
        use igjit_machine::{Machine, MachineConfig, MachineOutcome};
        // 6 simultaneously-live values exceed every pool.
        let mut ir = Vec::new();
        for i in 0..6u16 {
            ir.push(Ir::MovImm { dst: v(i), imm: u32::from(i) + 1 });
        }
        // Sum them all: 1+2+..+6 = 21.
        ir.push(Ir::Alu { op: AluOp::Add, dst: v(6), a: v(0), b: v(1) });
        ir.push(Ir::Alu { op: AluOp::Add, dst: v(7), a: v(6), b: v(2) });
        ir.push(Ir::Alu { op: AluOp::Add, dst: v(8), a: v(7), b: v(3) });
        ir.push(Ir::Alu { op: AluOp::Add, dst: v(9), a: v(8), b: v(4) });
        ir.push(Ir::Alu { op: AluOp::Add, dst: v(10), a: v(9), b: v(5) });
        ir.push(Ir::MovReg { dst: VReg::phys(Reg(0)), src: v(10) });
        for isa in [Isa::X86ish, Isa::Arm32ish] {
            let mut full = ir.clone();
            full.push(Ir::MovReg {
                dst: VReg::phys(isa.sp()),
                src: VReg::phys(isa.fp()),
            });
            full.push(Ir::Ret);
            let alloc = allocate(full, isa, 2).unwrap();
            assert!(fully_allocated(&alloc), "{isa:?}");
            let code = lower(&alloc, isa).unwrap();
            let mut mem = ObjectMemory::new();
            let mut m = Machine::new(&mut mem, isa, &code);
            let sp = m.reg(isa.sp());
            m.set_reg(isa.fp(), sp);
            m.set_reg(isa.sp(), sp - SPILL_BYTES - 8);
            assert_eq!(m.run(MachineConfig::default()), MachineOutcome::ReturnedToCaller);
            assert_eq!(m.reg(Reg(0)), 21, "{isa:?}");
        }
    }
}
