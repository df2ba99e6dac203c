//! The CPU simulator.

use igjit_heap::{ClassIndex, ObjectFormat, ObjectMemory};

use crate::encoding::decode_instr;
use crate::instr::{AluOp, Cond, FAluOp, FReg, Isa, MInstr, Reg, TrampolineKind};

/// Base address of the machine stack region.
pub const STACK_BASE: u32 = 0x8000_0000;
/// Size of the machine stack region in bytes.
pub const STACK_BYTES: u32 = 1 << 16;
/// Base address where compiled code is mapped.
pub const CODE_BASE: u32 = 0x4000_0000;
/// The return address planted by the test setup; `Ret`-ing to it ends
/// the run ("returned to caller").
pub const RETURN_SENTINEL: u32 = 0x7fff_fff0;

/// Execution limits.
#[derive(Clone, Copy, Debug)]
pub struct MachineConfig {
    /// Maximum instructions executed before giving up.
    pub max_steps: usize,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig { max_steps: 100_000 }
    }
}

/// How a machine run ended.
#[derive(Clone, PartialEq, Debug)]
pub enum MachineOutcome {
    /// Compiled code returned to its caller (native-method success,
    /// or a compiled method return).
    ReturnedToCaller,
    /// A breakpoint/Stop was hit; `code` says which one.
    Breakpoint {
        /// Breakpoint id.
        code: u8,
    },
    /// Compiled code called the send trampoline.
    Send {
        /// Selector id (special-selector index, literal oop bits, or
        /// the mustBeBoolean marker).
        selector_id: u32,
    },
    /// An invalid memory access — the simulated segmentation fault.
    MemoryFault {
        /// Faulting address.
        addr: u32,
    },
    /// The invalid-access recovery needed a register setter that is
    /// missing from the reflection table (the paper's *simulation
    /// error* defect family).
    SimulationError {
        /// The register whose setter is missing.
        register: String,
    },
    /// Step budget exhausted.
    StepLimit,
    /// Undecodable instruction.
    DecodeFault {
        /// Faulting pc.
        pc: u32,
    },
}

#[derive(Clone, Copy, Default, Debug)]
struct Flags {
    zero: bool,
    neg: bool,
    ov: bool,
}

/// The register file and machine stack of a simulator run, reusable
/// across runs (engine v5's batched replay).
///
/// Allocating and zeroing the 64 KiB stack dominated per-run setup
/// when every model replay built a fresh [`Machine`]. A session is
/// allocated once and handed to [`Machine::with_session`] for each
/// run; resets zero only the *dirtied* stack extent (tracked as a
/// low-water mark of written words — the stack grows downward, so a
/// run's footprint is `[dirty_lo, top)`) plus the fixed-size register
/// files, making reset cost proportional to what the previous run
/// actually touched.
#[derive(Clone, Debug)]
pub struct MachineSession {
    /// Sized for the largest register file (Arm32ish's 16); the
    /// decoder guarantees operands stay inside the active ISA's file.
    regs: [u32; 16],
    fregs: [f64; 4],
    stack: Vec<u32>,
    /// Lowest stack word index written since the last reset;
    /// `stack.len()` when the stack is clean.
    dirty_lo: usize,
}

impl Default for MachineSession {
    fn default() -> Self {
        MachineSession::new()
    }
}

impl MachineSession {
    /// A fresh session with a zeroed stack.
    pub fn new() -> MachineSession {
        let words = (STACK_BYTES / 4) as usize;
        MachineSession {
            regs: [0; 16],
            fregs: [0.0; 4],
            stack: vec![0; words],
            dirty_lo: words,
        }
    }

    /// Restores the pristine post-construction state: registers to
    /// zero, every stack word the previous run dirtied back to zero.
    /// Words below the low-water mark were never written and are
    /// already zero, so the reset is O(previous run's footprint).
    fn reset(&mut self) {
        self.regs = [0; 16];
        self.fregs = [0.0; 4];
        for w in &mut self.stack[self.dirty_lo..] {
            *w = 0;
        }
        self.dirty_lo = self.stack.len();
    }
}

/// The session storage a machine runs on: its own (the classic
/// one-shot constructor) or a caller-provided one being recycled.
enum SessionRef<'m> {
    Owned(MachineSession),
    Borrowed(&'m mut MachineSession),
}

impl SessionRef<'_> {
    #[inline]
    fn get(&self) -> &MachineSession {
        match self {
            SessionRef::Owned(s) => s,
            SessionRef::Borrowed(s) => s,
        }
    }

    #[inline]
    fn get_mut(&mut self) -> &mut MachineSession {
        match self {
            SessionRef::Owned(s) => s,
            SessionRef::Borrowed(s) => s,
        }
    }
}

/// The simulated CPU, executing one compiled method against a shared
/// object memory.
pub struct Machine<'m> {
    mem: &'m mut ObjectMemory,
    isa: Isa,
    session: SessionRef<'m>,
    flags: Flags,
    pc: u32,
    code: &'m [u8],
    initial_sp: u32,
}

impl<'m> Machine<'m> {
    /// Maps `code` at [`CODE_BASE`] and prepares a fresh stack and
    /// register file. One-shot: each call allocates its own session.
    pub fn new(mem: &'m mut ObjectMemory, isa: Isa, code: &'m [u8]) -> Machine<'m> {
        Machine::build(mem, isa, code, SessionRef::Owned(MachineSession::new()))
    }

    /// Like [`Machine::new`], but recycling `session`'s register file
    /// and stack (reset to pristine first) instead of allocating.
    pub fn with_session(
        mem: &'m mut ObjectMemory,
        isa: Isa,
        code: &'m [u8],
        session: &'m mut MachineSession,
    ) -> Machine<'m> {
        session.reset();
        Machine::build(mem, isa, code, SessionRef::Borrowed(session))
    }

    fn build(
        mem: &'m mut ObjectMemory,
        isa: Isa,
        code: &'m [u8],
        session: SessionRef<'m>,
    ) -> Machine<'m> {
        let mut m = Machine {
            mem,
            isa,
            session,
            flags: Flags::default(),
            pc: CODE_BASE,
            code,
            initial_sp: 0,
        };
        let top = STACK_BASE + STACK_BYTES;
        m.set_reg(isa.sp(), top);
        // Plant the sentinel return address.
        m.push(RETURN_SENTINEL).expect("fresh stack");
        m.initial_sp = m.reg(isa.sp());
        m
    }

    /// Reads a general-purpose register.
    pub fn reg(&self, r: Reg) -> u32 {
        self.session.get().regs[usize::from(r.0)]
    }

    /// Writes a general-purpose register.
    pub fn set_reg(&mut self, r: Reg, v: u32) {
        self.session.get_mut().regs[usize::from(r.0)] = v;
    }

    /// Reads a float register.
    pub fn freg(&self, f: FReg) -> f64 {
        self.session.get().fregs[usize::from(f.0)]
    }

    /// Writes a float register.
    pub fn set_freg(&mut self, f: FReg, v: f64) {
        self.session.get_mut().fregs[usize::from(f.0)] = v;
    }

    /// The stack pointer value right after setup (operand-stack reads
    /// are relative to this).
    pub fn initial_sp(&self) -> u32 {
        self.initial_sp
    }

    /// The object memory the machine mutates.
    pub fn memory(&mut self) -> &mut ObjectMemory {
        self.mem
    }

    /// Words currently on the machine stack between the live SP and
    /// `initial_sp` (the compiled operand stack), top first.
    pub fn operand_stack_words(&self) -> Vec<u32> {
        let sp = self.reg(self.isa.sp());
        let mut out = Vec::new();
        let mut a = sp;
        while a < self.initial_sp {
            if let Ok(w) = self.read_stack(a) {
                out.push(w);
            }
            a += 4;
        }
        out
    }

    /// Reads a stack-region word (for frame-slot inspection).
    pub fn read_stack(&self, addr: u32) -> Result<u32, u32> {
        if !addr.is_multiple_of(4) || !(STACK_BASE..STACK_BASE + STACK_BYTES).contains(&addr) {
            return Err(addr);
        }
        Ok(self.session.get().stack[((addr - STACK_BASE) / 4) as usize])
    }

    fn write_stack(&mut self, addr: u32, v: u32) -> Result<(), u32> {
        if !addr.is_multiple_of(4) || !(STACK_BASE..STACK_BASE + STACK_BYTES).contains(&addr) {
            return Err(addr);
        }
        let idx = ((addr - STACK_BASE) / 4) as usize;
        let s = self.session.get_mut();
        s.stack[idx] = v;
        if idx < s.dirty_lo {
            s.dirty_lo = idx;
        }
        Ok(())
    }

    fn read_mem(&mut self, addr: u32) -> Result<u32, u32> {
        if (STACK_BASE..STACK_BASE + STACK_BYTES).contains(&addr) {
            return self.read_stack(addr);
        }
        self.mem.read_word_raw(addr).map_err(|_| addr)
    }

    fn write_mem(&mut self, addr: u32, v: u32) -> Result<(), u32> {
        if (STACK_BASE..STACK_BASE + STACK_BYTES).contains(&addr) {
            return self.write_stack(addr, v);
        }
        self.mem.write_word_raw(addr, v).map_err(|_| addr)
    }

    fn push(&mut self, v: u32) -> Result<(), u32> {
        let sp = self.reg(self.isa.sp()).wrapping_sub(4);
        self.write_stack(sp, v)?;
        self.set_reg(self.isa.sp(), sp);
        Ok(())
    }

    fn pop(&mut self) -> Result<u32, u32> {
        let sp = self.reg(self.isa.sp());
        let v = self.read_stack(sp)?;
        self.set_reg(self.isa.sp(), sp.wrapping_add(4));
        Ok(v)
    }

    /// The register-setter reflection table used by the invalid-access
    /// recovery. Mirrors the Pharo simulation's reflective
    /// `registerSetter:` lookup — and, like it (§5.3 *simulation
    /// error*), two float-register setters were never implemented.
    fn reflective_poison_int(&mut self, r: Reg) -> Result<(), String> {
        // All integer-register setters are present.
        self.set_reg(r, 0xbad0_bad0);
        Ok(())
    }

    fn reflective_poison_float(&mut self, f: FReg) -> Result<(), String> {
        match f.0 {
            0 => {
                self.session.get_mut().fregs[0] = f64::NAN;
                Ok(())
            }
            1 => {
                self.session.get_mut().fregs[1] = f64::NAN;
                Ok(())
            }
            // setters for F2 and F3 were never implemented in the
            // simulation runtime.
            n => Err(format!("F{n}")),
        }
    }

    fn set_int_flags(&mut self, result: u32, ov: bool) {
        self.flags.zero = result == 0;
        self.flags.neg = (result as i32) < 0;
        self.flags.ov = ov;
    }

    fn cond_holds(&self, cc: Cond) -> bool {
        match cc {
            Cond::Eq => self.flags.zero,
            Cond::Ne => !self.flags.zero,
            Cond::Lt => self.flags.neg,
            Cond::Le => self.flags.neg || self.flags.zero,
            Cond::Gt => !self.flags.neg && !self.flags.zero,
            Cond::Ge => !self.flags.neg,
            Cond::Ov => self.flags.ov,
            Cond::NoOv => !self.flags.ov,
        }
    }

    fn alu(&mut self, op: AluOp, a: u32, b: u32) -> (u32, bool) {
        match op {
            AluOp::Add => {
                let (r, ov) = (a as i32).overflowing_add(b as i32);
                (r as u32, ov)
            }
            AluOp::Sub => {
                let (r, ov) = (a as i32).overflowing_sub(b as i32);
                (r as u32, ov)
            }
            AluOp::Mul => {
                let wide = i64::from(a as i32) * i64::from(b as i32);
                let r = wide as i32;
                (r as u32, i64::from(r) != wide)
            }
            AluOp::And => (a & b, false),
            AluOp::Or => (a | b, false),
            AluOp::Xor => (a ^ b, false),
            AluOp::Shl => {
                let sh = b & 31;
                let r = a.wrapping_shl(sh);
                // Overflow when shifting back does not recover `a`
                // (the tagging overflow check).
                let ov = ((r as i32) >> sh) != a as i32;
                (r, ov)
            }
            AluOp::Sar => (((a as i32) >> (b & 31)) as u32, false),
            AluOp::Shr => (a.wrapping_shr(b & 31), false),
            AluOp::Div => {
                if b as i32 == 0 {
                    (0, false)
                } else {
                    let (r, ov) = (a as i32).overflowing_div(b as i32);
                    (r as u32, ov)
                }
            }
            AluOp::Rem => {
                if b as i32 == 0 {
                    (0, false)
                } else {
                    ((a as i32).wrapping_rem(b as i32) as u32, false)
                }
            }
        }
    }

    /// Runs until a halt condition.
    pub fn run(&mut self, cfg: MachineConfig) -> MachineOutcome {
        for _ in 0..cfg.max_steps {
            let off = match self.pc.checked_sub(CODE_BASE) {
                Some(o) => o as usize,
                None => return MachineOutcome::DecodeFault { pc: self.pc },
            };
            let Some((instr, len)) = decode_instr(self.code, off, self.isa) else {
                return MachineOutcome::DecodeFault { pc: self.pc };
            };
            let next = self.pc + len as u32;
            self.pc = next;
            match instr {
                MInstr::MovImm { dst, imm } => self.set_reg(dst, imm),
                MInstr::MovReg { dst, src } => {
                    let v = self.reg(src);
                    self.set_reg(dst, v);
                }
                MInstr::Load { dst, base, off } => {
                    let addr = self.reg(base).wrapping_add(off as i32 as u32);
                    match self.read_mem(addr) {
                        Ok(v) => self.set_reg(dst, v),
                        Err(addr) => {
                            // Recovery: reflectively poison the
                            // destination, then report the fault.
                            return match self.reflective_poison_int(dst) {
                                Ok(()) => MachineOutcome::MemoryFault { addr },
                                Err(register) => {
                                    MachineOutcome::SimulationError { register }
                                }
                            };
                        }
                    }
                }
                MInstr::Store { src, base, off } => {
                    let addr = self.reg(base).wrapping_add(off as i32 as u32);
                    let v = self.reg(src);
                    if let Err(addr) = self.write_mem(addr, v) {
                        return MachineOutcome::MemoryFault { addr };
                    }
                }
                MInstr::Push { src } => {
                    let v = self.reg(src);
                    if let Err(addr) = self.push(v) {
                        return MachineOutcome::MemoryFault { addr };
                    }
                }
                MInstr::PopR { dst } => match self.pop() {
                    Ok(v) => self.set_reg(dst, v),
                    Err(addr) => return MachineOutcome::MemoryFault { addr },
                },
                MInstr::AluReg { op, dst, a, b } => {
                    let (va, vb) = (self.reg(a), self.reg(b));
                    let (r, ov) = self.alu(op, va, vb);
                    self.set_reg(dst, r);
                    self.set_int_flags(r, ov);
                }
                MInstr::AluImm { op, dst, a, imm } => {
                    let va = self.reg(a);
                    let (r, ov) = self.alu(op, va, imm);
                    self.set_reg(dst, r);
                    self.set_int_flags(r, ov);
                }
                MInstr::Cmp { a, b } => {
                    let (va, vb) = (self.reg(a) as i32, self.reg(b) as i32);
                    self.flags.zero = va == vb;
                    self.flags.neg = va < vb;
                    self.flags.ov = false;
                }
                MInstr::CmpImm { a, imm } => {
                    let va = self.reg(a) as i32;
                    self.flags.zero = va == imm as i32;
                    self.flags.neg = va < imm as i32;
                    self.flags.ov = false;
                }
                MInstr::Jmp { off } => {
                    self.pc = next.wrapping_add(off as u32);
                }
                MInstr::JmpCc { cc, off } => {
                    if self.cond_holds(cc) {
                        self.pc = next.wrapping_add(off as u32);
                    }
                }
                MInstr::CallTramp { kind, payload } => match kind {
                    TrampolineKind::Send => {
                        return MachineOutcome::Send { selector_id: payload };
                    }
                    TrampolineKind::AllocFloat => {
                        let r = Reg(payload as u8);
                        if r.0 >= self.isa.reg_count() {
                            // The trampoline's reflective register
                            // setter does not exist — a simulation
                            // error, not a crash.
                            return MachineOutcome::SimulationError {
                                register: format!("r{}", r.0),
                            };
                        }
                        let v = self.freg(FReg(0));
                        match self.mem.instantiate_float(v) {
                            Ok(oop) => self.set_reg(r, oop.0),
                            Err(_) => return MachineOutcome::MemoryFault { addr: 0 },
                        }
                    }
                    TrampolineKind::AllocObject => {
                        let r = Reg((payload & 0xff) as u8);
                        if r.0 >= self.isa.reg_count() {
                            return MachineOutcome::SimulationError {
                                register: format!("r{}", r.0),
                            };
                        }
                        let class = ClassIndex((payload >> 8) & 0xfff);
                        let format = ObjectFormat::from_bits((payload >> 20) & 0xf)
                            .unwrap_or(ObjectFormat::Indexable);
                        let n = self.reg(r);
                        if n > 1 << 20 {
                            return MachineOutcome::MemoryFault { addr: 0 };
                        }
                        match self.mem.allocate(class, format, n) {
                            Ok(oop) => self.set_reg(r, oop.0),
                            Err(_) => return MachineOutcome::MemoryFault { addr: 0 },
                        }
                    }
                },
                MInstr::Ret => match self.pop() {
                    Ok(addr) if addr == RETURN_SENTINEL => {
                        return MachineOutcome::ReturnedToCaller;
                    }
                    Ok(addr) => self.pc = addr,
                    Err(addr) => return MachineOutcome::MemoryFault { addr },
                },
                MInstr::Brk { code } => return MachineOutcome::Breakpoint { code },
                MInstr::FLoad { fd, base, off } => {
                    let addr = self.reg(base).wrapping_add(off as i32 as u32);
                    let lo = self.read_mem(addr);
                    let hi = self.read_mem(addr.wrapping_add(4));
                    match (lo, hi) {
                        (Ok(lo), Ok(hi)) => {
                            let bits = u64::from(lo) | (u64::from(hi) << 32);
                            self.set_freg(fd, f64::from_bits(bits));
                        }
                        _ => {
                            return match self.reflective_poison_float(fd) {
                                Ok(()) => MachineOutcome::MemoryFault { addr },
                                Err(register) => {
                                    MachineOutcome::SimulationError { register }
                                }
                            };
                        }
                    }
                }
                MInstr::FAlu { op, fd, fa, fb } => {
                    let (a, b) = (self.freg(fa), self.freg(fb));
                    let r = match op {
                        FAluOp::Add => a + b,
                        FAluOp::Sub => a - b,
                        FAluOp::Mul => a * b,
                        FAluOp::Div => a / b,
                        FAluOp::Fract => a.fract(),
                    };
                    self.set_freg(fd, r);
                }
                MInstr::FCmp { fa, fb } => {
                    let (a, b) = (self.freg(fa), self.freg(fb));
                    self.flags.zero = a == b;
                    self.flags.neg = a < b;
                    self.flags.ov = false;
                }
                MInstr::FToIntChecked { dst, fs } => {
                    let f = self.freg(fs);
                    let fits = f.is_finite()
                        && f.trunc() >= igjit_heap::SMALL_INT_MIN as f64
                        && f.trunc() <= igjit_heap::SMALL_INT_MAX as f64;
                    let v = if fits { f.trunc() as i32 as u32 } else { 0 };
                    self.set_reg(dst, v);
                    self.flags.ov = !fits;
                    self.flags.zero = v == 0;
                    self.flags.neg = (v as i32) < 0;
                }
                MInstr::FExponent { dst, fs } => {
                    let f = self.freg(fs);
                    let e = if f == 0.0 || !f.is_finite() {
                        0
                    } else {
                        f.abs().log2().floor() as i32
                    };
                    self.set_reg(dst, e as u32);
                    self.flags.ov = false;
                }
                MInstr::IntToF { fd, src } => {
                    let v = self.reg(src) as i32;
                    self.set_freg(fd, f64::from(v));
                }
                MInstr::Nop => {}
            }
        }
        MachineOutcome::StepLimit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::encode_instr;

    fn assemble(instrs: &[MInstr], isa: Isa) -> Vec<u8> {
        let mut out = Vec::new();
        for &i in instrs {
            encode_instr(i, isa, &mut out).unwrap();
        }
        out
    }

    fn run_instrs(instrs: &[MInstr], isa: Isa) -> (MachineOutcome, Vec<u32>) {
        let mut mem = ObjectMemory::new();
        let code = assemble(instrs, isa);
        let mut m = Machine::new(&mut mem, isa, &code);
        let out = m.run(MachineConfig::default());
        let regs = (0..isa.reg_count()).map(|i| m.reg(Reg(i))).collect();
        (out, regs)
    }

    #[test]
    fn mov_and_ret_both_isas() {
        for isa in [Isa::X86ish, Isa::Arm32ish] {
            let (out, regs) = run_instrs(
                &[MInstr::MovImm { dst: Reg(0), imm: 42 }, MInstr::Ret],
                isa,
            );
            assert_eq!(out, MachineOutcome::ReturnedToCaller, "{isa:?}");
            assert_eq!(regs[0], 42);
        }
    }

    #[test]
    fn tagged_add_with_overflow_flag() {
        // Cog-style tagged add: tagged(a) + (tagged(b) - 1); the
        // overflow check must read the flags of the *add*.
        let isa = Isa::Arm32ish;
        let a = igjit_heap::Oop::from_small_int(igjit_heap::SMALL_INT_MAX).0;
        let b = igjit_heap::Oop::from_small_int(1).0;
        let (out, _) = run_instrs(
            &[
                MInstr::MovImm { dst: Reg(0), imm: a },
                MInstr::MovImm { dst: Reg(1), imm: b },
                MInstr::AluImm { op: AluOp::Sub, dst: Reg(1), a: Reg(1), imm: 1 },
                MInstr::AluReg { op: AluOp::Add, dst: Reg(0), a: Reg(0), b: Reg(1) },
                MInstr::JmpCc { cc: Cond::Ov, off: 8 },
                MInstr::Brk { code: 0 }, // no overflow
                MInstr::Brk { code: 1 }, // overflow
            ],
            isa,
        );
        assert_eq!(out, MachineOutcome::Breakpoint { code: 1 }, "max+1 overflows");
    }

    #[test]
    fn tagged_add_in_range_does_not_overflow() {
        let isa = Isa::Arm32ish;
        let a = igjit_heap::Oop::from_small_int(20).0;
        let b = igjit_heap::Oop::from_small_int(22).0;
        let (out, regs) = run_instrs(
            &[
                MInstr::MovImm { dst: Reg(0), imm: a },
                MInstr::MovImm { dst: Reg(1), imm: b },
                MInstr::AluImm { op: AluOp::Sub, dst: Reg(1), a: Reg(1), imm: 1 },
                MInstr::AluReg { op: AluOp::Add, dst: Reg(0), a: Reg(0), b: Reg(1) },
                MInstr::JmpCc { cc: Cond::Ov, off: 8 },
                MInstr::Brk { code: 0 },
                MInstr::Brk { code: 1 },
            ],
            isa,
        );
        assert_eq!(out, MachineOutcome::Breakpoint { code: 0 });
        assert_eq!(regs[0], igjit_heap::Oop::from_small_int(42).0);
    }

    #[test]
    fn shl_overflow_detects_untaggable_values() {
        let isa = Isa::X86ish;
        // 2^30 << 1 loses the sign bit: tagging overflow.
        // (x86ish Brk encodes in 2 bytes, hence the offset.)
        let (out, _) = run_instrs(
            &[
                MInstr::MovImm { dst: Reg(0), imm: 1 << 30 },
                MInstr::AluImm { op: AluOp::Shl, dst: Reg(0), a: Reg(0), imm: 1 },
                MInstr::JmpCc { cc: Cond::Ov, off: 2 },
                MInstr::Brk { code: 0 },
                MInstr::Brk { code: 1 },
            ],
            isa,
        );
        assert_eq!(out, MachineOutcome::Breakpoint { code: 1 });
    }

    #[test]
    fn division_ops() {
        let isa = Isa::Arm32ish;
        let (out, regs) = run_instrs(
            &[
                MInstr::MovImm { dst: Reg(0), imm: (-7i32) as u32 },
                MInstr::MovImm { dst: Reg(1), imm: 2 },
                MInstr::AluReg { op: AluOp::Div, dst: Reg(2), a: Reg(0), b: Reg(1) },
                MInstr::AluReg { op: AluOp::Rem, dst: Reg(3), a: Reg(0), b: Reg(1) },
                MInstr::Ret,
            ],
            isa,
        );
        assert_eq!(out, MachineOutcome::ReturnedToCaller);
        assert_eq!(regs[2] as i32, -3, "truncated division");
        assert_eq!(regs[3] as i32, -1, "truncated remainder");
    }

    #[test]
    fn division_by_zero_yields_zero_not_a_trap() {
        let (out, regs) = run_instrs(
            &[
                MInstr::MovImm { dst: Reg(2), imm: 5 },
                MInstr::MovImm { dst: Reg(1), imm: 0 },
                MInstr::AluReg { op: AluOp::Div, dst: Reg(2), a: Reg(2), b: Reg(1) },
                MInstr::Ret,
            ],
            Isa::X86ish,
        );
        assert_eq!(out, MachineOutcome::ReturnedToCaller);
        assert_eq!(regs[2], 0);
    }

    #[test]
    fn push_pop_roundtrip() {
        let (out, regs) = run_instrs(
            &[
                MInstr::MovImm { dst: Reg(0), imm: 7 },
                MInstr::Push { src: Reg(0) },
                MInstr::MovImm { dst: Reg(0), imm: 0 },
                MInstr::PopR { dst: Reg(1) },
                MInstr::Ret,
            ],
            Isa::X86ish,
        );
        assert_eq!(out, MachineOutcome::ReturnedToCaller);
        assert_eq!(regs[1], 7);
    }

    #[test]
    fn operand_stack_words_reads_pushed_values() {
        let mut mem = ObjectMemory::new();
        let code = assemble(
            &[
                MInstr::MovImm { dst: Reg(0), imm: 11 },
                MInstr::Push { src: Reg(0) },
                MInstr::MovImm { dst: Reg(0), imm: 22 },
                MInstr::Push { src: Reg(0) },
                MInstr::Brk { code: 0 },
            ],
            Isa::Arm32ish,
        );
        let mut m = Machine::new(&mut mem, Isa::Arm32ish, &code);
        assert_eq!(m.run(MachineConfig::default()), MachineOutcome::Breakpoint { code: 0 });
        assert_eq!(m.operand_stack_words(), vec![22, 11], "top first");
    }

    #[test]
    fn heap_loads_and_stores() {
        let mut mem = ObjectMemory::new();
        let arr = mem
            .instantiate_array(&[igjit_heap::Oop::from_small_int(5)])
            .unwrap();
        let body = arr.address() + 4 * igjit_heap::HEADER_WORDS;
        let code = assemble(
            &[
                MInstr::MovImm { dst: Reg(1), imm: body },
                MInstr::Load { dst: Reg(0), base: Reg(1), off: 0 },
                MInstr::MovImm { dst: Reg(2), imm: igjit_heap::Oop::from_small_int(9).0 },
                MInstr::Store { src: Reg(2), base: Reg(1), off: 0 },
                MInstr::Ret,
            ],
            Isa::X86ish,
        );
        let mut m = Machine::new(&mut mem, Isa::X86ish, &code);
        assert_eq!(m.run(MachineConfig::default()), MachineOutcome::ReturnedToCaller);
        assert_eq!(m.reg(Reg(0)), igjit_heap::Oop::from_small_int(5).0);
        assert_eq!(mem.fetch_pointer(arr, 0).unwrap().small_int_value(), 9);
    }

    #[test]
    fn invalid_loads_fault_with_poisoned_register() {
        let mut mem = ObjectMemory::new();
        let code = assemble(
            &[
                MInstr::MovImm { dst: Reg(1), imm: 0x1234_5679 }, // misaligned garbage
                MInstr::Load { dst: Reg(0), base: Reg(1), off: 0 },
                MInstr::Ret,
            ],
            Isa::X86ish,
        );
        let mut m = Machine::new(&mut mem, Isa::X86ish, &code);
        match m.run(MachineConfig::default()) {
            MachineOutcome::MemoryFault { .. } => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(m.reg(Reg(0)), 0xbad0_bad0, "int setter exists, poison applied");
    }

    #[test]
    fn float_load_fault_on_low_fregs_is_a_memory_fault() {
        let mut mem = ObjectMemory::new();
        let code = assemble(
            &[
                MInstr::MovImm { dst: Reg(1), imm: 3 },
                MInstr::FLoad { fd: FReg(0), base: Reg(1), off: 0 },
            ],
            Isa::Arm32ish,
        );
        let mut m = Machine::new(&mut mem, Isa::Arm32ish, &code);
        assert!(matches!(m.run(MachineConfig::default()), MachineOutcome::MemoryFault { .. }));
    }

    #[test]
    fn float_load_fault_on_high_fregs_is_a_simulation_error() {
        // The planted defect: F2/F3 setters are missing from the
        // reflection table.
        let mut mem = ObjectMemory::new();
        let code = assemble(
            &[
                MInstr::MovImm { dst: Reg(1), imm: 3 },
                MInstr::FLoad { fd: FReg(2), base: Reg(1), off: 0 },
            ],
            Isa::Arm32ish,
        );
        let mut m = Machine::new(&mut mem, Isa::Arm32ish, &code);
        assert_eq!(
            m.run(MachineConfig::default()),
            MachineOutcome::SimulationError { register: "F2".into() }
        );
    }

    #[test]
    fn send_trampoline_halts_with_selector() {
        let (out, _) = run_instrs(
            &[MInstr::CallTramp { kind: TrampolineKind::Send, payload: 5 }],
            Isa::X86ish,
        );
        assert_eq!(out, MachineOutcome::Send { selector_id: 5 });
    }

    #[test]
    fn alloc_float_trampoline_continues() {
        let mut mem = ObjectMemory::new();
        let code = assemble(
            &[
                MInstr::MovImm { dst: Reg(1), imm: 4 },
                MInstr::IntToF { fd: FReg(0), src: Reg(1) },
                MInstr::CallTramp { kind: TrampolineKind::AllocFloat, payload: 0 },
                MInstr::Ret,
            ],
            Isa::X86ish,
        );
        let mut m = Machine::new(&mut mem, Isa::X86ish, &code);
        assert_eq!(m.run(MachineConfig::default()), MachineOutcome::ReturnedToCaller);
        let oop = igjit_heap::Oop(m.reg(Reg(0)));
        assert_eq!(mem.float_value_of(oop).unwrap(), 4.0);
    }

    #[test]
    fn conditional_jumps_and_cmp() {
        let (out, _) = run_instrs(
            &[
                MInstr::MovImm { dst: Reg(0), imm: 3 },
                MInstr::CmpImm { a: Reg(0), imm: 5 },
                MInstr::JmpCc { cc: Cond::Lt, off: 2 }, // skip Brk 0 (2 bytes on x86)
                MInstr::Brk { code: 0 },
                MInstr::Brk { code: 1 },
            ],
            Isa::X86ish,
        );
        assert_eq!(out, MachineOutcome::Breakpoint { code: 1 });
    }

    #[test]
    fn infinite_loop_hits_step_limit() {
        let (out, _) = run_instrs(&[MInstr::Jmp { off: -5 }], Isa::X86ish);
        assert_eq!(out, MachineOutcome::StepLimit);
    }

    #[test]
    fn undecodable_code_faults() {
        let mut mem = ObjectMemory::new();
        let mut m = Machine::new(&mut mem, Isa::X86ish, &[0xFF]);
        assert!(matches!(m.run(MachineConfig::default()), MachineOutcome::DecodeFault { .. }));
    }

    #[test]
    fn signed_negative_compare() {
        let (out, _) = run_instrs(
            &[
                MInstr::MovImm { dst: Reg(0), imm: (-5i32) as u32 },
                MInstr::CmpImm { a: Reg(0), imm: 0 },
                MInstr::JmpCc { cc: Cond::Lt, off: 2 },
                MInstr::Brk { code: 0 },
                MInstr::Brk { code: 1 },
            ],
            Isa::X86ish,
        );
        assert_eq!(out, MachineOutcome::Breakpoint { code: 1 }, "-5 < 0 signed");
    }
}
