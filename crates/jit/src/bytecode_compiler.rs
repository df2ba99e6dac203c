//! The bytecode front-ends.
//!
//! One generator serves all three tiers, differing by
//! [`CompilerOptions`] exactly as the Cogit tiers differ (§4.1):
//! `RegisterAllocatingCogit` extends `StackToRegisterMappingCogit`
//! extends the common Cogit. The **semantic divergences between the
//! tiers are real**, not simulated: the SimpleStack tier genuinely
//! compiles every arithmetic bytecode to a send, and no tier inlines
//! the Float fast path the interpreter has — which is precisely the
//! paper's *optimisation difference* defect family.
//!
//! Compilation follows the §4.2 test schema: preamble (frame pointer,
//! temp materialisation, spill reserve), `genPushLiteral` for each
//! operand-stack input, the instruction IR, exit-specific epilogues
//! (`Stop` breakpoints, sends, returns).

use igjit_bytecode::{Instruction, SpecialSelector};
use igjit_heap::{ClassIndex, Oop, HEADER_WORDS};
use igjit_machine::{AluOp, Cond, Isa, Reg};
use igjit_mutate::{armed, ops as mutops};

use crate::backend::lower;
use crate::convention::Convention;
use crate::ir::{Ir, LabelId, VReg, MUST_BE_BOOLEAN_SELECTOR};
use crate::regalloc::{allocate_into, SPILL_BYTES};
use crate::{stops, CompileError, CompiledCode};

/// Which front-end tier compiles the test.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CompilerKind {
    /// Push/pop bytecodes map 1:1 to machine pushes/pops; **no**
    /// static type prediction at all.
    SimpleStackBased,
    /// Parse-time stack; inlines SmallInteger (but not Float)
    /// arithmetic; in production for over a decade.
    StackToRegister,
    /// StackToRegister plus a linear-scan register allocator
    /// (experimental).
    RegisterAllocating,
}

impl CompilerKind {
    /// The tier's options.
    pub fn options(self) -> CompilerOptions {
        match self {
            CompilerKind::SimpleStackBased => CompilerOptions {
                inline_smallint_arith: false,
                inline_quick_sends: true,
                parse_time_stack: false,
                use_vregs: false,
            },
            CompilerKind::StackToRegister => CompilerOptions {
                inline_smallint_arith: true,
                inline_quick_sends: true,
                parse_time_stack: true,
                use_vregs: false,
            },
            CompilerKind::RegisterAllocating => CompilerOptions {
                inline_smallint_arith: true,
                inline_quick_sends: true,
                parse_time_stack: true,
                use_vregs: true,
            },
        }
    }

    /// Display name matching the paper's Table 2 rows.
    pub fn name(self) -> &'static str {
        match self {
            CompilerKind::SimpleStackBased => "Simple Stack BC Compiler",
            CompilerKind::StackToRegister => "Stack-to-Register BC Compiler",
            CompilerKind::RegisterAllocating => "Linear-Scan Allocator BC Compiler",
        }
    }

    /// All three tiers.
    pub const ALL: [CompilerKind; 3] = [
        CompilerKind::SimpleStackBased,
        CompilerKind::StackToRegister,
        CompilerKind::RegisterAllocating,
    ];
}

/// Tier-defining switches.
#[derive(Clone, Copy, Debug)]
pub struct CompilerOptions {
    /// Inline the SmallInteger fast paths of arithmetic bytecodes
    /// (static type prediction; the Float path is **never** inlined by
    /// any tier — the interpreter inlines it, hence the differences).
    pub inline_smallint_arith: bool,
    /// Inline the `at:`/`at:put:`/`size` quick paths.
    pub inline_quick_sends: bool,
    /// Defer pushes on a parse-time stack (StackToRegister+).
    pub parse_time_stack: bool,
    /// Emit virtual registers and run linear scan.
    pub use_vregs: bool,
}

/// Everything a bytecode instruction test embeds at compile time
/// (§4.2: the concrete frame values become `genPushLiteral`s).
#[derive(Clone, Debug)]
pub struct BytecodeTestInput<'a> {
    /// The instruction under test.
    pub instruction: Instruction,
    /// Operand-stack inputs, bottom first.
    pub operand_stack: &'a [Oop],
    /// Temp values the preamble materializes.
    pub temps: &'a [Oop],
    /// Method literals (selectors, constants) referenced by index.
    pub literals: &'a [Oop],
    /// Canonical `nil` of the target heap.
    pub nil: Oop,
    /// Canonical `true`.
    pub true_obj: Oop,
    /// Canonical `false`.
    pub false_obj: Oop,
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum Entry {
    Imm(u32),
    R(VReg),
    OnMachineStack,
}

struct Gen<'a> {
    opts: CompilerOptions,
    conv: Convention,
    input: &'a BytecodeTestInput<'a>,
    ir: &'a mut Vec<Ir>,
    next_label: u16,
    next_vreg: u16,
    free_regs: &'a mut Vec<Reg>,
    sim: &'a mut Vec<Entry>,
    taken_label: Option<LabelId>,
}

/// The buffers one compile works in, kept per thread so that, once
/// grown, a compile allocates only the code it returns.
#[derive(Default)]
struct GenScratch {
    /// The front-end's IR.
    ir: Vec<Ir>,
    /// The allocator's rewrite of `ir`.
    allocated: Vec<Ir>,
    free_regs: Vec<Reg>,
    sim: Vec<Entry>,
}

thread_local! {
    static GEN_SCRATCH: std::cell::Cell<GenScratch> = std::cell::Cell::new(GenScratch::default());
}

const BODY_OFF: i16 = (HEADER_WORDS * 4) as i16;
const SIZE_OFF: i16 = 4;

/// Logical negation of a condition code (the `flip-compare-cond`
/// mutation).
fn negate_cond(cc: Cond) -> Cond {
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

impl<'a> Gen<'a> {
    /// A generator working in `scratch`'s buffers, which it empties.
    fn new(
        opts: CompilerOptions,
        input: &'a BytecodeTestInput<'a>,
        isa: Isa,
        scratch: &'a mut GenScratch,
    ) -> Gen<'a> {
        let GenScratch { ir, free_regs, sim, .. } = scratch;
        ir.clear();
        sim.clear();
        free_regs.clear();
        // The scratch register (R4) is reserved for transients and
        // excluded from the parse-stack pool.
        free_regs.extend_from_slice(&[Reg(5), Reg(3), Reg(2), Reg(1)]);
        Gen {
            opts,
            conv: Convention::for_isa(isa),
            input,
            ir,
            next_label: 0,
            next_vreg: VReg::FIRST_VIRTUAL,
            free_regs,
            sim,
            taken_label: None,
        }
    }

    fn label(&mut self) -> LabelId {
        let l = LabelId(self.next_label);
        self.next_label += 1;
        l
    }

    fn bind(&mut self, l: LabelId) {
        self.ir.push(Ir::Label(l));
    }

    /// A register for a value that stays live on the parse stack.
    fn fresh(&mut self) -> VReg {
        if self.opts.use_vregs {
            let v = VReg(self.next_vreg);
            self.next_vreg += 1;
            return v;
        }
        if self.free_regs.is_empty() {
            self.flush_sim();
        }
        let r = self.free_regs.pop().expect("flush refills the pool");
        VReg::phys(r)
    }

    /// Returns pool registers that no parse-stack entry references any
    /// more — called at instruction boundaries, where consumed
    /// operands' registers are definitely dead (sequence compilation).
    fn recycle_regs(&mut self) {
        if self.opts.use_vregs {
            return;
        }
        for r in [Reg(1), Reg(2), Reg(3), Reg(5)] {
            let live = self
                .sim
                .iter()
                .any(|e| matches!(e, Entry::R(v) if v.as_phys() == Some(r)));
            if !live && !self.free_regs.contains(&r) {
                self.free_regs.push(r);
            }
        }
    }

    fn fp(&self) -> VReg {
        VReg::phys(self.conv.fp)
    }

    fn receiver(&self) -> VReg {
        VReg::phys(self.conv.receiver)
    }

    /// Spills every parse-stack entry to the machine stack.
    fn flush_sim(&mut self) {
        for i in 0..self.sim.len() {
            match self.sim[i] {
                Entry::Imm(imm) => {
                    let t = if self.opts.use_vregs {
                        let v = VReg(self.next_vreg);
                        self.next_vreg += 1;
                        v
                    } else {
                        VReg::phys(self.conv.scratch)
                    };
                    self.ir.push(Ir::MovImm { dst: t, imm });
                    self.ir.push(Ir::Push { src: t });
                }
                Entry::R(v) => {
                    self.ir.push(Ir::Push { src: v });
                    if let Some(r) = v.as_phys() {
                        if !self.free_regs.contains(&r) && r.0 >= 1 && r.0 <= 5 {
                            self.free_regs.push(r);
                        }
                    }
                }
                Entry::OnMachineStack => {}
            }
            self.sim[i] = Entry::OnMachineStack;
        }
    }

    /// Pushes a compile-time constant (`genPushLiteral`, §4.2).
    fn push_imm(&mut self, imm: u32) {
        if self.opts.parse_time_stack {
            self.sim.push(Entry::Imm(imm));
        } else {
            let t = self.fresh_transient();
            self.ir.push(Ir::MovImm { dst: t, imm });
            self.ir.push(Ir::Push { src: t });
            self.sim.push(Entry::OnMachineStack);
        }
    }

    /// A register that is consumed immediately (safe to reuse).
    fn fresh_transient(&mut self) -> VReg {
        if self.opts.use_vregs {
            let v = VReg(self.next_vreg);
            self.next_vreg += 1;
            v
        } else {
            VReg::phys(self.conv.scratch)
        }
    }

    /// Pushes a register value.
    fn push_reg(&mut self, v: VReg) {
        if self.opts.parse_time_stack {
            self.sim.push(Entry::R(v));
        } else {
            self.ir.push(Ir::Push { src: v });
            self.sim.push(Entry::OnMachineStack);
        }
    }

    /// Pops the top value into a register.
    fn pop_value(&mut self) -> VReg {
        match self.sim.pop() {
            Some(Entry::R(v)) => v,
            Some(Entry::Imm(imm)) => {
                let v = self.fresh();
                self.ir.push(Ir::MovImm { dst: v, imm });
                v
            }
            Some(Entry::OnMachineStack) | None => {
                // Values under test always exist (paths needing more
                // were filtered as InvalidFrame); popping an empty sim
                // stack means the value is on the machine stack.
                let v = self.fresh();
                self.ir.push(Ir::Pop { dst: v });
                v
            }
        }
    }

    /// Jumps to `slow` unless `v` is a tagged SmallInteger.
    fn check_small_int(&mut self, v: VReg, slow: LabelId) {
        let t = self.fresh_transient();
        self.ir.push(Ir::AluImm { op: AluOp::And, dst: t, a: v, imm: 1 });
        self.ir.push(Ir::JumpCc(Cond::Eq, slow)); // low bit clear → pointer
    }

    /// Jumps to `slow` when `v` *is* a tagged SmallInteger.
    fn check_pointer(&mut self, v: VReg, slow: LabelId) {
        let t = self.fresh_transient();
        self.ir.push(Ir::AluImm { op: AluOp::And, dst: t, a: v, imm: 1 });
        self.ir.push(Ir::JumpCc(Cond::Ne, slow));
    }

    /// Jumps to `slow` unless `v`'s class index equals `class`.
    fn check_class(&mut self, v: VReg, class: ClassIndex, slow: LabelId) {
        let t = self.fresh_transient();
        self.ir.push(Ir::Load { dst: t, base: v, off: 0 });
        self.ir.push(Ir::AluImm { op: AluOp::And, dst: t, a: t, imm: 0x00ff_ffff });
        self.ir.push(Ir::CmpImm { a: t, imm: class.value() });
        self.ir.push(Ir::JumpCc(Cond::Ne, slow));
    }

    /// Marshals receiver and args into the convention registers via
    /// the machine stack (clobber-safe) and emits the send.
    fn send(&mut self, receiver: VReg, args: &[VReg], selector_id: u32) {
        self.ir.push(Ir::Push { src: receiver });
        for &a in args {
            self.ir.push(Ir::Push { src: a });
        }
        for i in (0..args.len()).rev() {
            self.ir.push(Ir::Pop { dst: VReg::phys(self.conv.arg(i)) });
        }
        self.ir.push(Ir::Pop { dst: VReg::phys(self.conv.receiver) });
        self.ir.push(Ir::Send { selector_id });
    }

    fn send_special(&mut self, receiver: VReg, args: &[VReg], sel: SpecialSelector) {
        self.send(receiver, args, sel.index());
    }

    /// Saves the slow path's operands on the machine stack (receiver
    /// first) so inline fast paths may clobber their registers freely
    /// — the way Cog spills around inlined primitives.
    fn save_operands(&mut self, regs: &[VReg]) {
        for &r in regs {
            self.ir.push(Ir::Push { src: r });
        }
    }

    /// Drops `n` saved operands on the success path. Clobbers flags,
    /// so call it before the final flag-producing op of the path.
    fn drop_saved(&mut self, n: u32) {
        let sp = VReg::phys(self.conv.sp);
        self.ir.push(Ir::AluImm { op: AluOp::Add, dst: sp, a: sp, imm: 4 * n });
    }

    /// Slow-path entry: restores receiver + `nargs` args from the
    /// saves (pushed receiver-first) and performs the send.
    fn slow_send(&mut self, nargs: usize, selector_id: u32) {
        for i in (0..nargs).rev() {
            self.ir.push(Ir::Pop { dst: VReg::phys(self.conv.arg(i)) });
        }
        self.ir.push(Ir::Pop { dst: VReg::phys(self.conv.receiver) });
        self.ir.push(Ir::Send { selector_id });
    }

    /// Pushes a boolean result selected by the current flags.
    fn push_bool(&mut self, cc: Cond) {
        let res = self.fresh();
        let ltrue = self.label();
        let lend = self.label();
        self.ir.push(Ir::JumpCc(cc, ltrue));
        self.ir.push(Ir::MovImm { dst: res, imm: self.input.false_obj.0 });
        self.ir.push(Ir::Jump(lend));
        self.bind(ltrue);
        self.ir.push(Ir::MovImm { dst: res, imm: self.input.true_obj.0 });
        self.bind(lend);
        self.push_reg(res);
    }

    fn temp_off(&self, n: u8) -> i16 {
        let bias = if armed(mutops::TEMP_OFFSET_OFF_BY_ONE) { 0 } else { 1 };
        -(4 * (i32::from(n) + bias)) as i16
    }

    fn literal_oop(&self, n: u8) -> Oop {
        self.input.literals.get(usize::from(n)).copied().unwrap_or(self.input.nil)
    }

    fn retag(&mut self, v: VReg, overflow_to: Option<LabelId>) {
        self.ir.push(Ir::AluImm { op: AluOp::Shl, dst: v, a: v, imm: 1 });
        if let Some(slow) = overflow_to {
            self.ir.push(Ir::JumpCc(Cond::Ov, slow));
        }
        if !armed(mutops::DROP_RETAG_TAG_BIT) {
            self.ir.push(Ir::AluImm { op: AluOp::Or, dst: v, a: v, imm: 1 });
        }
    }

    fn untag(&mut self, dst: VReg, src: VReg) {
        let sh = if armed(mutops::UNTAG_SHIFT_OFF_BY_ONE) { 2 } else { 1 };
        self.ir.push(Ir::AluImm { op: AluOp::Sar, dst, a: src, imm: sh });
    }

    // ------------------------------------------------------------------

    fn gen(&mut self, instr: Instruction) -> Result<(), CompileError> {
        use Instruction as I;
        match instr {
            I::PushReceiverVariable(n) | I::PushReceiverVariableLong(n) => {
                let v = self.fresh();
                let rcvr = self.receiver();
                let body = if armed(mutops::RECEIVER_VAR_OFFSET_SKIPS_HEADER) { 0 } else { BODY_OFF };
                self.ir.push(Ir::Load {
                    dst: v,
                    base: rcvr,
                    off: body + 4 * i16::from(n),
                });
                self.push_reg(v);
            }
            I::PushTemp(n) | I::PushTempLong(n) => {
                let v = self.fresh();
                let fp = self.fp();
                self.ir.push(Ir::Load { dst: v, base: fp, off: self.temp_off(n) });
                self.push_reg(v);
            }
            I::PushLiteralConstant(n) | I::PushLiteralLong(n) => {
                let lit = self.literal_oop(n);
                self.push_imm(lit.0);
            }
            I::PushLiteralVariable(n) => {
                let assoc = self.literal_oop(n);
                let b = self.fresh();
                self.ir.push(Ir::MovImm { dst: b, imm: assoc.0 });
                self.ir.push(Ir::Load { dst: b, base: b, off: BODY_OFF + 4 });
                self.push_reg(b);
            }
            I::PushReceiver => {
                let r = self.receiver();
                self.push_reg(r);
            }
            I::PushTrue => self.push_imm(self.input.true_obj.0),
            I::PushFalse => self.push_imm(self.input.false_obj.0),
            I::PushNil => self.push_imm(self.input.nil.0),
            I::PushZero => self.push_imm(Oop::from_small_int(0).0),
            I::PushOne => self.push_imm(Oop::from_small_int(1).0),
            I::PushMinusOne => self.push_imm(Oop::from_small_int(-1).0),
            I::PushTwo => self.push_imm(Oop::from_small_int(2).0),
            I::PushInteger(v) => self.push_imm(Oop::from_small_int(i64::from(v)).0),
            I::PushThisContext => {
                return Err(CompileError::Unsupported("stack-frame reification"))
            }

            I::Dup => {
                if self.opts.parse_time_stack {
                    match self.sim.last().copied() {
                        Some(Entry::OnMachineStack) | None => {
                            let v = self.pop_value();
                            self.push_reg(v);
                            self.push_reg(v);
                        }
                        Some(e) => self.sim.push(e),
                    }
                } else {
                    let v = self.pop_value();
                    self.push_reg(v);
                    self.push_reg(v);
                }
            }
            I::Pop => {
                if matches!(self.sim.last(), Some(Entry::OnMachineStack)) {
                    let t = self.fresh_transient();
                    self.ir.push(Ir::Pop { dst: t });
                    self.sim.pop();
                } else {
                    self.sim.pop();
                }
            }

            I::PopIntoTemp(n) => {
                let v = self.pop_value();
                let fp = self.fp();
                self.ir.push(Ir::Store { src: v, base: fp, off: self.temp_off(n) });
            }
            I::StoreTemp(n) | I::StoreTempLong(n) => {
                let v = self.pop_value();
                let fp = self.fp();
                self.ir.push(Ir::Store { src: v, base: fp, off: self.temp_off(n) });
                self.push_reg(v);
            }
            I::PopIntoReceiverVariable(n) => {
                let v = self.pop_value();
                let rcvr = self.receiver();
                self.ir.push(Ir::Store {
                    src: v,
                    base: rcvr,
                    off: BODY_OFF + 4 * i16::from(n),
                });
            }
            I::StoreReceiverVariableLong(n) => {
                let v = self.pop_value();
                let rcvr = self.receiver();
                self.ir.push(Ir::Store {
                    src: v,
                    base: rcvr,
                    off: BODY_OFF + 4 * i16::from(n),
                });
                self.push_reg(v);
            }

            I::Add => self.gen_arith(AluOp::Add, SpecialSelector::Plus),
            I::Subtract => self.gen_arith(AluOp::Sub, SpecialSelector::Minus),
            I::Multiply => self.gen_arith(AluOp::Mul, SpecialSelector::Times),
            I::Divide => self.gen_divide(),
            I::Modulo => self.gen_mod_like(true),
            I::IntegerDivide => self.gen_mod_like(false),
            I::LessThan => self.gen_compare(Cond::Lt, SpecialSelector::LessThan),
            I::GreaterThan => self.gen_compare(Cond::Gt, SpecialSelector::GreaterThan),
            I::LessOrEqual => self.gen_compare(Cond::Le, SpecialSelector::LessOrEqual),
            I::GreaterOrEqual => self.gen_compare(Cond::Ge, SpecialSelector::GreaterOrEqual),
            I::Equal => self.gen_compare(Cond::Eq, SpecialSelector::Equal),
            I::NotEqual => self.gen_compare(Cond::Ne, SpecialSelector::NotEqual),
            I::IdentityEqual => {
                let arg = self.pop_value();
                let rcvr = self.pop_value();
                self.ir.push(Ir::Cmp { a: rcvr, b: arg });
                self.push_bool(Cond::Eq);
            }
            I::BitAnd => self.gen_bitop(AluOp::And, SpecialSelector::BitAnd),
            I::BitOr => self.gen_bitop(AluOp::Or, SpecialSelector::BitOr),
            I::BitShift => self.gen_bitshift(),

            I::SpecialSendAt => self.gen_at(),
            I::SpecialSendAtPut => self.gen_at_put(),
            I::SpecialSendSize => self.gen_size(),
            I::SpecialSendValue => self.gen_unary_send(SpecialSelector::Value),
            I::SpecialSendNew => self.gen_unary_send(SpecialSelector::New),
            I::SpecialSendClass => self.gen_unary_send(SpecialSelector::Class),

            I::Send { lit, nargs } => {
                let selector = self.literal_oop(lit);
                let n = usize::from(nargs);
                let mut args = Vec::with_capacity(n);
                for _ in 0..n {
                    args.push(self.pop_value());
                }
                args.reverse();
                let rcvr = self.pop_value();
                self.send(rcvr, &args, selector.0);
            }

            I::ReturnReceiver => self.teardown_and_ret(),
            I::ReturnTrue => {
                let r = self.receiver();
                self.ir.push(Ir::MovImm { dst: r, imm: self.input.true_obj.0 });
                self.teardown_and_ret();
            }
            I::ReturnFalse => {
                let r = self.receiver();
                self.ir.push(Ir::MovImm { dst: r, imm: self.input.false_obj.0 });
                self.teardown_and_ret();
            }
            I::ReturnNil => {
                let r = self.receiver();
                self.ir.push(Ir::MovImm { dst: r, imm: self.input.nil.0 });
                self.teardown_and_ret();
            }
            I::ReturnTop => {
                let v = self.pop_value();
                let r = self.receiver();
                self.ir.push(Ir::MovReg { dst: r, src: v });
                self.teardown_and_ret();
            }

            I::ShortJumpForward(_) | I::LongJumpForward(_) => {
                self.flush_sim();
                let taken = self.taken();
                self.ir.push(Ir::Jump(taken));
            }
            I::ShortJumpTrue(_) | I::LongJumpTrue(_) => self.gen_cond_jump(true),
            I::ShortJumpFalse(_) | I::LongJumpFalse(_) => self.gen_cond_jump(false),

            I::Nop => {}
        }
        Ok(())
    }

    /// Frame teardown + return: the frame pointer still holds the
    /// entry SP (which points at the caller's return address).
    fn teardown_and_ret(&mut self) {
        let sp = VReg::phys(self.conv.sp);
        let fp = VReg::phys(self.conv.fp);
        if !armed(mutops::DROP_TEARDOWN_SP_RESTORE) {
            self.ir.push(Ir::MovReg { dst: sp, src: fp });
        }
        self.ir.push(Ir::Ret);
    }

    fn taken(&mut self) -> LabelId {
        if let Some(l) = self.taken_label {
            return l;
        }
        let l = self.label();
        self.taken_label = Some(l);
        l
    }

    fn gen_cond_jump(&mut self, jump_on_true: bool) {
        let v = self.pop_value();
        self.flush_sim();
        let taken = self.taken();
        let fall = self.label();
        let (mut on_true, mut on_false) =
            if jump_on_true { (taken, fall) } else { (fall, taken) };
        if armed(mutops::COND_JUMP_SWAP_TARGETS) {
            std::mem::swap(&mut on_true, &mut on_false);
        }
        self.ir.push(Ir::CmpImm { a: v, imm: self.input.true_obj.0 });
        self.ir.push(Ir::JumpCc(Cond::Eq, on_true));
        self.ir.push(Ir::CmpImm { a: v, imm: self.input.false_obj.0 });
        self.ir.push(Ir::JumpCc(Cond::Eq, on_false));
        // Neither boolean: the mustBeBoolean error send.
        if !armed(mutops::DROP_MUST_BE_BOOLEAN) {
            let rcvr = VReg::phys(self.conv.receiver);
            self.ir.push(Ir::MovReg { dst: rcvr, src: v });
            self.ir.push(Ir::Send { selector_id: MUST_BE_BOOLEAN_SELECTOR });
        }
        self.bind(fall);
    }

    fn gen_arith(&mut self, op: AluOp, sel: SpecialSelector) {
        let arg = self.pop_value();
        let rcvr = self.pop_value();
        if !self.opts.inline_smallint_arith {
            self.send_special(rcvr, &[arg], sel);
            return;
        }
        let slow = self.label();
        let done = self.label();
        self.save_operands(&[rcvr, arg]);
        if !armed(mutops::DROP_RECEIVER_SMALLINT_CHECK) {
            self.check_small_int(rcvr, slow);
        }
        if !armed(mutops::DROP_ARG_SMALLINT_CHECK) {
            self.check_small_int(arg, slow);
        }
        match op {
            AluOp::Add => {
                // tagged(a)+tagged(b)-1 = tagged(a+b); Cog's sequence.
                // The operands are saved, so clobbering `arg` is fine.
                self.ir.push(Ir::AluImm { op: AluOp::Sub, dst: arg, a: arg, imm: 1 });
                self.ir.push(Ir::Alu { op: AluOp::Add, dst: arg, a: arg, b: rcvr });
                if !armed(mutops::DROP_ADD_OVERFLOW_CHECK) {
                    self.ir.push(Ir::JumpCc(Cond::Ov, slow));
                }
                self.drop_saved(2);
                self.push_reg(arg);
            }
            AluOp::Sub => {
                self.ir.push(Ir::Alu { op: AluOp::Sub, dst: rcvr, a: rcvr, b: arg });
                if !armed(mutops::DROP_SUB_OVERFLOW_CHECK) {
                    self.ir.push(Ir::JumpCc(Cond::Ov, slow));
                }
                self.ir.push(Ir::AluImm { op: AluOp::Add, dst: rcvr, a: rcvr, imm: 1 });
                self.drop_saved(2);
                self.push_reg(rcvr);
            }
            _ => {
                // Multiply: untag both in place, 32-bit multiply,
                // retag with a 31-bit overflow check.
                self.untag(rcvr, rcvr);
                self.untag(arg, arg);
                self.ir.push(Ir::Alu { op: AluOp::Mul, dst: rcvr, a: rcvr, b: arg });
                if !armed(mutops::DROP_MUL_OVERFLOW_CHECK) {
                    self.ir.push(Ir::JumpCc(Cond::Ov, slow));
                }
                self.retag(rcvr, Some(slow));
                self.drop_saved(2);
                self.push_reg(rcvr);
            }
        }
        self.ir.push(Ir::Jump(done));
        self.bind(slow);
        self.slow_send(1, sel.index());
        self.bind(done);
    }

    fn gen_compare(&mut self, cc: Cond, sel: SpecialSelector) {
        let arg = self.pop_value();
        let rcvr = self.pop_value();
        if !self.opts.inline_smallint_arith {
            self.send_special(rcvr, &[arg], sel);
            return;
        }
        let slow = self.label();
        let done = self.label();
        self.save_operands(&[rcvr, arg]);
        if !armed(mutops::DROP_COMPARE_SMALLINT_CHECKS) {
            self.check_small_int(rcvr, slow);
            self.check_small_int(arg, slow);
        }
        self.drop_saved(2);
        // Tagged values preserve signed order.
        let (a, b) =
            if armed(mutops::SWAP_COMPARE_OPERANDS) { (arg, rcvr) } else { (rcvr, arg) };
        self.ir.push(Ir::Cmp { a, b });
        let cc = if armed(mutops::FLIP_COMPARE_COND) { negate_cond(cc) } else { cc };
        self.push_bool(cc);
        self.ir.push(Ir::Jump(done));
        self.bind(slow);
        self.slow_send(1, sel.index());
        self.bind(done);
    }

    fn gen_divide(&mut self) {
        let arg = self.pop_value();
        let rcvr = self.pop_value();
        if !self.opts.inline_smallint_arith {
            self.send_special(rcvr, &[arg], SpecialSelector::Divide);
            return;
        }
        let slow = self.label();
        let done = self.label();
        self.save_operands(&[rcvr, arg]);
        self.check_small_int(rcvr, slow);
        self.check_small_int(arg, slow);
        // Divisor zero → slow (tagged 0 is 1).
        if !armed(mutops::DROP_DIV_ZERO_CHECK) {
            self.ir.push(Ir::CmpImm { a: arg, imm: Oop::from_small_int(0).0 });
            self.ir.push(Ir::JumpCc(Cond::Eq, slow));
        }
        self.untag(rcvr, rcvr);
        self.untag(arg, arg);
        if !armed(mutops::DROP_DIV_EXACT_CHECK) {
            let rem = self.fresh_transient();
            self.ir.push(Ir::Alu { op: AluOp::Rem, dst: rem, a: rcvr, b: arg });
            self.ir.push(Ir::CmpImm { a: rem, imm: 0 });
            self.ir.push(Ir::JumpCc(Cond::Ne, slow)); // inexact → send
        }
        self.ir.push(Ir::Alu { op: AluOp::Div, dst: rcvr, a: rcvr, b: arg });
        self.retag(rcvr, Some(slow));
        self.drop_saved(2);
        self.push_reg(rcvr);
        self.ir.push(Ir::Jump(done));
        self.bind(slow);
        self.slow_send(1, SpecialSelector::Divide.index());
        self.bind(done);
    }

    fn gen_mod_like(&mut self, want_mod: bool) {
        let sel = if want_mod { SpecialSelector::Modulo } else { SpecialSelector::IntegerDivide };
        let arg = self.pop_value();
        let rcvr = self.pop_value();
        if !self.opts.inline_smallint_arith {
            self.send_special(rcvr, &[arg], sel);
            return;
        }
        let slow = self.label();
        let done = self.label();
        self.save_operands(&[rcvr, arg]);
        self.check_small_int(rcvr, slow);
        self.check_small_int(arg, slow);
        self.ir.push(Ir::CmpImm { a: arg, imm: Oop::from_small_int(0).0 });
        self.ir.push(Ir::JumpCc(Cond::Eq, slow));
        self.untag(rcvr, rcvr);
        self.untag(arg, arg);
        let lskip = self.label();
        if want_mod {
            // Floored modulo: rem += b when rem != 0 and signs differ.
            let rem = self.fresh();
            self.ir.push(Ir::Alu { op: AluOp::Rem, dst: rem, a: rcvr, b: arg });
            if !armed(mutops::DROP_MOD_SIGN_ADJUST) {
                self.ir.push(Ir::CmpImm { a: rem, imm: 0 });
                self.ir.push(Ir::JumpCc(Cond::Eq, lskip));
                let t = self.fresh_transient();
                self.ir.push(Ir::Alu { op: AluOp::Xor, dst: t, a: rem, b: arg });
                self.ir.push(Ir::JumpCc(Cond::Ge, lskip));
                self.ir.push(Ir::Alu { op: AluOp::Add, dst: rem, a: rem, b: arg });
            }
            self.bind(lskip);
            self.retag(rem, None);
            self.drop_saved(2);
            self.push_reg(rem);
        } else {
            // Floored division: q -= 1 when rem != 0 and signs differ.
            let q = self.fresh();
            self.ir.push(Ir::Alu { op: AluOp::Div, dst: q, a: rcvr, b: arg });
            if !armed(mutops::DROP_INTDIV_FLOOR_ADJUST) {
                let rem = self.fresh_transient();
                self.ir.push(Ir::Alu { op: AluOp::Rem, dst: rem, a: rcvr, b: arg });
                self.ir.push(Ir::CmpImm { a: rem, imm: 0 });
                self.ir.push(Ir::JumpCc(Cond::Eq, lskip));
                self.ir.push(Ir::Alu { op: AluOp::Xor, dst: rem, a: rem, b: arg });
                self.ir.push(Ir::JumpCc(Cond::Ge, lskip));
                self.ir.push(Ir::AluImm { op: AluOp::Sub, dst: q, a: q, imm: 1 });
            }
            self.bind(lskip);
            self.retag(q, Some(slow));
            self.drop_saved(2);
            self.push_reg(q);
        }
        self.ir.push(Ir::Jump(done));
        self.bind(slow);
        self.slow_send(1, sel.index());
        self.bind(done);
    }

    fn gen_bitop(&mut self, op: AluOp, sel: SpecialSelector) {
        let arg = self.pop_value();
        let rcvr = self.pop_value();
        if !self.opts.inline_smallint_arith {
            self.send_special(rcvr, &[arg], sel);
            return;
        }
        let slow = self.label();
        let done = self.label();
        self.save_operands(&[rcvr, arg]);
        self.check_small_int(rcvr, slow);
        self.check_small_int(arg, slow);
        // Tagged AND/OR preserve the tag bit.
        let op = if op == AluOp::And && armed(mutops::BITAND_BECOMES_BITOR) {
            AluOp::Or
        } else {
            op
        };
        self.ir.push(Ir::Alu { op, dst: rcvr, a: rcvr, b: arg });
        self.drop_saved(2);
        self.push_reg(rcvr);
        self.ir.push(Ir::Jump(done));
        self.bind(slow);
        self.slow_send(1, sel.index());
        self.bind(done);
    }

    fn gen_bitshift(&mut self) {
        let arg = self.pop_value();
        let rcvr = self.pop_value();
        if !self.opts.inline_smallint_arith {
            self.send_special(rcvr, &[arg], SpecialSelector::BitShift);
            return;
        }
        let slow = self.label();
        let done = self.label();
        let lright = self.label();
        let lend = self.label();
        self.save_operands(&[rcvr, arg]);
        self.check_small_int(rcvr, slow);
        self.check_small_int(arg, slow);
        self.untag(arg, arg); // shift amount
        self.untag(rcvr, rcvr); // value
        // Shift counts beyond the word width go to the slow path (the
        // hardware masks the count to 31, which would be wrong).
        if !armed(mutops::DROP_SHIFT_RANGE_CHECK) {
            self.ir.push(Ir::CmpImm { a: arg, imm: 31 });
            self.ir.push(Ir::JumpCc(Cond::Gt, slow));
            self.ir.push(Ir::CmpImm { a: arg, imm: (-31i32) as u32 });
            self.ir.push(Ir::JumpCc(Cond::Lt, slow));
        }
        self.ir.push(Ir::CmpImm { a: arg, imm: 0 });
        self.ir.push(Ir::JumpCc(Cond::Lt, lright));
        // Left shift with overflow check.
        self.ir.push(Ir::Alu { op: AluOp::Shl, dst: rcvr, a: rcvr, b: arg });
        self.ir.push(Ir::JumpCc(Cond::Ov, slow));
        self.retag(rcvr, Some(slow));
        self.ir.push(Ir::Jump(lend));
        // Right shift: negate the amount, arithmetic shift.
        self.bind(lright);
        let neg = self.fresh_transient();
        self.ir.push(Ir::MovImm { dst: neg, imm: 0 });
        self.ir.push(Ir::Alu { op: AluOp::Sub, dst: neg, a: neg, b: arg });
        self.ir.push(Ir::Alu { op: AluOp::Sar, dst: rcvr, a: rcvr, b: neg });
        self.retag(rcvr, None);
        self.bind(lend);
        self.drop_saved(2);
        self.push_reg(rcvr);
        self.ir.push(Ir::Jump(done));
        self.bind(slow);
        self.slow_send(1, SpecialSelector::BitShift.index());
        self.bind(done);
    }

    fn gen_at(&mut self) {
        let idx = self.pop_value();
        let rcvr = self.pop_value();
        if !self.opts.inline_quick_sends {
            self.send_special(rcvr, &[idx], SpecialSelector::At);
            return;
        }
        let slow = self.label();
        let done = self.label();
        self.save_operands(&[rcvr, idx]);
        self.check_small_int(idx, slow);
        self.check_pointer(rcvr, slow);
        self.check_class(rcvr, ClassIndex::ARRAY, slow);
        let sz = self.fresh();
        self.ir.push(Ir::Load { dst: sz, base: rcvr, off: SIZE_OFF });
        // Untag the index into the scratch register (transients are
        // free past the checks).
        let i0 = self.fresh_transient();
        self.untag(i0, idx);
        if !armed(mutops::DROP_AT_LOWER_BOUND_CHECK) {
            self.ir.push(Ir::CmpImm { a: i0, imm: 1 });
            self.ir.push(Ir::JumpCc(Cond::Lt, slow));
        }
        self.ir.push(Ir::Cmp { a: i0, b: sz });
        self.ir.push(Ir::JumpCc(Cond::Gt, slow));
        if !armed(mutops::AT_INDEX_OFF_BY_ONE) {
            self.ir.push(Ir::AluImm { op: AluOp::Sub, dst: i0, a: i0, imm: 1 });
        }
        self.ir.push(Ir::AluImm { op: AluOp::Shl, dst: i0, a: i0, imm: 2 });
        self.ir.push(Ir::Alu { op: AluOp::Add, dst: i0, a: i0, b: rcvr });
        self.ir.push(Ir::Load { dst: sz, base: i0, off: BODY_OFF });
        self.drop_saved(2);
        self.push_reg(sz);
        self.ir.push(Ir::Jump(done));
        self.bind(slow);
        self.slow_send(1, SpecialSelector::At.index());
        self.bind(done);
    }

    fn gen_at_put(&mut self) {
        let value = self.pop_value();
        let idx = self.pop_value();
        let rcvr = self.pop_value();
        if !self.opts.inline_quick_sends {
            self.send_special(rcvr, &[idx, value], SpecialSelector::AtPut);
            return;
        }
        let slow = self.label();
        let done = self.label();
        self.save_operands(&[rcvr, idx, value]);
        self.check_small_int(idx, slow);
        self.check_pointer(rcvr, slow);
        if !armed(mutops::DROP_ATPUT_CLASS_CHECK) {
            self.check_class(rcvr, ClassIndex::ARRAY, slow);
        }
        let sz = self.fresh();
        self.ir.push(Ir::Load { dst: sz, base: rcvr, off: SIZE_OFF });
        let i0 = self.fresh_transient();
        self.untag(i0, idx);
        self.ir.push(Ir::CmpImm { a: i0, imm: 1 });
        self.ir.push(Ir::JumpCc(Cond::Lt, slow));
        self.ir.push(Ir::Cmp { a: i0, b: sz });
        self.ir.push(Ir::JumpCc(Cond::Gt, slow));
        self.ir.push(Ir::AluImm { op: AluOp::Sub, dst: i0, a: i0, imm: 1 });
        self.ir.push(Ir::AluImm { op: AluOp::Shl, dst: i0, a: i0, imm: 2 });
        self.ir.push(Ir::Alu { op: AluOp::Add, dst: i0, a: i0, b: rcvr });
        self.ir.push(Ir::Store { src: value, base: i0, off: BODY_OFF });
        self.drop_saved(3);
        self.push_reg(value);
        self.ir.push(Ir::Jump(done));
        self.bind(slow);
        self.slow_send(2, SpecialSelector::AtPut.index());
        self.bind(done);
    }

    fn gen_size(&mut self) {
        let rcvr = self.pop_value();
        if !self.opts.inline_quick_sends {
            self.send_special(rcvr, &[], SpecialSelector::Size);
            return;
        }
        let slow = self.label();
        let done = self.label();
        let lbytes = self.label();
        let lgot = self.label();
        self.save_operands(&[rcvr]);
        self.check_pointer(rcvr, slow);
        let t = self.fresh_transient();
        self.ir.push(Ir::Load { dst: t, base: rcvr, off: 0 });
        self.ir.push(Ir::AluImm { op: AluOp::And, dst: t, a: t, imm: 0x00ff_ffff });
        self.ir.push(Ir::CmpImm { a: t, imm: ClassIndex::ARRAY.value() });
        self.ir.push(Ir::JumpCc(Cond::Ne, lbytes));
        let sz = self.fresh();
        self.ir.push(Ir::Load { dst: sz, base: rcvr, off: SIZE_OFF });
        self.ir.push(Ir::Jump(lgot));
        self.bind(lbytes);
        if !armed(mutops::DROP_SIZE_BYTEARRAY_CHECK) {
            self.ir.push(Ir::CmpImm { a: t, imm: ClassIndex::BYTE_ARRAY.value() });
            self.ir.push(Ir::JumpCc(Cond::Ne, slow));
        }
        self.ir.push(Ir::Load { dst: sz, base: rcvr, off: SIZE_OFF });
        self.bind(lgot);
        self.retag(sz, None);
        self.drop_saved(1);
        self.push_reg(sz);
        self.ir.push(Ir::Jump(done));
        self.bind(slow);
        self.slow_send(0, SpecialSelector::Size.index());
        self.bind(done);
    }

    fn gen_unary_send(&mut self, sel: SpecialSelector) {
        let rcvr = self.pop_value();
        self.send_special(rcvr, &[], sel);
    }
}

/// Compiles one bytecode instruction test per the §4.2 schema.
pub fn compile_bytecode_test(
    kind: CompilerKind,
    input: &BytecodeTestInput<'_>,
    isa: Isa,
) -> Result<CompiledCode, CompileError> {
    compile_sequence(kind, std::slice::from_ref(&input.instruction), input, isa)
}

/// Compiles a straight-line bytecode **sequence** test (the paper's
/// future-work extension): the instructions are generated back to
/// back, so one instruction's fast-path results flow into the next —
/// a send, return or taken jump anywhere terminates the run, exactly
/// as it would in a real compiled method.
pub fn compile_bytecode_sequence_test(
    kind: CompilerKind,
    instrs: &[Instruction],
    input: &BytecodeTestInput<'_>,
    isa: Isa,
) -> Result<CompiledCode, CompileError> {
    compile_sequence(kind, instrs, input, isa)
}

fn compile_sequence(
    kind: CompilerKind,
    instrs: &[Instruction],
    input: &BytecodeTestInput<'_>,
    isa: Isa,
) -> Result<CompiledCode, CompileError> {
    let mut scratch = GEN_SCRATCH.take();
    let compiled = compile_with(kind, instrs, input, isa, &mut scratch);
    GEN_SCRATCH.set(scratch);
    compiled
}

fn compile_with(
    kind: CompilerKind,
    instrs: &[Instruction],
    input: &BytecodeTestInput<'_>,
    isa: Isa,
    scratch: &mut GenScratch,
) -> Result<CompiledCode, CompileError> {
    let opts = kind.options();
    let mut allocated = std::mem::take(&mut scratch.allocated);
    let mut g = Gen::new(opts, input, isa, scratch);
    let conv = g.conv;

    // Preamble: frame pointer, temps, spill reserve.
    g.ir.push(Ir::MovReg { dst: VReg::phys(conv.fp), src: VReg::phys(conv.sp) });
    for &t in input.temps {
        let tr = g.fresh_transient();
        g.ir.push(Ir::MovImm { dst: tr, imm: t.0 });
        g.ir.push(Ir::Push { src: tr });
    }
    g.ir.push(Ir::AluImm {
        op: AluOp::Sub,
        dst: VReg::phys(conv.sp),
        a: VReg::phys(conv.sp),
        imm: SPILL_BYTES,
    });

    // genPushLiteral for each operand-stack input (§4.2, Listing 3).
    for &v in input.operand_stack {
        g.push_imm(v.0);
    }

    for &instr in instrs {
        g.recycle_regs();
        g.gen(instr)?;
    }

    // Epilogue: spill the parse stack, stop.
    g.flush_sim();
    g.ir.push(Ir::Stop(stops::FALL_THROUGH));
    if let Some(taken) = g.taken_label {
        g.ir.push(Ir::Label(taken));
        g.ir.push(Ir::Stop(stops::JUMP_TAKEN));
    }

    let code = if opts.use_vregs {
        allocate_into(g.ir, isa, input.temps.len() as u32, &mut allocated)
            .and_then(|()| lower(&allocated, isa))
    } else {
        lower(g.ir, isa)
    };
    scratch.allocated = allocated;
    Ok(CompiledCode { code: code?, isa, ntemps: input.temps.len() as u32 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use igjit_heap::ObjectMemory;
    use igjit_machine::{Machine, MachineConfig, MachineOutcome};

    struct TestRun {
        outcome: MachineOutcome,
        operand_stack: Vec<u32>,
        result_reg: u32,
        mem: ObjectMemory,
    }

    fn run_test(
        kind: CompilerKind,
        isa: Isa,
        instr: Instruction,
        stack: &[Oop],
        mem: ObjectMemory,
        receiver: Oop,
    ) -> TestRun {
        let mut mem = mem;
        let input = BytecodeTestInput {
            instruction: instr,
            operand_stack: stack,
            temps: &[],
            literals: &[],
            nil: mem.nil(),
            true_obj: mem.true_object(),
            false_obj: mem.false_object(),
        };
        let compiled = compile_bytecode_test(kind, &input, isa).unwrap();
        let frame_bytes = 4 * compiled.ntemps + SPILL_BYTES;
        let mut m = Machine::new(&mut mem, isa, &compiled.code);
        let conv = Convention::for_isa(isa);
        m.set_reg(conv.receiver, receiver.0);
        let outcome = m.run(MachineConfig::default());
        // Read the compiled operand stack (words between SP and the
        // frame base).
        let sp = m.reg(conv.sp);
        let limit = m.initial_sp() - frame_bytes;
        let mut operand_stack = Vec::new();
        let mut a = sp;
        while a < limit {
            operand_stack.push(m.read_stack(a).unwrap());
            a += 4;
        }
        let result_reg = m.reg(conv.receiver);
        drop(m);
        TestRun { outcome, operand_stack, result_reg, mem }
    }

    fn si(v: i64) -> Oop {
        Oop::from_small_int(v)
    }

    #[test]
    fn add_inlined_on_stack_to_register() {
        for isa in [Isa::X86ish, Isa::Arm32ish] {
            for kind in [CompilerKind::StackToRegister, CompilerKind::RegisterAllocating] {
                let r = run_test(kind, isa, Instruction::Add, &[si(20), si(22)],
                                 ObjectMemory::new(), si(0));
                assert_eq!(
                    r.outcome,
                    MachineOutcome::Breakpoint { code: stops::FALL_THROUGH },
                    "{kind:?} {isa:?}"
                );
                assert_eq!(r.operand_stack, vec![si(42).0], "{kind:?} {isa:?}");
            }
        }
    }

    #[test]
    fn add_always_sends_on_simple_stack() {
        // The optimisation-difference defect: no static type
        // prediction on the simple tier.
        let r = run_test(
            CompilerKind::SimpleStackBased,
            Isa::X86ish,
            Instruction::Add,
            &[si(20), si(22)],
            ObjectMemory::new(),
            si(0),
        );
        assert_eq!(
            r.outcome,
            MachineOutcome::Send { selector_id: SpecialSelector::Plus.index() }
        );
    }

    #[test]
    fn add_overflow_takes_the_send_path() {
        let r = run_test(
            CompilerKind::StackToRegister,
            Isa::Arm32ish,
            Instruction::Add,
            &[si(igjit_heap::SMALL_INT_MAX), si(1)],
            ObjectMemory::new(),
            si(0),
        );
        assert_eq!(
            r.outcome,
            MachineOutcome::Send { selector_id: SpecialSelector::Plus.index() }
        );
    }

    #[test]
    fn float_operands_send_on_every_tier() {
        // The interpreter inlines float+float; no compiler tier does.
        let mut mem = ObjectMemory::new();
        let a = mem.instantiate_float(1.5).unwrap();
        let b = mem.instantiate_float(2.0).unwrap();
        for kind in CompilerKind::ALL {
            let r = run_test(kind, Isa::X86ish, Instruction::Add, &[a, b], mem.clone(), si(0));
            assert_eq!(
                r.outcome,
                MachineOutcome::Send { selector_id: SpecialSelector::Plus.index() },
                "{kind:?}"
            );
        }
    }

    #[test]
    fn comparisons_push_booleans() {
        let mem = ObjectMemory::new();
        let t = mem.true_object();
        let f = mem.false_object();
        let r = run_test(CompilerKind::StackToRegister, Isa::X86ish,
                         Instruction::LessThan, &[si(3), si(5)], mem.clone(), si(0));
        assert_eq!(r.operand_stack, vec![t.0]);
        let r = run_test(CompilerKind::RegisterAllocating, Isa::Arm32ish,
                         Instruction::LessThan, &[si(5), si(3)], mem, si(0));
        assert_eq!(r.operand_stack, vec![f.0]);
    }

    #[test]
    fn subtract_and_multiply() {
        let r = run_test(CompilerKind::StackToRegister, Isa::X86ish,
                         Instruction::Subtract, &[si(50), si(8)], ObjectMemory::new(), si(0));
        assert_eq!(r.operand_stack, vec![si(42).0]);
        let r = run_test(CompilerKind::RegisterAllocating, Isa::Arm32ish,
                         Instruction::Multiply, &[si(-6), si(7)], ObjectMemory::new(), si(0));
        assert_eq!(r.operand_stack, vec![si(-42).0]);
    }

    #[test]
    fn multiply_overflow_sends() {
        let r = run_test(CompilerKind::StackToRegister, Isa::X86ish,
                         Instruction::Multiply, &[si(1 << 20), si(1 << 20)],
                         ObjectMemory::new(), si(0));
        assert!(matches!(r.outcome, MachineOutcome::Send { .. }));
    }

    #[test]
    fn division_family() {
        let r = run_test(CompilerKind::StackToRegister, Isa::X86ish,
                         Instruction::Divide, &[si(12), si(4)], ObjectMemory::new(), si(0));
        assert_eq!(r.operand_stack, vec![si(3).0]);
        // Inexact → send.
        let r = run_test(CompilerKind::StackToRegister, Isa::X86ish,
                         Instruction::Divide, &[si(12), si(5)], ObjectMemory::new(), si(0));
        assert!(matches!(r.outcome, MachineOutcome::Send { .. }));
        // Floored modulo of negatives.
        let r = run_test(CompilerKind::StackToRegister, Isa::Arm32ish,
                         Instruction::Modulo, &[si(-7), si(3)], ObjectMemory::new(), si(0));
        assert_eq!(r.operand_stack, vec![si(2).0]);
        let r = run_test(CompilerKind::RegisterAllocating, Isa::X86ish,
                         Instruction::IntegerDivide, &[si(-7), si(3)], ObjectMemory::new(), si(0));
        assert_eq!(r.operand_stack, vec![si(-3).0]);
    }

    #[test]
    fn bit_operations() {
        let r = run_test(CompilerKind::StackToRegister, Isa::X86ish,
                         Instruction::BitAnd, &[si(6), si(3)], ObjectMemory::new(), si(0));
        assert_eq!(r.operand_stack, vec![si(2).0]);
        let r = run_test(CompilerKind::StackToRegister, Isa::X86ish,
                         Instruction::BitShift, &[si(4), si(2)], ObjectMemory::new(), si(0));
        assert_eq!(r.operand_stack, vec![si(16).0]);
        let r = run_test(CompilerKind::StackToRegister, Isa::Arm32ish,
                         Instruction::BitShift, &[si(16), si(-2)], ObjectMemory::new(), si(0));
        assert_eq!(r.operand_stack, vec![si(4).0]);
        // Shift overflow → send.
        let r = run_test(CompilerKind::StackToRegister, Isa::X86ish,
                         Instruction::BitShift, &[si(1), si(40)], ObjectMemory::new(), si(0));
        assert!(matches!(r.outcome, MachineOutcome::Send { .. }));
    }

    #[test]
    fn pushes_and_stack_shuffles() {
        for kind in CompilerKind::ALL {
            let r = run_test(kind, Isa::X86ish, Instruction::Dup, &[si(9)],
                             ObjectMemory::new(), si(0));
            assert_eq!(r.operand_stack, vec![si(9).0, si(9).0], "{kind:?}");
            let r = run_test(kind, Isa::Arm32ish, Instruction::Pop, &[si(9), si(8)],
                             ObjectMemory::new(), si(0));
            assert_eq!(r.operand_stack, vec![si(9).0], "{kind:?}");
            let r = run_test(kind, Isa::X86ish, Instruction::PushTwo, &[],
                             ObjectMemory::new(), si(0));
            assert_eq!(r.operand_stack, vec![si(2).0], "{kind:?}");
        }
    }

    #[test]
    fn receiver_variable_access() {
        let mut mem = ObjectMemory::new();
        let rcvr = mem.instantiate_array(&[si(77), si(88)]).unwrap();
        let r = run_test(CompilerKind::StackToRegister, Isa::X86ish,
                         Instruction::PushReceiverVariable(1), &[], mem, rcvr);
        assert_eq!(r.operand_stack, vec![si(88).0]);
    }

    #[test]
    fn receiver_variable_store_mutates_heap() {
        let mut mem = ObjectMemory::new();
        let rcvr = mem.instantiate_array(&[si(0)]).unwrap();
        let r = run_test(CompilerKind::SimpleStackBased, Isa::Arm32ish,
                         Instruction::PopIntoReceiverVariable(0), &[si(42)], mem, rcvr);
        assert_eq!(r.outcome, MachineOutcome::Breakpoint { code: stops::FALL_THROUGH });
        assert_eq!(r.mem.fetch_pointer(rcvr, 0).unwrap(), si(42));
        assert!(r.operand_stack.is_empty());
    }

    #[test]
    fn quick_at_on_all_tiers() {
        let mut mem = ObjectMemory::new();
        let arr = mem.instantiate_array(&[si(10), si(20)]).unwrap();
        for kind in CompilerKind::ALL {
            let r = run_test(kind, Isa::X86ish, Instruction::SpecialSendAt,
                             &[arr, si(2)], mem.clone(), si(0));
            assert_eq!(
                r.outcome,
                MachineOutcome::Breakpoint { code: stops::FALL_THROUGH },
                "{kind:?}"
            );
            assert_eq!(r.operand_stack, vec![si(20).0], "{kind:?}");
            // Bounds bail-out.
            let r = run_test(kind, Isa::Arm32ish, Instruction::SpecialSendAt,
                             &[arr, si(3)], mem.clone(), si(0));
            assert_eq!(
                r.outcome,
                MachineOutcome::Send { selector_id: SpecialSelector::At.index() },
                "{kind:?}"
            );
        }
    }

    #[test]
    fn quick_size_array_and_bytes() {
        let mut mem = ObjectMemory::new();
        let arr = mem.instantiate_array(&[si(1), si(2), si(3)]).unwrap();
        let bytes = mem.instantiate_bytes(ClassIndex::BYTE_ARRAY, &[1, 2]).unwrap();
        let r = run_test(CompilerKind::StackToRegister, Isa::X86ish,
                         Instruction::SpecialSendSize, &[arr], mem.clone(), si(0));
        assert_eq!(r.operand_stack, vec![si(3).0]);
        let r = run_test(CompilerKind::StackToRegister, Isa::Arm32ish,
                         Instruction::SpecialSendSize, &[bytes], mem, si(0));
        assert_eq!(r.operand_stack, vec![si(2).0]);
    }

    #[test]
    fn jumps_hit_the_right_stops() {
        let mem = ObjectMemory::new();
        let t = mem.true_object();
        let f = mem.false_object();
        let r = run_test(CompilerKind::StackToRegister, Isa::X86ish,
                         Instruction::ShortJumpForward(3), &[], mem.clone(), si(0));
        assert_eq!(r.outcome, MachineOutcome::Breakpoint { code: stops::JUMP_TAKEN });
        let r = run_test(CompilerKind::StackToRegister, Isa::X86ish,
                         Instruction::ShortJumpTrue(3), &[t], mem.clone(), si(0));
        assert_eq!(r.outcome, MachineOutcome::Breakpoint { code: stops::JUMP_TAKEN });
        let r = run_test(CompilerKind::StackToRegister, Isa::Arm32ish,
                         Instruction::ShortJumpTrue(3), &[f], mem.clone(), si(0));
        assert_eq!(r.outcome, MachineOutcome::Breakpoint { code: stops::FALL_THROUGH });
        // Non-boolean → mustBeBoolean send.
        let r = run_test(CompilerKind::SimpleStackBased, Isa::X86ish,
                         Instruction::ShortJumpFalse(3), &[si(1)], mem, si(0));
        assert_eq!(r.outcome, MachineOutcome::Send { selector_id: MUST_BE_BOOLEAN_SELECTOR });
    }

    #[test]
    fn returns_set_the_result_register() {
        let mem = ObjectMemory::new();
        let t = mem.true_object();
        let r = run_test(CompilerKind::StackToRegister, Isa::X86ish,
                         Instruction::ReturnTop, &[si(33)], mem.clone(), si(7));
        assert_eq!(r.outcome, MachineOutcome::ReturnedToCaller);
        assert_eq!(r.result_reg, si(33).0);
        let r = run_test(CompilerKind::SimpleStackBased, Isa::Arm32ish,
                         Instruction::ReturnReceiver, &[], mem.clone(), si(7));
        assert_eq!(r.result_reg, si(7).0);
        let r = run_test(CompilerKind::RegisterAllocating, Isa::X86ish,
                         Instruction::ReturnTrue, &[], mem, si(7));
        assert_eq!(r.result_reg, t.0);
    }

    #[test]
    fn generic_send_marshals_selector() {
        let mut mem = ObjectMemory::new();
        let sel = mem.instantiate_bytes(ClassIndex::SYMBOL, b"foo:").unwrap();
        let input = BytecodeTestInput {
            instruction: Instruction::Send { lit: 0, nargs: 1 },
            operand_stack: &[si(5), si(6)],
            temps: &[],
            literals: &[sel],
            nil: mem.nil(),
            true_obj: mem.true_object(),
            false_obj: mem.false_object(),
        };
        for kind in CompilerKind::ALL {
            let compiled = compile_bytecode_test(kind, &input, Isa::X86ish).unwrap();
            let mut mem2 = mem.clone();
            let mut m = Machine::new(&mut mem2, Isa::X86ish, &compiled.code);
            let out = m.run(MachineConfig::default());
            assert_eq!(out, MachineOutcome::Send { selector_id: sel.0 }, "{kind:?}");
            let conv = Convention::for_isa(Isa::X86ish);
            assert_eq!(m.reg(conv.receiver), si(5).0, "{kind:?}");
            assert_eq!(m.reg(conv.arg0), si(6).0, "{kind:?}");
        }
    }

    #[test]
    fn temps_are_materialized_and_stored() {
        let mem = ObjectMemory::new();
        let nil = mem.nil();
        let input = BytecodeTestInput {
            instruction: Instruction::PushTemp(1),
            operand_stack: &[],
            temps: &[si(5), si(17)],
            literals: &[],
            nil,
            true_obj: mem.true_object(),
            false_obj: mem.false_object(),
        };
        for kind in CompilerKind::ALL {
            let compiled = compile_bytecode_test(kind, &input, Isa::Arm32ish).unwrap();
            let mut mem2 = mem.clone();
            let mut m = Machine::new(&mut mem2, Isa::Arm32ish, &compiled.code);
            let out = m.run(MachineConfig::default());
            assert_eq!(out, MachineOutcome::Breakpoint { code: stops::FALL_THROUGH });
            let conv = Convention::for_isa(Isa::Arm32ish);
            let sp = m.reg(conv.sp);
            assert_eq!(m.read_stack(sp).unwrap(), si(17).0, "{kind:?}: pushed temp 1");
        }
    }

    #[test]
    fn push_this_context_is_unsupported() {
        let mem = ObjectMemory::new();
        let input = BytecodeTestInput {
            instruction: Instruction::PushThisContext,
            operand_stack: &[],
            temps: &[],
            literals: &[],
            nil: mem.nil(),
            true_obj: mem.true_object(),
            false_obj: mem.false_object(),
        };
        assert!(matches!(
            compile_bytecode_test(CompilerKind::StackToRegister, &input, Isa::X86ish),
            Err(CompileError::Unsupported(_))
        ));
    }
}
