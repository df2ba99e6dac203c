//! The bytecode interpreter, written once, generic over [`VmContext`].
//!
//! This is the reproduction's analogue of the Pharo interpreter the
//! paper meta-interprets: `bytecodePrimAdd` (Listing 1) appears here as
//! the `Add` arm of [`step`], with the same structure — static type
//! prediction inlining the SmallInteger **and** Float cases, overflow
//! check, and a `normalSend` slow path.
//!
//! Because every semantic operation goes through the context trait, the
//! concolic engine replays *this exact function* to discover paths;
//! there is no second encoding of the semantics anywhere in the
//! repository.

use igjit_bytecode::{Instruction, SpecialSelector};
use igjit_heap::ClassIndex;

use crate::context::{CmpKind, VmContext};
use crate::exit::{Selector, SendArgs, StepOutcome};
use crate::frame::Frame;

macro_rules! frame_try {
    ($e:expr) => {
        match $e {
            Ok(v) => v,
            Err(_) => return StepOutcome::InvalidFrame,
        }
    };
}

macro_rules! mem_try {
    ($e:expr) => {
        match $e {
            Ok(v) => v,
            Err(_) => return StepOutcome::InvalidMemoryAccess,
        }
    };
}

/// A per-opcode step function, as [`resolve_step`] picks it.
///
/// Every function behind this pointer re-extracts its immediates from
/// the [`Instruction`] it is handed, so the pointer alone carries the
/// opcode half of the dispatch decision.
type StepFn<C> = fn(
    &mut C,
    &mut Frame<<C as VmContext>::V>,
    Instruction,
) -> StepOutcome<<C as VmContext>::V>;

/// Executes one bytecode instruction against `frame`.
///
/// The returned [`StepOutcome`] carries both the control effect
/// (continue/jump/return/send) and the §3.4 exit condition the
/// differential tester compares.
///
/// Dispatch resolves the instruction to its step function, then calls
/// it. Every caller — the whole-method runner, the oracle, the concolic
/// negation walk and the meta tier's partial evaluator — comes through
/// here, once per executed instruction.
pub fn step<C: VmContext>(
    ctx: &mut C,
    frame: &mut Frame<C::V>,
    instr: Instruction,
) -> StepOutcome<C::V> {
    (resolve_step::<C>(instr))(ctx, frame, instr)
}

/// Resolves an instruction to its standalone step function — the
/// dispatch half of [`step`].
fn resolve_step<C: VmContext>(instr: Instruction) -> StepFn<C> {
    use Instruction as I;
    match instr {
        // --- pushes ---------------------------------------------------
        I::PushReceiverVariable(_) | I::PushReceiverVariableLong(_) => {
            steps::push_receiver_variable
        }
        I::PushTemp(_) | I::PushTempLong(_) => steps::push_temp,
        I::PushLiteralConstant(_) | I::PushLiteralLong(_) => steps::push_literal_constant,
        I::PushLiteralVariable(_) => steps::push_literal_variable,
        I::PushReceiver => steps::push_receiver,
        I::PushTrue => steps::push_true,
        I::PushFalse => steps::push_false,
        I::PushNil => steps::push_nil,
        I::PushZero | I::PushOne | I::PushMinusOne | I::PushTwo | I::PushInteger(_) => {
            steps::push_small_int
        }
        I::PushThisContext => steps::push_this_context,

        // --- stack shuffling ------------------------------------------
        I::Dup => steps::dup,
        I::Pop => steps::pop,

        // --- stores ----------------------------------------------------
        I::PopIntoTemp(_) => steps::pop_into_temp,
        I::StoreTemp(_) | I::StoreTempLong(_) => steps::store_temp,
        I::PopIntoReceiverVariable(_) => steps::pop_into_receiver_variable,
        I::StoreReceiverVariableLong(_) => steps::store_receiver_variable_long,

        // --- inlined arithmetic (static type prediction) ----------------
        I::Add | I::Subtract | I::Multiply => steps::arith,
        I::Divide => steps::divide,
        I::Modulo | I::IntegerDivide => steps::modulo_like,
        I::LessThan
        | I::GreaterThan
        | I::LessOrEqual
        | I::GreaterOrEqual
        | I::Equal
        | I::NotEqual => steps::compare,
        I::IdentityEqual => steps::identity_equal,
        I::BitAnd | I::BitOr | I::BitShift => steps::bitwise,

        // --- special sends with quick paths ------------------------------
        I::SpecialSendAt => steps::special_at,
        I::SpecialSendAtPut => steps::special_at_put,
        I::SpecialSendSize => steps::special_size,
        I::SpecialSendValue | I::SpecialSendNew | I::SpecialSendClass => steps::special_unary,

        // --- generic sends -------------------------------------------------
        I::Send { .. } => steps::send,

        // --- returns ----------------------------------------------------------
        I::ReturnReceiver => steps::return_receiver,
        I::ReturnTrue => steps::return_true,
        I::ReturnFalse => steps::return_false,
        I::ReturnNil => steps::return_nil,
        I::ReturnTop => steps::return_top,

        // --- jumps ---------------------------------------------------------------
        I::ShortJumpForward(_) | I::LongJumpForward(_) => steps::jump_forward,
        I::ShortJumpTrue(_) | I::ShortJumpFalse(_) | I::LongJumpTrue(_) | I::LongJumpFalse(_) => {
            steps::conditional_jump
        }

        I::Nop => steps::nop,
    }
}

/// The per-opcode step bodies, one standalone function per semantic
/// group, all with the uniform [`StepFn`] signature. Each function
/// only accepts the instructions
/// [`resolve_step`] routes to it and panics on any other — the
/// resolver is the single source of truth for the pairing.
pub mod steps {
    use super::*;

    /// Instruction/step-function mismatch: only reachable by calling a
    /// step function directly with an instruction [`resolve_step`]
    /// does not route to it.
    macro_rules! wrong_instr {
        ($i:expr) => {
            unreachable!("step function called with unrouted instruction {:?}", $i)
        };
    }

    /// `PushReceiverVariable`/`PushReceiverVariableLong`.
    pub fn push_receiver_variable<C: VmContext>(
        ctx: &mut C,
        frame: &mut Frame<C::V>,
        instr: Instruction,
    ) -> StepOutcome<C::V> {
        let n = match instr {
            Instruction::PushReceiverVariable(n) => u32::from(n),
            Instruction::PushReceiverVariableLong(n) => u32::from(n),
            other => wrong_instr!(other),
        };
        super::push_receiver_variable(ctx, frame, n)
    }

    /// `PushTemp`/`PushTempLong`.
    pub fn push_temp<C: VmContext>(
        ctx: &mut C,
        frame: &mut Frame<C::V>,
        instr: Instruction,
    ) -> StepOutcome<C::V> {
        let n = match instr {
            Instruction::PushTemp(n) | Instruction::PushTempLong(n) => n,
            other => wrong_instr!(other),
        };
        let v = frame_try!(ctx.temp(frame, usize::from(n)));
        frame.push(v);
        StepOutcome::Continue
    }

    /// `PushLiteralConstant`/`PushLiteralLong`.
    pub fn push_literal_constant<C: VmContext>(
        ctx: &mut C,
        frame: &mut Frame<C::V>,
        instr: Instruction,
    ) -> StepOutcome<C::V> {
        let n = match instr {
            Instruction::PushLiteralConstant(n) | Instruction::PushLiteralLong(n) => n,
            other => wrong_instr!(other),
        };
        let v = frame_try!(ctx.literal(frame, usize::from(n)));
        frame.push(v);
        StepOutcome::Continue
    }

    /// `PushLiteralVariable`: the literal holds an Association; push
    /// its value slot. Unsafe by design: no class check on the
    /// association.
    pub fn push_literal_variable<C: VmContext>(
        ctx: &mut C,
        frame: &mut Frame<C::V>,
        instr: Instruction,
    ) -> StepOutcome<C::V> {
        let Instruction::PushLiteralVariable(n) = instr else { wrong_instr!(instr) };
        let assoc = frame_try!(ctx.literal(frame, usize::from(n)));
        let one = ctx.int_const(1);
        let v = mem_try!(ctx.fetch_slot(assoc, one));
        frame.push(v);
        StepOutcome::Continue
    }

    /// `PushReceiver`.
    pub fn push_receiver<C: VmContext>(
        _ctx: &mut C,
        frame: &mut Frame<C::V>,
        _instr: Instruction,
    ) -> StepOutcome<C::V> {
        let r = frame.receiver;
        frame.push(r);
        StepOutcome::Continue
    }

    /// `PushTrue`.
    pub fn push_true<C: VmContext>(
        ctx: &mut C,
        frame: &mut Frame<C::V>,
        _instr: Instruction,
    ) -> StepOutcome<C::V> {
        let v = ctx.true_obj();
        frame.push(v);
        StepOutcome::Continue
    }

    /// `PushFalse`.
    pub fn push_false<C: VmContext>(
        ctx: &mut C,
        frame: &mut Frame<C::V>,
        _instr: Instruction,
    ) -> StepOutcome<C::V> {
        let v = ctx.false_obj();
        frame.push(v);
        StepOutcome::Continue
    }

    /// `PushNil`.
    pub fn push_nil<C: VmContext>(
        ctx: &mut C,
        frame: &mut Frame<C::V>,
        _instr: Instruction,
    ) -> StepOutcome<C::V> {
        let v = ctx.nil();
        frame.push(v);
        StepOutcome::Continue
    }

    /// `PushZero`/`PushOne`/`PushMinusOne`/`PushTwo`/`PushInteger`.
    pub fn push_small_int<C: VmContext>(
        ctx: &mut C,
        frame: &mut Frame<C::V>,
        instr: Instruction,
    ) -> StepOutcome<C::V> {
        let v = match instr {
            Instruction::PushZero => 0,
            Instruction::PushOne => 1,
            Instruction::PushMinusOne => -1,
            Instruction::PushTwo => 2,
            Instruction::PushInteger(v) => i64::from(v),
            other => wrong_instr!(other),
        };
        super::push_int_const(ctx, frame, v)
    }

    /// `PushThisContext` (curated out, §5.2).
    pub fn push_this_context<C: VmContext>(
        _ctx: &mut C,
        _frame: &mut Frame<C::V>,
        _instr: Instruction,
    ) -> StepOutcome<C::V> {
        StepOutcome::Unsupported {
            reason: "stack-frame reification (lazy context-to-stack mapping)",
        }
    }

    /// `Dup`.
    pub fn dup<C: VmContext>(
        ctx: &mut C,
        frame: &mut Frame<C::V>,
        _instr: Instruction,
    ) -> StepOutcome<C::V> {
        let v = frame_try!(ctx.stack_value(frame, 0));
        frame.push(v);
        StepOutcome::Continue
    }

    /// `Pop`.
    pub fn pop<C: VmContext>(
        ctx: &mut C,
        frame: &mut Frame<C::V>,
        _instr: Instruction,
    ) -> StepOutcome<C::V> {
        frame_try!(ctx.stack_value(frame, 0));
        frame.pop_n(1);
        StepOutcome::Continue
    }

    /// `PopIntoTemp`.
    pub fn pop_into_temp<C: VmContext>(
        ctx: &mut C,
        frame: &mut Frame<C::V>,
        instr: Instruction,
    ) -> StepOutcome<C::V> {
        let Instruction::PopIntoTemp(n) = instr else { wrong_instr!(instr) };
        let v = frame_try!(ctx.stack_value(frame, 0));
        frame_try!(ctx.set_temp(frame, usize::from(n), v));
        frame.pop_n(1);
        StepOutcome::Continue
    }

    /// `StoreTemp`/`StoreTempLong`.
    pub fn store_temp<C: VmContext>(
        ctx: &mut C,
        frame: &mut Frame<C::V>,
        instr: Instruction,
    ) -> StepOutcome<C::V> {
        let n = match instr {
            Instruction::StoreTemp(n) | Instruction::StoreTempLong(n) => n,
            other => wrong_instr!(other),
        };
        let v = frame_try!(ctx.stack_value(frame, 0));
        frame_try!(ctx.set_temp(frame, usize::from(n), v));
        StepOutcome::Continue
    }

    /// `PopIntoReceiverVariable`.
    pub fn pop_into_receiver_variable<C: VmContext>(
        ctx: &mut C,
        frame: &mut Frame<C::V>,
        instr: Instruction,
    ) -> StepOutcome<C::V> {
        let Instruction::PopIntoReceiverVariable(n) = instr else { wrong_instr!(instr) };
        let v = frame_try!(ctx.stack_value(frame, 0));
        let r = frame.receiver;
        let idx = ctx.int_const(i64::from(n));
        mem_try!(ctx.store_slot(r, idx, v));
        frame.pop_n(1);
        StepOutcome::Continue
    }

    /// `StoreReceiverVariableLong`.
    pub fn store_receiver_variable_long<C: VmContext>(
        ctx: &mut C,
        frame: &mut Frame<C::V>,
        instr: Instruction,
    ) -> StepOutcome<C::V> {
        let Instruction::StoreReceiverVariableLong(n) = instr else { wrong_instr!(instr) };
        let v = frame_try!(ctx.stack_value(frame, 0));
        let r = frame.receiver;
        let idx = ctx.int_const(i64::from(n));
        mem_try!(ctx.store_slot(r, idx, v));
        StepOutcome::Continue
    }

    /// `Add`/`Subtract`/`Multiply` (Listing 1 with the Float fast
    /// path).
    pub fn arith<C: VmContext>(
        ctx: &mut C,
        frame: &mut Frame<C::V>,
        instr: Instruction,
    ) -> StepOutcome<C::V> {
        let op = match instr {
            Instruction::Add => ArithOp::Add,
            Instruction::Subtract => ArithOp::Sub,
            Instruction::Multiply => ArithOp::Mul,
            other => wrong_instr!(other),
        };
        super::binary_arith(ctx, frame, op)
    }

    /// `Divide` (exact division only on the fast path).
    pub fn divide<C: VmContext>(
        ctx: &mut C,
        frame: &mut Frame<C::V>,
        _instr: Instruction,
    ) -> StepOutcome<C::V> {
        super::divide(ctx, frame)
    }

    /// `Modulo`/`IntegerDivide`.
    pub fn modulo_like<C: VmContext>(
        ctx: &mut C,
        frame: &mut Frame<C::V>,
        instr: Instruction,
    ) -> StepOutcome<C::V> {
        let op = match instr {
            Instruction::Modulo => ModOp::Modulo,
            Instruction::IntegerDivide => ModOp::FloorDivide,
            other => wrong_instr!(other),
        };
        super::modulo_like(ctx, frame, op)
    }

    /// The six inlined comparison bytecodes.
    pub fn compare<C: VmContext>(
        ctx: &mut C,
        frame: &mut Frame<C::V>,
        instr: Instruction,
    ) -> StepOutcome<C::V> {
        let (op, selector) = match instr {
            Instruction::LessThan => (CmpKind::Lt, SpecialSelector::LessThan),
            Instruction::GreaterThan => (CmpKind::Gt, SpecialSelector::GreaterThan),
            Instruction::LessOrEqual => (CmpKind::Le, SpecialSelector::LessOrEqual),
            Instruction::GreaterOrEqual => (CmpKind::Ge, SpecialSelector::GreaterOrEqual),
            Instruction::Equal => (CmpKind::Eq, SpecialSelector::Equal),
            Instruction::NotEqual => (CmpKind::Ne, SpecialSelector::NotEqual),
            other => wrong_instr!(other),
        };
        super::binary_compare(ctx, frame, op, selector)
    }

    /// `IdentityEqual`.
    pub fn identity_equal<C: VmContext>(
        ctx: &mut C,
        frame: &mut Frame<C::V>,
        _instr: Instruction,
    ) -> StepOutcome<C::V> {
        let arg = frame_try!(ctx.stack_value(frame, 0));
        let rcvr = frame_try!(ctx.stack_value(frame, 1));
        let same = ctx.value_identical(rcvr, arg);
        let b = ctx.bool_obj(same);
        frame.pop_n(2);
        frame.push(b);
        StepOutcome::Continue
    }

    /// `BitAnd`/`BitOr`/`BitShift`.
    pub fn bitwise<C: VmContext>(
        ctx: &mut C,
        frame: &mut Frame<C::V>,
        instr: Instruction,
    ) -> StepOutcome<C::V> {
        let op = match instr {
            Instruction::BitAnd => BitOp::And,
            Instruction::BitOr => BitOp::Or,
            Instruction::BitShift => BitOp::Shift,
            other => wrong_instr!(other),
        };
        super::bitwise(ctx, frame, op)
    }

    /// `SpecialSendAt`.
    pub fn special_at<C: VmContext>(
        ctx: &mut C,
        frame: &mut Frame<C::V>,
        _instr: Instruction,
    ) -> StepOutcome<C::V> {
        super::special_at(ctx, frame)
    }

    /// `SpecialSendAtPut`.
    pub fn special_at_put<C: VmContext>(
        ctx: &mut C,
        frame: &mut Frame<C::V>,
        _instr: Instruction,
    ) -> StepOutcome<C::V> {
        super::special_at_put(ctx, frame)
    }

    /// `SpecialSendSize`.
    pub fn special_size<C: VmContext>(
        ctx: &mut C,
        frame: &mut Frame<C::V>,
        _instr: Instruction,
    ) -> StepOutcome<C::V> {
        super::special_size(ctx, frame)
    }

    /// `SpecialSendValue`/`SpecialSendNew`/`SpecialSendClass` — no
    /// quick path, always a send.
    pub fn special_unary<C: VmContext>(
        ctx: &mut C,
        frame: &mut Frame<C::V>,
        instr: Instruction,
    ) -> StepOutcome<C::V> {
        let selector = match instr {
            Instruction::SpecialSendValue => SpecialSelector::Value,
            Instruction::SpecialSendNew => SpecialSelector::New,
            Instruction::SpecialSendClass => SpecialSelector::Class,
            other => wrong_instr!(other),
        };
        super::unary_send(ctx, frame, selector)
    }

    /// `Send { lit, nargs }`.
    pub fn send<C: VmContext>(
        ctx: &mut C,
        frame: &mut Frame<C::V>,
        instr: Instruction,
    ) -> StepOutcome<C::V> {
        let Instruction::Send { lit, nargs } = instr else { wrong_instr!(instr) };
        let n = usize::from(nargs);
        if n > SendArgs::<C::V>::MAX {
            return StepOutcome::Unsupported { reason: "send arity above the encodable three" };
        }
        let selector = frame_try!(ctx.literal(frame, usize::from(lit)));
        let mut args = SendArgs::new(&[], selector);
        for i in (0..n).rev() {
            args.push(frame_try!(ctx.stack_value(frame, i)));
        }
        let receiver = frame_try!(ctx.stack_value(frame, n));
        StepOutcome::MessageSend { selector: Selector::Literal(selector), receiver, args }
    }

    /// `ReturnReceiver`.
    pub fn return_receiver<C: VmContext>(
        _ctx: &mut C,
        frame: &mut Frame<C::V>,
        _instr: Instruction,
    ) -> StepOutcome<C::V> {
        StepOutcome::MethodReturn { value: frame.receiver }
    }

    /// `ReturnTrue`.
    pub fn return_true<C: VmContext>(
        ctx: &mut C,
        _frame: &mut Frame<C::V>,
        _instr: Instruction,
    ) -> StepOutcome<C::V> {
        let v = ctx.true_obj();
        StepOutcome::MethodReturn { value: v }
    }

    /// `ReturnFalse`.
    pub fn return_false<C: VmContext>(
        ctx: &mut C,
        _frame: &mut Frame<C::V>,
        _instr: Instruction,
    ) -> StepOutcome<C::V> {
        let v = ctx.false_obj();
        StepOutcome::MethodReturn { value: v }
    }

    /// `ReturnNil`.
    pub fn return_nil<C: VmContext>(
        ctx: &mut C,
        _frame: &mut Frame<C::V>,
        _instr: Instruction,
    ) -> StepOutcome<C::V> {
        let v = ctx.nil();
        StepOutcome::MethodReturn { value: v }
    }

    /// `ReturnTop`.
    pub fn return_top<C: VmContext>(
        ctx: &mut C,
        frame: &mut Frame<C::V>,
        _instr: Instruction,
    ) -> StepOutcome<C::V> {
        let v = frame_try!(ctx.stack_value(frame, 0));
        StepOutcome::MethodReturn { value: v }
    }

    /// `ShortJumpForward`/`LongJumpForward`.
    pub fn jump_forward<C: VmContext>(
        _ctx: &mut C,
        _frame: &mut Frame<C::V>,
        instr: Instruction,
    ) -> StepOutcome<C::V> {
        let displacement = match instr {
            Instruction::ShortJumpForward(n) => i32::from(n),
            Instruction::LongJumpForward(d) => i32::from(d),
            other => wrong_instr!(other),
        };
        StepOutcome::Jump { displacement }
    }

    /// The four conditional jumps.
    pub fn conditional_jump<C: VmContext>(
        ctx: &mut C,
        frame: &mut Frame<C::V>,
        instr: Instruction,
    ) -> StepOutcome<C::V> {
        let (displacement, jump_on_true) = match instr {
            Instruction::ShortJumpTrue(n) => (i32::from(n), true),
            Instruction::ShortJumpFalse(n) => (i32::from(n), false),
            Instruction::LongJumpTrue(n) => (i32::from(n), true),
            Instruction::LongJumpFalse(n) => (i32::from(n), false),
            other => wrong_instr!(other),
        };
        super::conditional_jump(ctx, frame, displacement, jump_on_true)
    }

    /// `Nop`.
    pub fn nop<C: VmContext>(
        _ctx: &mut C,
        _frame: &mut Frame<C::V>,
        _instr: Instruction,
    ) -> StepOutcome<C::V> {
        StepOutcome::Continue
    }
}

fn push_int_const<C: VmContext>(ctx: &mut C, frame: &mut Frame<C::V>, v: i64) -> StepOutcome<C::V> {
    let obj = ctx.small_int_obj(v);
    frame.push(obj);
    StepOutcome::Continue
}

fn push_receiver_variable<C: VmContext>(
    ctx: &mut C,
    frame: &mut Frame<C::V>,
    n: u32,
) -> StepOutcome<C::V> {
    // Unsafe by design (§3.1): no type or bounds check beyond the
    // fetch itself.
    let r = frame.receiver;
    let idx = ctx.int_const(i64::from(n));
    let v = mem_try!(ctx.fetch_slot(r, idx));
    frame.push(v);
    StepOutcome::Continue
}

#[derive(Clone, Copy)]
enum ArithOp {
    Add,
    Sub,
    Mul,
}

impl ArithOp {
    fn selector(self) -> SpecialSelector {
        match self {
            ArithOp::Add => SpecialSelector::Plus,
            ArithOp::Sub => SpecialSelector::Minus,
            ArithOp::Mul => SpecialSelector::Times,
        }
    }
}

/// The reproduction of Listing 1, extended with the Float fast path
/// the Pharo interpreter also inlines (§5.3 "optimisation
/// difference": the production JIT inlines only the integer case).
fn binary_arith<C: VmContext>(
    ctx: &mut C,
    frame: &mut Frame<C::V>,
    op: ArithOp,
) -> StepOutcome<C::V> {
    let arg = frame_try!(ctx.stack_value(frame, 0));
    let rcvr = frame_try!(ctx.stack_value(frame, 1));
    let rcvr_int = ctx.is_integer_object(rcvr);
    let arg_int = ctx.is_integer_object(arg);
    if rcvr_int && arg_int {
        let a = ctx.integer_value_of(rcvr);
        let b = ctx.integer_value_of(arg);
        let result = match op {
            ArithOp::Add => ctx.int_add(a, b),
            ArithOp::Sub => ctx.int_sub(a, b),
            ArithOp::Mul => ctx.int_mul(a, b),
        };
        // "Check for overflow" (Listing 1).
        if ctx.is_integer_value(result) {
            frame.pop_n(2);
            let v = ctx.integer_object_of(result);
            frame.push(v);
            return StepOutcome::Continue;
        }
    } else {
        let rcvr_float = ctx.has_class(rcvr, ClassIndex::FLOAT);
        let arg_float = ctx.has_class(arg, ClassIndex::FLOAT);
        if rcvr_float && arg_float {
            let a = ctx.float_value_of(rcvr);
            let b = ctx.float_value_of(arg);
            let result = match op {
                ArithOp::Add => ctx.float_add(a, b),
                ArithOp::Sub => ctx.float_sub(a, b),
                ArithOp::Mul => ctx.float_mul(a, b),
            };
            match ctx.new_float(result) {
                Ok(v) => {
                    frame.pop_n(2);
                    frame.push(v);
                    return StepOutcome::Continue;
                }
                Err(_) => {
                    return StepOutcome::Unsupported { reason: "allocation requires GC" }
                }
            }
        }
    }
    // Slow path, message send (normalSend in Listing 1).
    StepOutcome::MessageSend {
        selector: Selector::Special(op.selector()),
        receiver: rcvr,
        args: SendArgs::new(&[arg], rcvr),
    }
}

fn binary_compare<C: VmContext>(
    ctx: &mut C,
    frame: &mut Frame<C::V>,
    op: CmpKind,
    selector: SpecialSelector,
) -> StepOutcome<C::V> {
    let arg = frame_try!(ctx.stack_value(frame, 0));
    let rcvr = frame_try!(ctx.stack_value(frame, 1));
    let rcvr_int = ctx.is_integer_object(rcvr);
    let arg_int = ctx.is_integer_object(arg);
    if rcvr_int && arg_int {
        let a = ctx.integer_value_of(rcvr);
        let b = ctx.integer_value_of(arg);
        let holds = ctx.int_cmp(op, a, b);
        let v = ctx.bool_obj(holds);
        frame.pop_n(2);
        frame.push(v);
        return StepOutcome::Continue;
    }
    let rcvr_float = ctx.has_class(rcvr, ClassIndex::FLOAT);
    let arg_float = ctx.has_class(arg, ClassIndex::FLOAT);
    if rcvr_float && arg_float {
        let a = ctx.float_value_of(rcvr);
        let b = ctx.float_value_of(arg);
        let holds = ctx.float_cmp(op, a, b);
        let v = ctx.bool_obj(holds);
        frame.pop_n(2);
        frame.push(v);
        return StepOutcome::Continue;
    }
    StepOutcome::MessageSend {
        selector: Selector::Special(selector),
        receiver: rcvr,
        args: SendArgs::new(&[arg], rcvr),
    }
}

fn divide<C: VmContext>(ctx: &mut C, frame: &mut Frame<C::V>) -> StepOutcome<C::V> {
    let arg = frame_try!(ctx.stack_value(frame, 0));
    let rcvr = frame_try!(ctx.stack_value(frame, 1));
    let rcvr_int = ctx.is_integer_object(rcvr);
    let arg_int = ctx.is_integer_object(arg);
    if rcvr_int && arg_int {
        let a = ctx.integer_value_of(rcvr);
        let b = ctx.integer_value_of(arg);
        let zero = ctx.int_const(0);
        if ctx.int_cmp(CmpKind::Ne, b, zero) {
            // `/` succeeds only on exact division.
            let rem = ctx.int_mod_floor(a, b);
            if ctx.int_cmp(CmpKind::Eq, rem, zero) {
                let q = ctx.int_div_floor(a, b);
                if ctx.is_integer_value(q) {
                    frame.pop_n(2);
                    let v = ctx.integer_object_of(q);
                    frame.push(v);
                    return StepOutcome::Continue;
                }
            }
        }
    } else {
        let rcvr_float = ctx.has_class(rcvr, ClassIndex::FLOAT);
        let arg_float = ctx.has_class(arg, ClassIndex::FLOAT);
        if rcvr_float && arg_float {
            let a = ctx.float_value_of(rcvr);
            let b = ctx.float_value_of(arg);
            let result = ctx.float_div(a, b);
            match ctx.new_float(result) {
                Ok(v) => {
                    frame.pop_n(2);
                    frame.push(v);
                    return StepOutcome::Continue;
                }
                Err(_) => {
                    return StepOutcome::Unsupported { reason: "allocation requires GC" }
                }
            }
        }
    }
    StepOutcome::MessageSend {
        selector: Selector::Special(SpecialSelector::Divide),
        receiver: rcvr,
        args: SendArgs::new(&[arg], rcvr),
    }
}

#[derive(Clone, Copy)]
enum ModOp {
    Modulo,
    FloorDivide,
}

fn modulo_like<C: VmContext>(
    ctx: &mut C,
    frame: &mut Frame<C::V>,
    op: ModOp,
) -> StepOutcome<C::V> {
    let arg = frame_try!(ctx.stack_value(frame, 0));
    let rcvr = frame_try!(ctx.stack_value(frame, 1));
    let rcvr_int = ctx.is_integer_object(rcvr);
    let arg_int = ctx.is_integer_object(arg);
    if rcvr_int && arg_int {
        let a = ctx.integer_value_of(rcvr);
        let b = ctx.integer_value_of(arg);
        let zero = ctx.int_const(0);
        if ctx.int_cmp(CmpKind::Ne, b, zero) {
            let r = match op {
                ModOp::Modulo => ctx.int_mod_floor(a, b),
                ModOp::FloorDivide => ctx.int_div_floor(a, b),
            };
            if ctx.is_integer_value(r) {
                frame.pop_n(2);
                let v = ctx.integer_object_of(r);
                frame.push(v);
                return StepOutcome::Continue;
            }
        }
    }
    let selector = match op {
        ModOp::Modulo => SpecialSelector::Modulo,
        ModOp::FloorDivide => SpecialSelector::IntegerDivide,
    };
    StepOutcome::MessageSend {
        selector: Selector::Special(selector),
        receiver: rcvr,
        args: SendArgs::new(&[arg], rcvr),
    }
}

#[derive(Clone, Copy)]
enum BitOp {
    And,
    Or,
    Shift,
}

fn bitwise<C: VmContext>(ctx: &mut C, frame: &mut Frame<C::V>, op: BitOp) -> StepOutcome<C::V> {
    let arg = frame_try!(ctx.stack_value(frame, 0));
    let rcvr = frame_try!(ctx.stack_value(frame, 1));
    let rcvr_int = ctx.is_integer_object(rcvr);
    let arg_int = ctx.is_integer_object(arg);
    if rcvr_int && arg_int {
        let a = ctx.integer_value_of(rcvr);
        let b = ctx.integer_value_of(arg);
        // Shift counts beyond the word width take the slow path (the
        // inline shifter is word-sized; the library code handles the
        // rest) — mirroring the compiled fast path's guard.
        let in_shift_range = if matches!(op, BitOp::Shift) {
            let lo = ctx.int_const(-31);
            let hi = ctx.int_const(31);
            ctx.int_cmp(CmpKind::Ge, b, lo) && ctx.int_cmp(CmpKind::Le, b, hi)
        } else {
            true
        };
        if in_shift_range {
            let result = match op {
                BitOp::And => ctx.int_bit_and(a, b),
                BitOp::Or => ctx.int_bit_or(a, b),
                BitOp::Shift => ctx.int_shift(a, b),
            };
            // and/or of two tagged values cannot leave the range, but
            // a left shift can.
            if ctx.is_integer_value(result) {
                frame.pop_n(2);
                let v = ctx.integer_object_of(result);
                frame.push(v);
                return StepOutcome::Continue;
            }
        }
    }
    let selector = match op {
        BitOp::And => SpecialSelector::BitAnd,
        BitOp::Or => SpecialSelector::BitOr,
        BitOp::Shift => SpecialSelector::BitShift,
    };
    StepOutcome::MessageSend {
        selector: Selector::Special(selector),
        receiver: rcvr,
        args: SendArgs::new(&[arg], rcvr),
    }
}

fn special_at<C: VmContext>(ctx: &mut C, frame: &mut Frame<C::V>) -> StepOutcome<C::V> {
    let idx_obj = frame_try!(ctx.stack_value(frame, 0));
    let rcvr = frame_try!(ctx.stack_value(frame, 1));
    let idx_int = ctx.is_integer_object(idx_obj);
    let rcvr_array = ctx.has_class(rcvr, ClassIndex::ARRAY);
    if idx_int && rcvr_array {
        let idx = ctx.integer_value_of(idx_obj);
        if let Ok(size) = ctx.slot_count(rcvr) {
            let one = ctx.int_const(1);
            if ctx.int_cmp(CmpKind::Ge, idx, one) && ctx.int_cmp(CmpKind::Le, idx, size) {
                let zero_based = ctx.int_sub(idx, one);
                let v = mem_try!(ctx.fetch_slot(rcvr, zero_based));
                frame.pop_n(2);
                frame.push(v);
                return StepOutcome::Continue;
            }
        }
    }
    StepOutcome::MessageSend {
        selector: Selector::Special(SpecialSelector::At),
        receiver: rcvr,
        args: SendArgs::new(&[idx_obj], rcvr),
    }
}

fn special_at_put<C: VmContext>(ctx: &mut C, frame: &mut Frame<C::V>) -> StepOutcome<C::V> {
    let value = frame_try!(ctx.stack_value(frame, 0));
    let idx_obj = frame_try!(ctx.stack_value(frame, 1));
    let rcvr = frame_try!(ctx.stack_value(frame, 2));
    let idx_int = ctx.is_integer_object(idx_obj);
    let rcvr_array = ctx.has_class(rcvr, ClassIndex::ARRAY);
    if idx_int && rcvr_array {
        let idx = ctx.integer_value_of(idx_obj);
        if let Ok(size) = ctx.slot_count(rcvr) {
            let one = ctx.int_const(1);
            if ctx.int_cmp(CmpKind::Ge, idx, one) && ctx.int_cmp(CmpKind::Le, idx, size) {
                let zero_based = ctx.int_sub(idx, one);
                mem_try!(ctx.store_slot(rcvr, zero_based, value));
                frame.pop_n(3);
                frame.push(value);
                return StepOutcome::Continue;
            }
        }
    }
    StepOutcome::MessageSend {
        selector: Selector::Special(SpecialSelector::AtPut),
        receiver: rcvr,
        args: SendArgs::new(&[idx_obj, value], rcvr),
    }
}

fn special_size<C: VmContext>(ctx: &mut C, frame: &mut Frame<C::V>) -> StepOutcome<C::V> {
    let rcvr = frame_try!(ctx.stack_value(frame, 0));
    let is_array = ctx.has_class(rcvr, ClassIndex::ARRAY);
    if is_array {
        if let Ok(size) = ctx.slot_count(rcvr) {
            frame.pop_n(1);
            let v = ctx.integer_object_of(size);
            frame.push(v);
            return StepOutcome::Continue;
        }
    }
    let is_bytes = ctx.has_class(rcvr, ClassIndex::BYTE_ARRAY);
    if is_bytes {
        if let Ok(size) = ctx.byte_count(rcvr) {
            frame.pop_n(1);
            let v = ctx.integer_object_of(size);
            frame.push(v);
            return StepOutcome::Continue;
        }
    }
    StepOutcome::MessageSend {
        selector: Selector::Special(SpecialSelector::Size),
        receiver: rcvr,
        args: SendArgs::new(&[], rcvr),
    }
}

fn unary_send<C: VmContext>(
    ctx: &mut C,
    frame: &mut Frame<C::V>,
    selector: SpecialSelector,
) -> StepOutcome<C::V> {
    let rcvr = frame_try!(ctx.stack_value(frame, 0));
    StepOutcome::MessageSend {
        selector: Selector::Special(selector),
        receiver: rcvr,
        args: SendArgs::new(&[], rcvr),
    }
}

fn conditional_jump<C: VmContext>(
    ctx: &mut C,
    frame: &mut Frame<C::V>,
    displacement: i32,
    jump_on_true: bool,
) -> StepOutcome<C::V> {
    let v = frame_try!(ctx.stack_value(frame, 0));
    frame.pop_n(1);
    let is_true = ctx.has_class(v, ClassIndex::TRUE);
    if is_true {
        return if jump_on_true {
            StepOutcome::Jump { displacement }
        } else {
            StepOutcome::Continue
        };
    }
    let is_false = ctx.has_class(v, ClassIndex::FALSE);
    if is_false {
        return if jump_on_true {
            StepOutcome::Continue
        } else {
            StepOutcome::Jump { displacement }
        };
    }
    StepOutcome::MessageSend {
        selector: Selector::MustBeBoolean,
        receiver: v,
        args: SendArgs::new(&[], v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concrete::ConcreteContext;
    use crate::frame::MethodInfo;
    use igjit_heap::{ObjectMemory, Oop};

    fn setup() -> ObjectMemory {
        ObjectMemory::new()
    }

    fn int_frame(mem: &mut ObjectMemory, values: &[i64]) -> Frame<Oop> {
        let mut f = Frame::new(mem.nil(), MethodInfo::empty());
        for &v in values {
            f.push(Oop::from_small_int(v));
        }
        f
    }

    #[test]
    fn add_fast_path() {
        let mut mem = setup();
        let mut f = int_frame(&mut mem, &[20, 22]);
        let mut ctx = ConcreteContext::new(&mut mem);
        assert_eq!(step(&mut ctx, &mut f, Instruction::Add), StepOutcome::Continue);
        assert_eq!(f.depth(), 1);
        assert_eq!(f.stack_at_depth(0).small_int_value(), 42);
    }

    #[test]
    fn add_on_empty_stack_is_invalid_frame() {
        let mut mem = setup();
        let mut f = int_frame(&mut mem, &[]);
        let mut ctx = ConcreteContext::new(&mut mem);
        assert_eq!(step(&mut ctx, &mut f, Instruction::Add), StepOutcome::InvalidFrame);
        let mut f1 = int_frame(&mut mem, &[1]);
        let mut ctx = ConcreteContext::new(&mut mem);
        assert_eq!(step(&mut ctx, &mut f1, Instruction::Add), StepOutcome::InvalidFrame);
    }

    #[test]
    fn add_overflow_takes_slow_path() {
        let mut mem = setup();
        let mut f = int_frame(&mut mem, &[igjit_heap::SMALL_INT_MAX, 1]);
        let mut ctx = ConcreteContext::new(&mut mem);
        match step(&mut ctx, &mut f, Instruction::Add) {
            StepOutcome::MessageSend { selector: Selector::Special(s), .. } => {
                assert_eq!(s, SpecialSelector::Plus);
            }
            other => panic!("expected send, got {other:?}"),
        }
        assert_eq!(f.depth(), 2, "slow path leaves the operands for the send");
    }

    #[test]
    fn add_floats_inlined() {
        let mut mem = setup();
        let a = mem.instantiate_float(1.5).unwrap();
        let b = mem.instantiate_float(2.25).unwrap();
        let mut f = Frame::new(mem.nil(), MethodInfo::empty());
        f.push(a);
        f.push(b);
        let mut ctx = ConcreteContext::new(&mut mem);
        assert_eq!(step(&mut ctx, &mut f, Instruction::Add), StepOutcome::Continue);
        let top = f.stack_at_depth(0);
        assert_eq!(mem.float_value_of(top).unwrap(), 3.75);
    }

    #[test]
    fn add_mixed_types_sends() {
        let mut mem = setup();
        let a = mem.instantiate_float(1.5).unwrap();
        let mut f = Frame::new(mem.nil(), MethodInfo::empty());
        f.push(Oop::from_small_int(2));
        f.push(a);
        let mut ctx = ConcreteContext::new(&mut mem);
        assert!(matches!(
            step(&mut ctx, &mut f, Instruction::Add),
            StepOutcome::MessageSend { .. }
        ));
    }

    #[test]
    fn compare_pushes_booleans() {
        let mut mem = setup();
        let t = mem.true_object();
        let fa = mem.false_object();
        let mut f = int_frame(&mut mem, &[3, 5]);
        let mut ctx = ConcreteContext::new(&mut mem);
        assert_eq!(step(&mut ctx, &mut f, Instruction::LessThan), StepOutcome::Continue);
        assert_eq!(f.stack_at_depth(0), t);
        let mut f2 = int_frame(&mut mem, &[5, 3]);
        let mut ctx = ConcreteContext::new(&mut mem);
        assert_eq!(step(&mut ctx, &mut f2, Instruction::LessThan), StepOutcome::Continue);
        assert_eq!(f2.stack_at_depth(0), fa);
    }

    #[test]
    fn divide_exact_and_inexact() {
        let mut mem = setup();
        let mut f = int_frame(&mut mem, &[10, 2]);
        let mut ctx = ConcreteContext::new(&mut mem);
        assert_eq!(step(&mut ctx, &mut f, Instruction::Divide), StepOutcome::Continue);
        assert_eq!(f.stack_at_depth(0).small_int_value(), 5);

        let mut f2 = int_frame(&mut mem, &[10, 3]);
        let mut ctx = ConcreteContext::new(&mut mem);
        assert!(matches!(
            step(&mut ctx, &mut f2, Instruction::Divide),
            StepOutcome::MessageSend { .. }
        ));

        let mut f3 = int_frame(&mut mem, &[10, 0]);
        let mut ctx = ConcreteContext::new(&mut mem);
        assert!(matches!(
            step(&mut ctx, &mut f3, Instruction::Divide),
            StepOutcome::MessageSend { .. }
        ));
    }

    #[test]
    fn modulo_floor_semantics() {
        let mut mem = setup();
        let mut f = int_frame(&mut mem, &[-7, 3]);
        let mut ctx = ConcreteContext::new(&mut mem);
        assert_eq!(step(&mut ctx, &mut f, Instruction::Modulo), StepOutcome::Continue);
        assert_eq!(f.stack_at_depth(0).small_int_value(), 2);
        let mut f2 = int_frame(&mut mem, &[-7, 3]);
        let mut ctx = ConcreteContext::new(&mut mem);
        assert_eq!(step(&mut ctx, &mut f2, Instruction::IntegerDivide), StepOutcome::Continue);
        assert_eq!(f2.stack_at_depth(0).small_int_value(), -3);
    }

    #[test]
    fn bitshift_overflow_sends() {
        let mut mem = setup();
        let mut f = int_frame(&mut mem, &[1, 29]);
        let mut ctx = ConcreteContext::new(&mut mem);
        assert_eq!(step(&mut ctx, &mut f, Instruction::BitShift), StepOutcome::Continue);
        assert_eq!(f.stack_at_depth(0).small_int_value(), 1 << 29);
        let mut f2 = int_frame(&mut mem, &[1, 40]);
        let mut ctx = ConcreteContext::new(&mut mem);
        assert!(matches!(
            step(&mut ctx, &mut f2, Instruction::BitShift),
            StepOutcome::MessageSend { .. }
        ));
    }

    #[test]
    fn identity_equal_never_sends() {
        let mut mem = setup();
        let arr = mem.instantiate_array(&[]).unwrap();
        let t = mem.true_object();
        let mut f = Frame::new(mem.nil(), MethodInfo::empty());
        f.push(arr);
        f.push(arr);
        let mut ctx = ConcreteContext::new(&mut mem);
        assert_eq!(step(&mut ctx, &mut f, Instruction::IdentityEqual), StepOutcome::Continue);
        assert_eq!(f.stack_at_depth(0), t);
    }

    #[test]
    fn push_receiver_variable_reads_slots() {
        let mut mem = setup();
        let payload = Oop::from_small_int(123);
        let obj = mem.instantiate_array(&[payload]).unwrap();
        let mut f = Frame::new(obj, MethodInfo::empty());
        let mut ctx = ConcreteContext::new(&mut mem);
        assert_eq!(
            step(&mut ctx, &mut f, Instruction::PushReceiverVariable(0)),
            StepOutcome::Continue
        );
        assert_eq!(f.stack_at_depth(0), payload);
        // Out of bounds → invalid memory access (unsafe by design).
        let mut ctx = ConcreteContext::new(&mut mem);
        assert_eq!(
            step(&mut ctx, &mut f, Instruction::PushReceiverVariable(5)),
            StepOutcome::InvalidMemoryAccess
        );
    }

    #[test]
    fn push_receiver_variable_on_small_int_receiver_faults() {
        let mut mem = setup();
        let mut f = Frame::new(Oop::from_small_int(5), MethodInfo::empty());
        let mut ctx = ConcreteContext::new(&mut mem);
        assert_eq!(
            step(&mut ctx, &mut f, Instruction::PushReceiverVariable(0)),
            StepOutcome::InvalidMemoryAccess
        );
    }

    #[test]
    fn temps_and_literals_guard_the_frame() {
        let mut mem = setup();
        let nil = mem.nil();
        let mut f = Frame::new(nil, MethodInfo::empty());
        let mut ctx = ConcreteContext::new(&mut mem);
        assert_eq!(step(&mut ctx, &mut f, Instruction::PushTemp(0)), StepOutcome::InvalidFrame);
        assert_eq!(
            step(&mut ctx, &mut f, Instruction::PushLiteralConstant(0)),
            StepOutcome::InvalidFrame
        );
        f.temps.push(Oop::from_small_int(9));
        f.method.literals.push(Oop::from_small_int(8));
        assert_eq!(step(&mut ctx, &mut f, Instruction::PushTemp(0)), StepOutcome::Continue);
        assert_eq!(
            step(&mut ctx, &mut f, Instruction::PushLiteralConstant(0)),
            StepOutcome::Continue
        );
        assert_eq!(f.stack_at_depth(1).small_int_value(), 9);
        assert_eq!(f.stack_at_depth(0).small_int_value(), 8);
    }

    #[test]
    fn special_at_quick_path_and_fallback() {
        let mut mem = setup();
        let arr = mem
            .instantiate_array(&[Oop::from_small_int(10), Oop::from_small_int(20)])
            .unwrap();
        let mut f = Frame::new(mem.nil(), MethodInfo::empty());
        f.push(arr);
        f.push(Oop::from_small_int(2)); // 1-based index
        let mut ctx = ConcreteContext::new(&mut mem);
        assert_eq!(step(&mut ctx, &mut f, Instruction::SpecialSendAt), StepOutcome::Continue);
        assert_eq!(f.stack_at_depth(0).small_int_value(), 20);

        // Out-of-range index bails to the send.
        let mut f2 = Frame::new(mem.nil(), MethodInfo::empty());
        f2.push(arr);
        f2.push(Oop::from_small_int(3));
        let mut ctx = ConcreteContext::new(&mut mem);
        assert!(matches!(
            step(&mut ctx, &mut f2, Instruction::SpecialSendAt),
            StepOutcome::MessageSend { .. }
        ));
    }

    #[test]
    fn conditional_jumps() {
        let mut mem = setup();
        let t = mem.true_object();
        let fo = mem.false_object();
        let mut f = Frame::new(mem.nil(), MethodInfo::empty());
        f.push(t);
        let mut ctx = ConcreteContext::new(&mut mem);
        assert_eq!(
            step(&mut ctx, &mut f, Instruction::ShortJumpTrue(4)),
            StepOutcome::Jump { displacement: 4 }
        );
        f.push(fo);
        assert_eq!(
            step(&mut ctx, &mut f, Instruction::ShortJumpTrue(4)),
            StepOutcome::Continue
        );
        // Non-boolean: mustBeBoolean send.
        f.push(Oop::from_small_int(1));
        assert!(matches!(
            step(&mut ctx, &mut f, Instruction::ShortJumpTrue(4)),
            StepOutcome::MessageSend { selector: Selector::MustBeBoolean, .. }
        ));
    }

    #[test]
    fn returns() {
        let mut mem = setup();
        let nil = mem.nil();
        let rcvr = Oop::from_small_int(7);
        let mut f = Frame::new(rcvr, MethodInfo::empty());
        let mut ctx = ConcreteContext::new(&mut mem);
        assert_eq!(
            step(&mut ctx, &mut f, Instruction::ReturnReceiver),
            StepOutcome::MethodReturn { value: rcvr }
        );
        assert_eq!(
            step(&mut ctx, &mut f, Instruction::ReturnNil),
            StepOutcome::MethodReturn { value: nil }
        );
        assert_eq!(step(&mut ctx, &mut f, Instruction::ReturnTop), StepOutcome::InvalidFrame);
        f.push(Oop::from_small_int(3));
        assert_eq!(
            step(&mut ctx, &mut f, Instruction::ReturnTop),
            StepOutcome::MethodReturn { value: Oop::from_small_int(3) }
        );
    }

    #[test]
    fn generic_send_collects_args() {
        let mut mem = setup();
        let sel = mem.instantiate_bytes(igjit_heap::ClassIndex::SYMBOL, b"foo:bar:").unwrap();
        let mut f = Frame::new(mem.nil(), MethodInfo::empty());
        f.method.literals.push(sel);
        f.push(Oop::from_small_int(1)); // receiver
        f.push(Oop::from_small_int(2)); // arg0
        f.push(Oop::from_small_int(3)); // arg1
        let mut ctx = ConcreteContext::new(&mut mem);
        match step(&mut ctx, &mut f, Instruction::Send { lit: 0, nargs: 2 }) {
            StepOutcome::MessageSend { selector: Selector::Literal(s), receiver, args } => {
                assert_eq!(s, sel);
                assert_eq!(receiver.small_int_value(), 1);
                assert_eq!(args.len(), 2);
                assert_eq!(args[0].small_int_value(), 2);
                assert_eq!(args[1].small_int_value(), 3);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn push_this_context_unsupported() {
        let mut mem = setup();
        let mut f = Frame::new(mem.nil(), MethodInfo::empty());
        let mut ctx = ConcreteContext::new(&mut mem);
        assert!(matches!(
            step(&mut ctx, &mut f, Instruction::PushThisContext),
            StepOutcome::Unsupported { .. }
        ));
    }

    #[test]
    fn push_literal_variable_reads_association_value() {
        let mut mem = setup();
        let key = Oop::from_small_int(1);
        let value = Oop::from_small_int(77);
        let assoc = mem
            .allocate(
                igjit_heap::ClassIndex::ASSOCIATION,
                igjit_heap::ObjectFormat::Fixed,
                2,
            )
            .unwrap();
        mem.store_pointer(assoc, 0, key).unwrap();
        mem.store_pointer(assoc, 1, value).unwrap();
        let mut f = Frame::new(mem.nil(), MethodInfo::empty());
        f.method.literals.push(assoc);
        let mut ctx = ConcreteContext::new(&mut mem);
        assert_eq!(
            step(&mut ctx, &mut f, Instruction::PushLiteralVariable(0)),
            StepOutcome::Continue
        );
        assert_eq!(f.stack_at_depth(0), value);
    }

    #[test]
    fn push_literal_variable_on_small_int_literal_faults() {
        // Unsafe by design: no class check on the association.
        let mut mem = setup();
        let mut f = Frame::new(mem.nil(), MethodInfo::empty());
        f.method.literals.push(Oop::from_small_int(5));
        let mut ctx = ConcreteContext::new(&mut mem);
        assert_eq!(
            step(&mut ctx, &mut f, Instruction::PushLiteralVariable(0)),
            StepOutcome::InvalidMemoryAccess
        );
    }

    #[test]
    fn special_at_put_quick_path_and_fallbacks() {
        let mut mem = setup();
        let arr = mem.instantiate_array(&[Oop::from_small_int(0)]).unwrap();
        let mut f = Frame::new(mem.nil(), MethodInfo::empty());
        f.push(arr);
        f.push(Oop::from_small_int(1));
        f.push(Oop::from_small_int(55));
        let mut ctx = ConcreteContext::new(&mut mem);
        assert_eq!(
            step(&mut ctx, &mut f, Instruction::SpecialSendAtPut),
            StepOutcome::Continue
        );
        assert_eq!(f.depth(), 1, "at:put: answers the stored value");
        assert_eq!(f.stack_at_depth(0).small_int_value(), 55);
        assert_eq!(mem.fetch_pointer(arr, 0).unwrap().small_int_value(), 55);

        // Out-of-bounds index falls back to the send.
        let mut f2 = Frame::new(mem.nil(), MethodInfo::empty());
        f2.push(arr);
        f2.push(Oop::from_small_int(2));
        f2.push(Oop::from_small_int(9));
        let mut ctx = ConcreteContext::new(&mut mem);
        match step(&mut ctx, &mut f2, Instruction::SpecialSendAtPut) {
            StepOutcome::MessageSend { selector: Selector::Special(s), args, .. } => {
                assert_eq!(s, SpecialSelector::AtPut);
                assert_eq!(args.len(), 2);
            }
            other => panic!("{other:?}"),
        }
        // Non-array receiver falls back too.
        let mut f3 = Frame::new(mem.nil(), MethodInfo::empty());
        f3.push(Oop::from_small_int(3));
        f3.push(Oop::from_small_int(1));
        f3.push(Oop::from_small_int(9));
        let mut ctx = ConcreteContext::new(&mut mem);
        assert!(matches!(
            step(&mut ctx, &mut f3, Instruction::SpecialSendAtPut),
            StepOutcome::MessageSend { .. }
        ));
    }

    #[test]
    fn long_jump_variants() {
        let mut mem = setup();
        let t = mem.true_object();
        let mut f = Frame::new(mem.nil(), MethodInfo::empty());
        let mut ctx = ConcreteContext::new(&mut mem);
        assert_eq!(
            step(&mut ctx, &mut f, Instruction::LongJumpForward(-9)),
            StepOutcome::Jump { displacement: -9 },
            "backward jumps drive loops"
        );
        f.push(t);
        assert_eq!(
            step(&mut ctx, &mut f, Instruction::LongJumpTrue(200)),
            StepOutcome::Jump { displacement: 200 }
        );
        f.push(t);
        assert_eq!(
            step(&mut ctx, &mut f, Instruction::LongJumpFalse(200)),
            StepOutcome::Continue
        );
    }

    #[test]
    fn bitand_bitor_tagged_fast_paths() {
        let mut mem = setup();
        let mut f = int_frame(&mut mem, &[6, 3]);
        let mut ctx = ConcreteContext::new(&mut mem);
        assert_eq!(step(&mut ctx, &mut f, Instruction::BitAnd), StepOutcome::Continue);
        assert_eq!(f.stack_at_depth(0).small_int_value(), 2);
        let mut f2 = int_frame(&mut mem, &[-8, 3]);
        let mut ctx = ConcreteContext::new(&mut mem);
        assert_eq!(step(&mut ctx, &mut f2, Instruction::BitOr), StepOutcome::Continue);
        assert_eq!(f2.stack_at_depth(0).small_int_value(), -8 | 3);
    }

    #[test]
    fn shift_range_guard_sends() {
        // |shift| > 31 bails to the send, matching the compiled guard.
        let mut mem = setup();
        let mut f = int_frame(&mut mem, &[1, 32]);
        let mut ctx = ConcreteContext::new(&mut mem);
        assert!(matches!(
            step(&mut ctx, &mut f, Instruction::BitShift),
            StepOutcome::MessageSend { .. }
        ));
        let mut f2 = int_frame(&mut mem, &[1, -32]);
        let mut ctx = ConcreteContext::new(&mut mem);
        assert!(matches!(
            step(&mut ctx, &mut f2, Instruction::BitShift),
            StepOutcome::MessageSend { .. }
        ));
    }

    #[test]
    fn size_quick_path_for_bytes_and_fallback() {
        let mut mem = setup();
        let bytes = mem
            .instantiate_bytes(igjit_heap::ClassIndex::BYTE_ARRAY, &[1, 2, 3, 4])
            .unwrap();
        let mut f = Frame::new(mem.nil(), MethodInfo::empty());
        f.push(bytes);
        let mut ctx = ConcreteContext::new(&mut mem);
        assert_eq!(step(&mut ctx, &mut f, Instruction::SpecialSendSize), StepOutcome::Continue);
        assert_eq!(f.stack_at_depth(0).small_int_value(), 4);
        // Strings are NOT quick-pathed by size (only Array/ByteArray).
        let s = mem.instantiate_bytes(igjit_heap::ClassIndex::STRING, b"xyz").unwrap();
        let mut f2 = Frame::new(mem.nil(), MethodInfo::empty());
        f2.push(s);
        let mut ctx = ConcreteContext::new(&mut mem);
        assert!(matches!(
            step(&mut ctx, &mut f2, Instruction::SpecialSendSize),
            StepOutcome::MessageSend { .. }
        ));
    }

    #[test]
    fn stores_roundtrip() {
        let mut mem = setup();
        let arr = mem.instantiate_array(&[Oop::from_small_int(0)]).unwrap();
        let mut f = Frame::new(arr, MethodInfo::empty());
        f.temps.push(Oop::from_small_int(0));
        f.push(Oop::from_small_int(42));
        let mut ctx = ConcreteContext::new(&mut mem);
        assert_eq!(step(&mut ctx, &mut f, Instruction::StoreTemp(0)), StepOutcome::Continue);
        assert_eq!(f.depth(), 1, "store keeps the value");
        assert_eq!(f.temps[0].small_int_value(), 42);
        assert_eq!(
            step(&mut ctx, &mut f, Instruction::PopIntoReceiverVariable(0)),
            StepOutcome::Continue
        );
        assert_eq!(f.depth(), 0);
        assert_eq!(mem.fetch_pointer(arr, 0).unwrap().small_int_value(), 42);
    }
}
