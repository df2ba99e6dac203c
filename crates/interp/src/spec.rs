//! Per-opcode effect descriptions (engine v9).
//!
//! Every step function in [`crate::step`] has a static *effect shape*:
//! how many operand-stack slots its `Continue` path consumes and
//! produces, whether it can touch the heap, and which non-`Continue`
//! outcomes it can take. Historically those facts lived implicitly in
//! the step bodies and were re-derived by hand wherever a consumer
//! needed them. [`StepSpec`] makes them an explicit, queryable
//! artifact: the `igjit-metajit` partial evaluator consults it to
//! refuse unsupported opcodes before evaluating anything.
//!
//! The spec is descriptive, never authoritative: execution still runs
//! the one copy of the semantics in [`crate::step`]. The match in
//! [`step_spec`] is exhaustive, so adding an opcode without a spec
//! entry is a compile error.

use igjit_bytecode::Instruction;

/// The static effect shape of one instruction's step function.
///
/// `pops`/`pushes` describe the **`Continue` path** — the stack delta
/// when the instruction neither jumps, returns, sends nor traps.
/// Instructions that always leave the frame (returns, plain sends)
/// report `0/0`. The `may_*` flags are conservative: a set flag means
/// *some* input reaches that outcome, not that every input does.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StepSpec {
    /// Operand-stack slots consumed on the `Continue` path.
    pub pops: u8,
    /// Operand-stack slots produced on the `Continue` path.
    pub pushes: u8,
    /// Whether any path reads heap object slots or bodies.
    pub reads_heap: bool,
    /// Whether any path writes heap object slots or allocates.
    pub writes_heap: bool,
    /// Whether any path takes a jump (`StepOutcome::Jump`).
    pub may_jump: bool,
    /// Whether any path returns from the method.
    pub may_return: bool,
    /// Whether any path escalates to a message send.
    pub may_send: bool,
    /// Whether any path can trap (`InvalidFrame` /
    /// `InvalidMemoryAccess` — frame bounds, heap bounds).
    pub may_trap: bool,
    /// Whether the interpreter implements the instruction at all
    /// (`false` only for `PushThisContext`, which steps to
    /// `Unsupported`).
    pub supported: bool,
}

/// The effect shape of `instr`'s step function. Total over the
/// instruction set; the match is exhaustive so a new opcode cannot
/// ship without declaring its shape.
pub fn step_spec(instr: Instruction) -> StepSpec {
    use Instruction as I;
    // Everything defaults to "no effects, no exits"; each arm turns on
    // exactly what its step body can do.
    let base = StepSpec {
        pops: 0,
        pushes: 0,
        reads_heap: false,
        writes_heap: false,
        may_jump: false,
        may_return: false,
        may_send: false,
        may_trap: false,
        supported: true,
    };
    match instr {
        // Pushes out of the frame itself: trap only on frame bounds.
        I::PushTemp(_) | I::PushTempLong(_) | I::PushLiteralConstant(_)
        | I::PushLiteralLong(_) => StepSpec { pushes: 1, may_trap: true, ..base },
        // Pushes that dereference a heap object (receiver slot or
        // association value slot).
        I::PushReceiverVariable(_) | I::PushReceiverVariableLong(_)
        | I::PushLiteralVariable(_) => {
            StepSpec { pushes: 1, reads_heap: true, may_trap: true, ..base }
        }
        // Constant pushes cannot fail.
        I::PushReceiver | I::PushTrue | I::PushFalse | I::PushNil | I::PushZero | I::PushOne
        | I::PushMinusOne | I::PushTwo | I::PushInteger(_) => StepSpec { pushes: 1, ..base },
        I::PushThisContext => StepSpec { supported: false, ..base },

        I::Dup => StepSpec { pushes: 1, may_trap: true, ..base },
        I::Pop => StepSpec { pops: 1, may_trap: true, ..base },

        I::PopIntoTemp(_) => StepSpec { pops: 1, may_trap: true, ..base },
        I::StoreTemp(_) | I::StoreTempLong(_) => StepSpec { may_trap: true, ..base },
        I::PopIntoReceiverVariable(_) => {
            StepSpec { pops: 1, writes_heap: true, may_trap: true, ..base }
        }
        I::StoreReceiverVariableLong(_) => {
            StepSpec { writes_heap: true, may_trap: true, ..base }
        }

        // Inlined binary arithmetic: the int fast path folds; the
        // float path reads operand bodies and allocates the result;
        // everything else escalates to a send.
        I::Add | I::Subtract | I::Multiply | I::Divide => StepSpec {
            pops: 2,
            pushes: 1,
            reads_heap: true,
            writes_heap: true,
            may_send: true,
            may_trap: true,
            ..base
        },
        // Inlined comparisons: float path reads operand bodies but the
        // result is a singleton boolean (no allocation).
        I::LessThan | I::GreaterThan | I::LessOrEqual | I::GreaterOrEqual | I::Equal
        | I::NotEqual => StepSpec {
            pops: 2,
            pushes: 1,
            reads_heap: true,
            may_send: true,
            may_trap: true,
            ..base
        },
        // SmallInteger-only fast paths: no heap traffic on the inlined
        // path at all.
        I::Modulo | I::IntegerDivide | I::BitAnd | I::BitOr | I::BitShift => StepSpec {
            pops: 2,
            pushes: 1,
            may_send: true,
            may_trap: true,
            ..base
        },
        I::IdentityEqual => StepSpec { pops: 2, pushes: 1, may_trap: true, ..base },

        // Quick-path special sends.
        I::SpecialSendAt => StepSpec {
            pops: 2,
            pushes: 1,
            reads_heap: true,
            may_send: true,
            may_trap: true,
            ..base
        },
        I::SpecialSendAtPut => StepSpec {
            pops: 3,
            pushes: 1,
            reads_heap: true,
            writes_heap: true,
            may_send: true,
            may_trap: true,
            ..base
        },
        I::SpecialSendSize => StepSpec {
            pops: 1,
            pushes: 1,
            reads_heap: true,
            may_send: true,
            may_trap: true,
            ..base
        },
        // Plain sends: always leave the frame (the `Continue` path is
        // unreachable, so the stack delta is 0/0).
        I::SpecialSendValue | I::SpecialSendNew | I::SpecialSendClass | I::Send { .. } => {
            StepSpec { may_send: true, may_trap: true, ..base }
        }

        I::ReturnReceiver | I::ReturnTrue | I::ReturnFalse | I::ReturnNil => {
            StepSpec { may_return: true, ..base }
        }
        I::ReturnTop => StepSpec { may_return: true, may_trap: true, ..base },

        I::ShortJumpForward(_) | I::LongJumpForward(_) => StepSpec { may_jump: true, ..base },
        // Conditional jumps pop the condition on every path and send
        // `mustBeBoolean` on a non-boolean.
        I::ShortJumpTrue(_) | I::ShortJumpFalse(_) | I::LongJumpTrue(_) | I::LongJumpFalse(_) => {
            StepSpec { pops: 1, may_jump: true, may_send: true, may_trap: true, ..base }
        }

        I::Nop => base,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igjit_bytecode::instruction_catalog;

    #[test]
    fn continue_deltas_are_consistent_with_stack_arity() {
        // On instructions whose Continue path is reachable and that
        // consume what `stack_arity` pre-pushes, pops can never exceed
        // the arity the test compiler provisions.
        for spec in instruction_catalog() {
            let i = spec.instruction;
            let s = step_spec(i);
            if s.may_send || s.may_return {
                continue; // 0/0 or arity counts the send receiver too
            }
            assert!(
                u32::from(s.pops) <= i.stack_arity().max(1),
                "{i:?}: pops {} vs arity {}",
                s.pops,
                i.stack_arity()
            );
        }
    }

    #[test]
    fn unsupported_is_exactly_push_this_context() {
        for spec in instruction_catalog() {
            let i = spec.instruction;
            assert_eq!(
                !step_spec(i).supported,
                i == Instruction::PushThisContext,
                "{i:?}"
            );
        }
    }
}
