//! The instruction set and its family structure.

use crate::selectors::SpecialSelector;

/// A decoded bytecode instruction.
///
/// Index-carrying variants correspond to *ranges* of opcode bytes
/// (e.g. `PushTemp(0)`..`PushTemp(11)` are twelve distinct opcodes of
/// one family), mirroring how the Sista set encodes its hot cases in
/// single bytes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Instruction {
    // --- pushes ---------------------------------------------------------
    /// Push the receiver's instance variable `n` (0..=11 short forms).
    PushReceiverVariable(u8),
    /// Push temporary/argument `n` (0..=11 short forms).
    PushTemp(u8),
    /// Push method literal `n` (0..=15 short forms).
    PushLiteralConstant(u8),
    /// Push the value slot of the association stored as literal `n`
    /// (0..=7 short forms).
    PushLiteralVariable(u8),
    /// Push the receiver.
    PushReceiver,
    /// Push `true`.
    PushTrue,
    /// Push `false`.
    PushFalse,
    /// Push `nil`.
    PushNil,
    /// Push the SmallInteger 0.
    PushZero,
    /// Push the SmallInteger 1.
    PushOne,
    /// Push the SmallInteger -1.
    PushMinusOne,
    /// Push the SmallInteger 2.
    PushTwo,
    /// Push a signed 8-bit immediate SmallInteger (two-byte form).
    PushInteger(i8),
    /// Push the reified stack frame (unsupported by the prototype; the
    /// curation step of §5.2 excludes its paths).
    PushThisContext,

    // --- stack shuffling --------------------------------------------------
    /// Duplicate the top of the operand stack.
    Dup,
    /// Discard the top of the operand stack.
    Pop,

    // --- stores -----------------------------------------------------------
    /// Pop the stack top into temporary `n` (0..=7 short forms).
    PopIntoTemp(u8),
    /// Pop the stack top into receiver instance variable `n` (0..=7).
    PopIntoReceiverVariable(u8),
    /// Store (without popping) into temporary `n` (0..=7).
    StoreTemp(u8),
    /// Two-byte push of temporary `n`.
    PushTempLong(u8),
    /// Two-byte store into temporary `n`.
    StoreTempLong(u8),
    /// Two-byte push of literal `n`.
    PushLiteralLong(u8),
    /// Two-byte push of receiver instance variable `n`.
    PushReceiverVariableLong(u8),
    /// Two-byte store into receiver instance variable `n`.
    StoreReceiverVariableLong(u8),

    // --- inlined special-selector sends ------------------------------------
    /// `+` with static type prediction (SmallInteger and Float paths
    /// inlined in the interpreter — Listing 1 of the paper).
    Add,
    /// `-` with static type prediction.
    Subtract,
    /// `<` with static type prediction.
    LessThan,
    /// `>` with static type prediction.
    GreaterThan,
    /// `<=` with static type prediction.
    LessOrEqual,
    /// `>=` with static type prediction.
    GreaterOrEqual,
    /// `=` with static type prediction.
    Equal,
    /// `~=` with static type prediction.
    NotEqual,
    /// `*` with static type prediction.
    Multiply,
    /// `/` with static type prediction (fails on inexact division).
    Divide,
    /// `\\` (modulo) with SmallInteger fast path.
    Modulo,
    /// `//` (floor division) with SmallInteger fast path.
    IntegerDivide,
    /// `==` — identity comparison, always inlined, cannot fail.
    IdentityEqual,
    /// `bitAnd:` with SmallInteger fast path.
    BitAnd,
    /// `bitOr:` with SmallInteger fast path.
    BitOr,
    /// `bitShift:` with SmallInteger fast path.
    BitShift,

    // --- special sends with quick paths -------------------------------------
    /// `at:` — quick path for Arrays with in-range SmallInteger index.
    SpecialSendAt,
    /// `at:put:` — quick path for Arrays with in-range index.
    SpecialSendAtPut,
    /// `size` — quick path for Arrays and ByteArrays.
    SpecialSendSize,
    /// `value` — plain message send (block evaluation).
    SpecialSendValue,
    /// `new` — plain message send.
    SpecialSendNew,
    /// `class` — plain message send (class objects are not reified in
    /// this reproduction).
    SpecialSendClass,

    // --- generic sends -------------------------------------------------------
    /// Send the selector stored as literal `lit` to a receiver with
    /// `nargs` arguments (0..=3 encoded in the opcode byte).
    Send {
        /// Literal index holding the selector symbol.
        lit: u8,
        /// Argument count.
        nargs: u8,
    },

    // --- returns ---------------------------------------------------------------
    /// Return the receiver.
    ReturnReceiver,
    /// Return `true`.
    ReturnTrue,
    /// Return `false`.
    ReturnFalse,
    /// Return `nil`.
    ReturnNil,
    /// Return the top of the operand stack.
    ReturnTop,

    // --- jumps --------------------------------------------------------------------
    /// Short unconditional forward jump of `n` bytes (1..=8).
    ShortJumpForward(u8),
    /// Short jump of `n` bytes if the stack top is `true` (1..=8).
    ShortJumpTrue(u8),
    /// Short jump of `n` bytes if the stack top is `false` (1..=8).
    ShortJumpFalse(u8),
    /// Two-byte unconditional jump, signed displacement.
    LongJumpForward(i8),
    /// Two-byte conditional jump on `true`.
    LongJumpTrue(u8),
    /// Two-byte conditional jump on `false`.
    LongJumpFalse(u8),

    /// No operation.
    Nop,
}

/// The family an instruction belongs to.
///
/// Families group opcode bytes sharing one semantic implementation —
/// the unit the paper's defect-cause analysis (§5.3) deduplicates on.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
#[allow(missing_docs)]
pub enum Family {
    PushReceiverVariable,
    PushTemporary,
    PushLiteralConstant,
    PushLiteralVariable,
    PushReceiver,
    PushConstant,
    PushImmediate,
    PushThisContext,
    Dup,
    Pop,
    PopIntoTemp,
    PopIntoReceiverVariable,
    StoreTemp,
    StoreReceiverVariable,
    ArithmeticAdd,
    ArithmeticSubtract,
    ArithmeticMultiply,
    ArithmeticDivide,
    ArithmeticModulo,
    ArithmeticIntegerDivide,
    CompareLess,
    CompareGreater,
    CompareLessOrEqual,
    CompareGreaterOrEqual,
    CompareEqual,
    CompareNotEqual,
    IdentityEqual,
    BitwiseAnd,
    BitwiseOr,
    BitwiseShift,
    SpecialSendAt,
    SpecialSendAtPut,
    SpecialSendSize,
    SpecialSendOther,
    Send,
    Return,
    JumpUnconditional,
    JumpConditional,
    Nop,
}

impl Instruction {
    /// The family this instruction belongs to.
    pub fn family(self) -> Family {
        use Instruction as I;
        match self {
            I::PushReceiverVariable(_) | I::PushReceiverVariableLong(_) => {
                Family::PushReceiverVariable
            }
            I::PushTemp(_) | I::PushTempLong(_) => Family::PushTemporary,
            I::PushLiteralConstant(_) | I::PushLiteralLong(_) => Family::PushLiteralConstant,
            I::PushLiteralVariable(_) => Family::PushLiteralVariable,
            I::PushReceiver => Family::PushReceiver,
            I::PushTrue | I::PushFalse | I::PushNil | I::PushZero | I::PushOne
            | I::PushMinusOne | I::PushTwo => Family::PushConstant,
            I::PushInteger(_) => Family::PushImmediate,
            I::PushThisContext => Family::PushThisContext,
            I::Dup => Family::Dup,
            I::Pop => Family::Pop,
            I::PopIntoTemp(_) => Family::PopIntoTemp,
            I::PopIntoReceiverVariable(_) => Family::PopIntoReceiverVariable,
            I::StoreTemp(_) | I::StoreTempLong(_) => Family::StoreTemp,
            I::StoreReceiverVariableLong(_) => Family::StoreReceiverVariable,
            I::Add => Family::ArithmeticAdd,
            I::Subtract => Family::ArithmeticSubtract,
            I::Multiply => Family::ArithmeticMultiply,
            I::Divide => Family::ArithmeticDivide,
            I::Modulo => Family::ArithmeticModulo,
            I::IntegerDivide => Family::ArithmeticIntegerDivide,
            I::LessThan => Family::CompareLess,
            I::GreaterThan => Family::CompareGreater,
            I::LessOrEqual => Family::CompareLessOrEqual,
            I::GreaterOrEqual => Family::CompareGreaterOrEqual,
            I::Equal => Family::CompareEqual,
            I::NotEqual => Family::CompareNotEqual,
            I::IdentityEqual => Family::IdentityEqual,
            I::BitAnd => Family::BitwiseAnd,
            I::BitOr => Family::BitwiseOr,
            I::BitShift => Family::BitwiseShift,
            I::SpecialSendAt => Family::SpecialSendAt,
            I::SpecialSendAtPut => Family::SpecialSendAtPut,
            I::SpecialSendSize => Family::SpecialSendSize,
            I::SpecialSendValue | I::SpecialSendNew | I::SpecialSendClass => {
                Family::SpecialSendOther
            }
            I::Send { .. } => Family::Send,
            I::ReturnReceiver | I::ReturnTrue | I::ReturnFalse | I::ReturnNil | I::ReturnTop => {
                Family::Return
            }
            I::ShortJumpForward(_) | I::LongJumpForward(_) => Family::JumpUnconditional,
            I::ShortJumpTrue(_) | I::ShortJumpFalse(_) | I::LongJumpTrue(_)
            | I::LongJumpFalse(_) => Family::JumpConditional,
            I::Nop => Family::Nop,
        }
    }

    /// The special selector an inlined send instruction stands for, if
    /// this instruction is an optimised send.
    pub fn special_selector(self) -> Option<SpecialSelector> {
        use Instruction as I;
        Some(match self {
            I::Add => SpecialSelector::Plus,
            I::Subtract => SpecialSelector::Minus,
            I::LessThan => SpecialSelector::LessThan,
            I::GreaterThan => SpecialSelector::GreaterThan,
            I::LessOrEqual => SpecialSelector::LessOrEqual,
            I::GreaterOrEqual => SpecialSelector::GreaterOrEqual,
            I::Equal => SpecialSelector::Equal,
            I::NotEqual => SpecialSelector::NotEqual,
            I::Multiply => SpecialSelector::Times,
            I::Divide => SpecialSelector::Divide,
            I::Modulo => SpecialSelector::Modulo,
            I::IntegerDivide => SpecialSelector::IntegerDivide,
            I::IdentityEqual => SpecialSelector::IdentityEqual,
            I::BitAnd => SpecialSelector::BitAnd,
            I::BitOr => SpecialSelector::BitOr,
            I::BitShift => SpecialSelector::BitShift,
            I::SpecialSendAt => SpecialSelector::At,
            I::SpecialSendAtPut => SpecialSelector::AtPut,
            I::SpecialSendSize => SpecialSelector::Size,
            I::SpecialSendValue => SpecialSelector::Value,
            I::SpecialSendNew => SpecialSelector::New,
            I::SpecialSendClass => SpecialSelector::Class,
            _ => return None,
        })
    }

    /// Number of operand-stack values this instruction consumes before
    /// doing anything else. Used by the test compiler (§4.2) to decide
    /// how many literals to pre-push.
    pub fn stack_arity(self) -> u32 {
        use Instruction as I;
        match self {
            I::Add | I::Subtract | I::Multiply | I::Divide | I::Modulo | I::IntegerDivide
            | I::LessThan | I::GreaterThan | I::LessOrEqual | I::GreaterOrEqual | I::Equal
            | I::NotEqual | I::IdentityEqual | I::BitAnd | I::BitOr | I::BitShift
            | I::SpecialSendAt => 2,
            I::SpecialSendAtPut => 3,
            I::Pop | I::Dup | I::ReturnTop | I::PopIntoTemp(_) | I::PopIntoReceiverVariable(_)
            | I::StoreTemp(_) | I::StoreTempLong(_) | I::StoreReceiverVariableLong(_)
            | I::ShortJumpTrue(_) | I::ShortJumpFalse(_) | I::LongJumpTrue(_)
            | I::LongJumpFalse(_) | I::SpecialSendSize | I::SpecialSendValue
            | I::SpecialSendNew | I::SpecialSendClass => 1,
            I::Send { nargs, .. } => u32::from(nargs) + 1,
            _ => 0,
        }
    }

    /// Whether this instruction is a conditional or unconditional jump.
    pub fn is_jump(self) -> bool {
        matches!(
            self.family(),
            Family::JumpConditional | Family::JumpUnconditional
        )
    }

    /// A stable human-readable mnemonic.
    pub fn mnemonic(self) -> String {
        format!("{self:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_group_short_and_long_forms() {
        assert_eq!(
            Instruction::PushTemp(3).family(),
            Instruction::PushTempLong(40).family()
        );
        assert_eq!(
            Instruction::PushReceiverVariable(0).family(),
            Instruction::PushReceiverVariableLong(99).family()
        );
    }

    #[test]
    fn arithmetic_instructions_have_selectors() {
        assert_eq!(
            Instruction::Add.special_selector(),
            Some(SpecialSelector::Plus)
        );
        assert_eq!(Instruction::PushReceiver.special_selector(), None);
    }

    #[test]
    fn stack_arity_matches_semantics() {
        assert_eq!(Instruction::Add.stack_arity(), 2);
        assert_eq!(Instruction::SpecialSendAtPut.stack_arity(), 3);
        assert_eq!(Instruction::Send { lit: 0, nargs: 2 }.stack_arity(), 3);
        assert_eq!(Instruction::PushReceiver.stack_arity(), 0);
        assert_eq!(Instruction::Pop.stack_arity(), 1);
    }

    #[test]
    fn jump_classification() {
        assert!(Instruction::ShortJumpForward(3).is_jump());
        assert!(Instruction::LongJumpFalse(10).is_jump());
        assert!(!Instruction::Add.is_jump());
    }
}
