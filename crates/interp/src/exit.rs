//! Instruction exit conditions (§3.4 of the paper).

use igjit_bytecode::SpecialSelector;

/// How an instruction's execution finished, at the granularity the
/// differential tester compares (§3.4).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ExitCondition {
    /// The instruction ran to its end (bytecode) or the native method
    /// returned to its caller.
    Success,
    /// A native method rejected its operands and fell back to the
    /// user-defined method body.
    Failure,
    /// Execution left the interpreter to activate a message send.
    MessageSend,
    /// Execution returned to the caller frame.
    MethodReturn,
    /// A value was required that the (generated) frame does not hold —
    /// an *expected* failure telling the explorer to grow the frame.
    InvalidFrame,
    /// An out-of-bounds object access — expected for unsafe bytecodes,
    /// a genuine error for (safe-by-contract) native methods.
    InvalidMemoryAccess,
}

/// The selector of a message-send exit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Selector<V> {
    /// A selector from the VM-global special-selector table (optimised
    /// sends and fast-path bail-outs).
    Special(SpecialSelector),
    /// A selector pushed from the method's literal frame.
    Literal(V),
    /// The `mustBeBoolean` error send raised by conditional jumps on a
    /// non-boolean value.
    MustBeBoolean,
}

/// The arguments of a message-send exit, receiver excluded: at most
/// [`SendArgs::MAX`] (the encodable send arity), held inline so that a
/// send exit allocates nothing. Reads as a slice.
#[derive(Clone, Copy)]
pub struct SendArgs<V> {
    /// The arguments, then copies of a filler value that are never read.
    vals: [V; 3],
    len: u8,
}

impl<V: Copy> SendArgs<V> {
    /// The most arguments a send carries.
    pub const MAX: usize = 3;

    /// The arguments `args`, at most [`SendArgs::MAX`] of them; `filler`
    /// pads the unused slots and is never read.
    pub fn new(args: &[V], filler: V) -> SendArgs<V> {
        assert!(args.len() <= Self::MAX, "a send carries at most {} arguments", Self::MAX);
        let mut vals = [filler; 3];
        vals[..args.len()].copy_from_slice(args);
        SendArgs { vals, len: args.len() as u8 }
    }

    /// Appends an argument.
    ///
    /// # Panics
    /// When the send already carries [`SendArgs::MAX`] arguments.
    pub fn push(&mut self, v: V) {
        assert!(usize::from(self.len) < Self::MAX, "a send carries at most {} arguments", Self::MAX);
        self.vals[usize::from(self.len)] = v;
        self.len += 1;
    }
}

impl<V> std::ops::Deref for SendArgs<V> {
    type Target = [V];

    fn deref(&self) -> &[V] {
        &self.vals[..usize::from(self.len)]
    }
}

impl<V: PartialEq> PartialEq for SendArgs<V> {
    fn eq(&self, other: &SendArgs<V>) -> bool {
        **self == **other
    }
}

impl<V: std::fmt::Debug> std::fmt::Debug for SendArgs<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// The full outcome of stepping one bytecode instruction.
#[derive(Clone, PartialEq, Debug)]
pub enum StepOutcome<V> {
    /// Fell through to the next instruction; operand stack updated.
    Continue,
    /// Took a jump of `displacement` bytes relative to the *end* of
    /// the instruction.
    Jump {
        /// Signed displacement in bytes.
        displacement: i32,
    },
    /// Returned from the method.
    MethodReturn {
        /// The returned value.
        value: V,
    },
    /// Activated a message send (slow path or generic send).
    MessageSend {
        /// The sent selector.
        selector: Selector<V>,
        /// Receiver of the message.
        receiver: V,
        /// Arguments, receiver excluded.
        args: SendArgs<V>,
    },
    /// Frame too small (missing stack value, temp or literal).
    InvalidFrame,
    /// Out-of-bounds object access.
    InvalidMemoryAccess,
    /// The instruction uses a feature the prototype does not model
    /// (stack-frame reification, bytecode look-ahead); §4.3.
    Unsupported {
        /// What is missing.
        reason: &'static str,
    },
}

impl<V> StepOutcome<V> {
    /// Collapses the outcome to the paper's exit-condition lattice.
    pub fn exit_condition(&self) -> Option<ExitCondition> {
        Some(match self {
            StepOutcome::Continue | StepOutcome::Jump { .. } => ExitCondition::Success,
            StepOutcome::MethodReturn { .. } => ExitCondition::MethodReturn,
            StepOutcome::MessageSend { .. } => ExitCondition::MessageSend,
            StepOutcome::InvalidFrame => ExitCondition::InvalidFrame,
            StepOutcome::InvalidMemoryAccess => ExitCondition::InvalidMemoryAccess,
            StepOutcome::Unsupported { .. } => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcomes_map_to_exit_conditions() {
        assert_eq!(
            StepOutcome::<u32>::Continue.exit_condition(),
            Some(ExitCondition::Success)
        );
        assert_eq!(
            StepOutcome::<u32>::Jump { displacement: 3 }.exit_condition(),
            Some(ExitCondition::Success)
        );
        assert_eq!(
            StepOutcome::MethodReturn { value: 0u32 }.exit_condition(),
            Some(ExitCondition::MethodReturn)
        );
        assert_eq!(
            StepOutcome::<u32>::InvalidFrame.exit_condition(),
            Some(ExitCondition::InvalidFrame)
        );
        assert_eq!(
            StepOutcome::<u32>::Unsupported { reason: "x" }.exit_condition(),
            None
        );
    }
}
