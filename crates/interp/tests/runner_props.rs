//! Property tests of the whole-method runner's fetch loop: for
//! arbitrary instruction streams, raw byte soup and a leading jump to
//! any displacement, [`run_method`] returns instead of panicking, and
//! a pc the decoder cannot read surfaces as `Err(RunError::Decode(_))`
//! carrying the decoder's own error for that pc.

use igjit_bytecode::{decode, CompiledMethod, DecodeError, Instruction, MethodBuilder};
use igjit_heap::{ObjectMemory, Oop};
use igjit_interp::{run_method, step_spec, MethodResult, RunError};
use proptest::prelude::*;

/// Executable instructions, with operand indexes straddling the valid
/// range (2 args + 2 temps, 3 literals, 3 receiver slots) so frame and
/// memory faults are generated as often as clean steps.
fn arb_instr() -> impl Strategy<Value = Instruction> {
    use Instruction as I;
    prop_oneof![
        (0u8..6).prop_map(I::PushReceiverVariable),
        (0u8..6).prop_map(I::PushReceiverVariableLong),
        (0u8..6).prop_map(I::PushTemp),
        (0u8..6).prop_map(I::PushTempLong),
        (0u8..6).prop_map(I::PushLiteralConstant),
        (0u8..6).prop_map(I::PushLiteralLong),
        (0u8..6).prop_map(I::PushLiteralVariable),
        Just(I::PushReceiver),
        Just(I::PushTrue),
        Just(I::PushFalse),
        Just(I::PushNil),
        Just(I::PushZero),
        Just(I::PushOne),
        Just(I::PushMinusOne),
        Just(I::PushTwo),
        any::<i8>().prop_map(I::PushInteger),
        Just(I::PushThisContext),
        Just(I::Dup),
        Just(I::Pop),
        (0u8..6).prop_map(I::PopIntoTemp),
        (0u8..6).prop_map(I::StoreTemp),
        (0u8..6).prop_map(I::StoreTempLong),
        (0u8..6).prop_map(I::PopIntoReceiverVariable),
        (0u8..6).prop_map(I::StoreReceiverVariableLong),
        Just(I::Add),
        Just(I::Subtract),
        Just(I::Multiply),
        Just(I::Divide),
        Just(I::Modulo),
        Just(I::IntegerDivide),
        Just(I::LessThan),
        Just(I::GreaterThan),
        Just(I::LessOrEqual),
        Just(I::GreaterOrEqual),
        Just(I::Equal),
        Just(I::NotEqual),
        Just(I::IdentityEqual),
        Just(I::BitAnd),
        Just(I::BitOr),
        Just(I::BitShift),
        Just(I::SpecialSendAt),
        Just(I::SpecialSendAtPut),
        Just(I::SpecialSendSize),
        Just(I::SpecialSendValue),
        Just(I::SpecialSendNew),
        Just(I::SpecialSendClass),
        (0u8..6, 0u8..4).prop_map(|(lit, nargs)| I::Send { lit, nargs }),
        Just(I::ReturnReceiver),
        Just(I::ReturnTrue),
        Just(I::ReturnFalse),
        Just(I::ReturnNil),
        Just(I::ReturnTop),
        (1u8..9).prop_map(I::ShortJumpForward),
        (1u8..9).prop_map(I::ShortJumpTrue),
        (1u8..9).prop_map(I::ShortJumpFalse),
        any::<i8>().prop_map(I::LongJumpForward),
        (0u8..16).prop_map(I::LongJumpTrue),
        (0u8..16).prop_map(I::LongJumpFalse),
        Just(I::Nop),
    ]
}

/// Builds the shared pristine environment: a 3-slot receiver, one
/// SmallInteger argument, two temps, and three literals (a
/// SmallInteger, a Float, and a 2-slot array so `PushLiteralVariable`
/// has a fetchable value slot). Deterministic, so building it twice
/// yields bit-identical memories.
fn build_env(emit: impl Fn(&mut MethodBuilder)) -> (ObjectMemory, Oop, Oop, Vec<Oop>) {
    let mut mem = ObjectMemory::new();
    let receiver = mem
        .instantiate_array(&[
            Oop::from_small_int(10),
            Oop::from_small_int(20),
            Oop::from_small_int(30),
        ])
        .unwrap();
    let f = mem.instantiate_float(1.5).unwrap();
    let assoc = mem
        .instantiate_array(&[Oop::from_small_int(0), Oop::from_small_int(99)])
        .unwrap();
    let mut b = MethodBuilder::new(2, 2);
    b.add_literal(Oop::from_small_int(5));
    b.add_literal(f);
    b.add_literal(assoc);
    emit(&mut b);
    let method = b.install(&mut mem).unwrap();
    let args = vec![Oop::from_small_int(7), Oop::from_small_int(-3)];
    (mem, method, receiver, args)
}

/// Runs the method built by `emit` from the pristine environment and
/// checks that any decode fault is one the decoder itself reports: an
/// unreadable byte at the pc it names, or the one error a jump to a
/// negative pc raises. Returns the result, the method's bytes and the
/// receiver.
fn run(emit: impl Fn(&mut MethodBuilder)) -> (Result<MethodResult, RunError>, Vec<u8>, Oop) {
    let (mut mem, method, receiver, args) = build_env(&emit);
    let bytes = CompiledMethod::new(method).bytecodes(&mem).unwrap();
    let result = run_method(&mut mem, method, receiver, &args);
    if let Err(RunError::Decode(e)) = result {
        let at = match e {
            DecodeError::UnknownOpcode { pc, .. } | DecodeError::TruncatedOperand { pc, .. } => pc,
            DecodeError::PcOutOfRange { pc, len } => {
                assert_eq!((pc, len), (0, bytes.len()), "only a negative jump leaves the method");
                return (result, bytes, receiver);
            }
        };
        assert_eq!(decode(&bytes, at), Err(e), "the decoder's own error at pc {at}");
    }
    (result, bytes, receiver)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn prop_instruction_streams_decode_fault_only_after_a_jump(
        instrs in proptest::collection::vec(arb_instr(), 1..24)
    ) {
        let (result, _, _) = run(|b| {
            for &i in &instrs {
                b.emit(i);
            }
        });
        // Sequential pcs always land on an encoded boundary; only a
        // jump can reach a pc the decoder cannot read.
        if !instrs.iter().any(|&i| step_spec(i).may_jump) {
            prop_assert!(!matches!(result, Err(RunError::Decode(_))), "{result:?}");
        }
    }

    #[test]
    fn prop_byte_soup_faults_where_the_decoder_does(
        bytes in proptest::collection::vec(any::<u8>(), 0..64)
    ) {
        let (result, encoded, _) = run(|b| {
            b.emit_raw(&bytes);
        });
        prop_assert_eq!(&encoded, &bytes);
        // The first fetch is at pc 0: an unreadable first instruction
        // is the run's result.
        if let (false, Err(e)) = (bytes.is_empty(), decode(&bytes, 0)) {
            prop_assert_eq!(result, Err(RunError::Decode(e)));
        }
    }

    #[test]
    fn prop_wild_entry_jump_lands_where_it_points(
        off in any::<i8>(),
        instrs in proptest::collection::vec(arb_instr(), 1..16)
    ) {
        // A leading jump with a random displacement lands anywhere in
        // the stream — instruction boundary, mid-instruction, past the
        // end, or negative.
        let (result, bytes, receiver) = run(|b| {
            b.emit(Instruction::LongJumpForward(off));
            for &i in &instrs {
                b.emit(i);
            }
        });
        let target = 2 + i64::from(off);
        if target < 0 {
            prop_assert_eq!(
                result,
                Err(RunError::Decode(DecodeError::PcOutOfRange { pc: 0, len: bytes.len() }))
            );
        } else if target as usize >= bytes.len() {
            prop_assert_eq!(result, Ok(MethodResult::Returned(receiver)));
        } else if let Err(e) = decode(&bytes, target as usize) {
            prop_assert_eq!(result, Err(RunError::Decode(e)));
        }
    }
}
