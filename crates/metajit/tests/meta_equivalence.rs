//! Per-opcode equivalence between the meta-compiled tier and the
//! interpreter it was derived from.
//!
//! For random frames and every catalog opcode: partially evaluate the
//! instruction against the frame, run the emitted code on the machine
//! simulator, and compare the observable exit (operand stack, temps,
//! jump/return/send payload) plus the heap effects (receiver and
//! association slots, dirty-word count under a seal) against one step
//! of the plain interpreter on an identical pristine environment.
//! A refusal is always acceptable — the campaign routes it through the
//! interpreter trampoline — but a *compiled* run must agree exactly.
//!
//! Frames whose interpreter step traps (frame fault, memory fault,
//! unsupported) are out of contract: the campaign's oracle gate
//! (`EngineExit::is_testable`) never lets them reach a compiled run,
//! so the comparison skips them.

use igjit_bytecode::Instruction;
use igjit_heap::{ObjectMemory, Oop};
use igjit_interp::{step, ConcreteContext, Frame, MethodInfo, Selector, StepOutcome};
use igjit_jit::{stops, Convention, MUST_BE_BOOLEAN_SELECTOR, SPILL_BYTES};
use igjit_machine::{Isa, Machine, MachineConfig, MachineOutcome, MachineSession};
use igjit_metajit::compile_meta;
use proptest::prelude::*;

/// Executable instructions, with operand indexes straddling the valid
/// range (2 args + 2 temps, 3 literals, 3 receiver slots) so frame and
/// memory faults are generated as often as clean steps — mirroring
/// the interpreter's `runner_props.rs`.
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

/// A frame value, abstract over the concrete memory it is built in:
/// the two environments must be bit-identical, so values are drawn as
/// descriptors and resolved against each memory separately.
#[derive(Clone, Copy, Debug)]
enum D {
    Nil,
    True,
    False,
    Recv,
    Float,
    Assoc,
    Int(i64),
}

fn arb_val() -> impl Strategy<Value = D> {
    prop_oneof![
        Just(D::Nil),
        Just(D::True),
        Just(D::False),
        Just(D::Recv),
        Just(D::Float),
        Just(D::Assoc),
        (-8i64..9).prop_map(D::Int),
        (-(1i64 << 30)..(1i64 << 30)).prop_map(D::Int),
    ]
}

struct Env {
    mem: ObjectMemory,
    recv: Oop,
    float: Oop,
    assoc: Oop,
}

/// The shared pristine environment of the interpreter's
/// `runner_props.rs`: a 3-slot receiver candidate, a Float and a 2-slot
/// association. Deterministic, so building it twice yields
/// bit-identical memories (and therefore identical oop addresses,
/// which the meta-compiler bakes in).
fn build_env() -> Env {
    let mut mem = ObjectMemory::new();
    let recv = mem
        .instantiate_array(&[
            Oop::from_small_int(10),
            Oop::from_small_int(20),
            Oop::from_small_int(30),
        ])
        .unwrap();
    let float = mem.instantiate_float(1.5).unwrap();
    let assoc = mem
        .instantiate_array(&[Oop::from_small_int(0), Oop::from_small_int(99)])
        .unwrap();
    Env { mem, recv, float, assoc }
}

fn oop_of(d: D, env: &Env) -> Oop {
    match d {
        D::Nil => env.mem.nil(),
        D::True => env.mem.true_object(),
        D::False => env.mem.false_object(),
        D::Recv => env.recv,
        D::Float => env.float,
        D::Assoc => env.assoc,
        D::Int(v) => Oop::from_small_int(v),
    }
}

fn make_frame(recv: D, stack: &[D], temps: &[D], env: &Env) -> Frame<Oop> {
    let method = MethodInfo {
        literals: vec![Oop::from_small_int(5), env.float, env.assoc],
        num_args: 2,
        num_temps: 2,
    };
    let mut f = Frame::new(oop_of(recv, env), method);
    f.temps = temps.iter().map(|&d| oop_of(d, env)).collect();
    f.stack = stack.iter().map(|&d| oop_of(d, env)).collect();
    f
}

/// Heap words the random opcodes can reach: the receiver candidate's
/// three slots and the association's two.
fn observable_slots(env: &ObjectMemory, recv: Oop, assoc: Oop) -> Vec<Result<Oop, ()>> {
    (0..3)
        .map(|i| env.fetch_pointer(recv, i).map_err(|_| ()))
        .chain((0..2).map(|i| env.fetch_pointer(assoc, i).map_err(|_| ())))
        .collect()
}

fn check(
    instr: Instruction,
    recv_d: D,
    stack_d: &[D],
    temps_d: &[D],
    isa: Isa,
) {
    // Interpreter side: one step from a sealed pristine environment.
    let mut env_i = build_env();
    let mut frame_i = make_frame(recv_d, stack_d, temps_d, &env_i);
    let _seal_i = env_i.mem.seal();
    let outcome = {
        let mut ctx = ConcreteContext::new(&mut env_i.mem);
        step(&mut ctx, &mut frame_i, instr)
    };
    if matches!(
        outcome,
        StepOutcome::InvalidFrame
            | StepOutcome::InvalidMemoryAccess
            | StepOutcome::Unsupported { .. }
    ) {
        // Fault paths never reach compiled runs in the campaign
        // (`EngineExit::is_testable`); out of the tier's contract.
        return;
    }

    // Meta side: compile against a bit-identical environment.
    let mut env_m = build_env();
    let frame_m = make_frame(recv_d, stack_d, temps_d, &env_m);
    let meta = match compile_meta(
        instr,
        &frame_m,
        env_m.mem.nil(),
        env_m.mem.true_object(),
        env_m.mem.false_object(),
        isa,
    ) {
        Ok(a) => a,
        // A refusal trampolines to the interpreter — trivially equal.
        Err(_) => return,
    };
    let _seal_m = env_m.mem.seal();

    let conv = Convention::for_isa(isa);
    let frame_bytes = 4 * meta.ntemps + SPILL_BYTES;
    let ntemps = meta.ntemps;
    let mut session = MachineSession::new();
    let mut m = Machine::with_session(&mut env_m.mem, isa, &meta.code, &mut session);
    m.set_reg(conv.receiver, frame_m.receiver.0);
    let machine_out = m.run(MachineConfig::default());
    match machine_out {
        MachineOutcome::Breakpoint { code } if code == stops::FALL_THROUGH => {
            prop_assert!(
                matches!(outcome, StepOutcome::Continue),
                "machine fell through but interpreter said {outcome:?}"
            );
            let sp = m.reg(conv.sp);
            let limit = m.initial_sp().wrapping_sub(frame_bytes);
            let mut stack = Vec::new();
            let mut a = sp;
            while a < limit {
                match m.read_stack(a) {
                    Ok(w) => stack.push(Oop(w)),
                    Err(_) => break,
                }
                a += 4;
            }
            stack.reverse();
            let fp = m.reg(conv.fp);
            let temps: Vec<Oop> = (0..ntemps)
                .map(|i| Oop(m.read_stack(fp.wrapping_sub(4 * (i + 1))).unwrap_or(0)))
                .collect();
            prop_assert_eq!(&stack, &frame_i.stack, "final operand stack differs");
            prop_assert_eq!(&temps, &frame_i.temps, "final temps differ");
        }
        MachineOutcome::Breakpoint { .. } => {
            prop_assert!(
                matches!(outcome, StepOutcome::Jump { .. }),
                "machine took a jump but interpreter said {outcome:?}"
            );
        }
        MachineOutcome::ReturnedToCaller => {
            let StepOutcome::MethodReturn { value } = outcome else {
                panic!("machine returned but interpreter said {outcome:?}");
            };
            prop_assert_eq!(Oop(m.reg(conv.receiver)), value, "returned value differs");
        }
        MachineOutcome::Send { selector_id } => {
            let StepOutcome::MessageSend { selector, receiver, args } = outcome else {
                panic!("machine sent #{selector_id} but interpreter said {outcome:?}");
            };
            let want = match selector {
                Selector::Special(s) => s.index(),
                Selector::MustBeBoolean => MUST_BE_BOOLEAN_SELECTOR,
                Selector::Literal(o) => o.0,
            };
            prop_assert_eq!(selector_id, want, "send selector differs");
            prop_assert_eq!(Oop(m.reg(conv.receiver)), receiver, "send receiver differs");
            for (i, &a) in args.iter().enumerate().take(3) {
                prop_assert_eq!(Oop(m.reg(conv.arg(i))), a, "send argument {} differs", i);
            }
        }
        other => {
            panic!("compiled run ended in {other:?} but interpreter said {outcome:?}");
        }
    }
    drop(m);

    // Heap effects: same dirty-word count under the seal, same
    // observable slot contents.
    prop_assert_eq!(
        env_i.mem.dirty_len(),
        env_m.mem.dirty_len(),
        "dirty-word bitmaps differ"
    );
    let slots_i = observable_slots(&env_i.mem, env_i.recv, env_i.assoc);
    let slots_m = observable_slots(&env_m.mem, env_m.recv, env_m.assoc);
    prop_assert_eq!(slots_i, slots_m, "heap slots differ");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn prop_meta_tier_matches_interpreter(
        instr in arb_instr(),
        recv_d in arb_val(),
        stack_d in proptest::collection::vec(arb_val(), 0..5),
        temps_d in proptest::collection::vec(arb_val(), 4..5),
        pick_arm in any::<bool>(),
    ) {
        let isa = if pick_arm { Isa::Arm32ish } else { Isa::X86ish };
        check(instr, recv_d, &stack_d, &temps_d, isa);
    }
}

/// The tier's static coverage floor: with a canonical well-formed
/// frame, well over 60% of the catalog's opcodes must meta-compile
/// outright (the ISSUE's acceptance bar for the campaign's coverage
/// report).
#[test]
fn catalog_coverage_is_above_the_floor() {
    let env = build_env();
    let frame = make_frame(
        D::Recv,
        &[D::Int(2), D::Int(3), D::Int(4)],
        &[D::Int(7), D::Int(-3), D::Nil, D::Nil],
        &env,
    );
    let catalog = igjit_bytecode::instruction_catalog();
    let mut compiled = 0usize;
    let mut refused: Vec<String> = Vec::new();
    for spec in &catalog {
        match compile_meta(
            spec.instruction,
            &frame,
            env.mem.nil(),
            env.mem.true_object(),
            env.mem.false_object(),
            Isa::X86ish,
        ) {
            Ok(_) => compiled += 1,
            Err(e) => refused.push(format!("{:?}: {}", spec.instruction, e)),
        }
    }
    assert!(
        compiled * 100 >= catalog.len() * 60,
        "only {}/{} opcodes meta-compile; refusals:\n{}",
        compiled,
        catalog.len(),
        refused.join("\n")
    );
}
