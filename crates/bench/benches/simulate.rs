//! Criterion bench of the two ways one compiled test method reaches
//! the machine simulator.
//!
//! * `one_shot_byte_decode` — every run allocates a fresh 64 KB
//!   machine stack.
//! * `session_byte_decode` — the campaign's batched-replay shape: a
//!   persistent [`MachineSession`] is reset (low-water-mark zeroing)
//!   instead of reallocated.
//!
//! Both decode each step from bytes. (The heap side of batched replay
//! — seal/restore versus fresh materialization — is covered by the
//! `snapshot` bench.)

use criterion::{criterion_group, criterion_main, Criterion};
use igjit_heap::ObjectMemory;
use igjit_jit::native::igjit_bytecode_native_id::NativeMethodIdLike;
use igjit_jit::{compile_bytecode_test, compile_native_test, BytecodeTestInput, CompiledCode,
                Convention, NativeTestInput};
use igjit_machine::{Isa, Machine, MachineConfig, MachineSession};

/// Compiled methods covering both unit shapes: a native template
/// (register-calling-convention, short body) and a bytecode test
/// (operand stack traffic, more steps per run).
fn subjects(mem: &ObjectMemory) -> Vec<(&'static str, CompiledCode)> {
    let native_input = NativeTestInput {
        nil: mem.nil(),
        true_obj: mem.true_object(),
        false_obj: mem.false_object(),
    };
    let stack = [igjit_heap::Oop::from_small_int(20), igjit_heap::Oop::from_small_int(22)];
    let bc_input = BytecodeTestInput {
        instruction: igjit_bytecode::Instruction::Add,
        operand_stack: &stack,
        temps: &[],
        literals: &[],
        nil: mem.nil(),
        true_obj: mem.true_object(),
        false_obj: mem.false_object(),
    };
    vec![
        (
            "native_add",
            compile_native_test(NativeMethodIdLike(1), native_input, Isa::X86ish)
                .expect("native add compiles"),
        ),
        (
            "bc_add",
            compile_bytecode_test(
                igjit_jit::CompilerKind::StackToRegister,
                &bc_input,
                Isa::X86ish,
            )
            .expect("bytecode add compiles"),
        ),
    ]
}

/// Seeds the receiver/argument registers the way the campaign does, so
/// the native body runs its real fast path instead of bailing early.
fn seed_regs(m: &mut Machine<'_>, isa: Isa) {
    let conv = Convention::for_isa(isa);
    m.set_reg(conv.receiver, igjit_heap::Oop::from_small_int(20).0);
    m.set_reg(conv.arg(0), igjit_heap::Oop::from_small_int(22).0);
}

fn bench_simulate_modes(c: &mut Criterion) {
    let mem = ObjectMemory::new();
    for (label, compiled) in subjects(&mem) {
        let isa = compiled.isa;
        let mut g = c.benchmark_group(format!("simulate/{label}"));

        g.bench_function("one_shot_byte_decode", |b| {
            b.iter(|| {
                let mut run_mem = ObjectMemory::new();
                let mut m = Machine::new(&mut run_mem, isa, &compiled.code);
                seed_regs(&mut m, isa);
                m.run(MachineConfig::default())
            })
        });

        g.bench_function("session_byte_decode", |b| {
            let mut run_mem = ObjectMemory::new();
            let mut session = MachineSession::new();
            b.iter(|| {
                let mut m = Machine::with_session(&mut run_mem, isa, &compiled.code, &mut session);
                seed_regs(&mut m, isa);
                m.run(MachineConfig::default())
            })
        });

        g.finish();
    }
}

criterion_group!(benches, bench_simulate_modes);
criterion_main!(benches);
