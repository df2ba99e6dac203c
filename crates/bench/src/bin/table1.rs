//! Regenerates Table 1 / Figure 2 of the paper: the concolic
//! execution paths of the add bytecode, with the concrete values fed
//! as arguments, the recorded constraint paths, and the exit
//! conditions.

use igjit::{Explorer, InstrUnderTest, Instruction, PathOutcome};
use igjit_bench::outln;

fn main() {
    let _mutant = igjit_bench::arm_mutant_from_env();
    let r = Explorer::new().explore(InstrUnderTest::Bytecode(Instruction::Add));
    outln!("Table 1 / Figure 2: concolic execution paths of the add bytecode\n");
    outln!("{} paths found ({} curated)\n", r.paths.len(), r.curated_paths().len());
    for (i, p) in r.paths.iter().enumerate() {
        let exit = match &p.outcome {
            PathOutcome::Success => "success".to_string(),
            PathOutcome::Jump { .. } => "jump".to_string(),
            PathOutcome::Failure => "failure".to_string(),
            PathOutcome::MessageSend(s) => format!(
                "message send {}",
                s.special.map(|s| s.name()).unwrap_or("<literal>")
            ),
            PathOutcome::MethodReturn { .. } => "method return".to_string(),
            PathOutcome::InvalidFrame => "invalid frame".to_string(),
            PathOutcome::InvalidMemoryAccess => "invalid memory access".to_string(),
            PathOutcome::Unsupported { reason } => format!("unsupported: {reason}"),
        };
        // The concrete operand stack the model materializes.
        let stack_size = p.model.int_value(r.state.stack_size).clamp(0, 8);
        let mut args = Vec::new();
        for d in 0..stack_size as usize {
            if let Some(&v) = r.state.stack_vars.get(d) {
                let a = p.model.assignment(v);
                args.push(format!("s{} = {:?}({})", d + 1, a.kind, a.int));
            }
        }
        outln!("concolic execution #{}", i + 1);
        outln!("  inputs : operand_stack_size = {stack_size}; {}", args.join(", "));
        outln!("  path   : {:?}", p.constraints);
        outln!("  exit   : {exit}\n");
    }
}
