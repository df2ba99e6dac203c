//! Ablation study of the reproduction's design choices (the DESIGN.md
//! commitments):
//!
//! 1. **kind/boundary probing off vs on** — how much of Table 3
//!    disappears without the probing extension;
//! 2. **single-ISA vs cross-ISA** — what the second back-end buys;
//! 3. **exploration budget sweep** — how path discovery saturates with
//!    the solve/execute iteration budget.

use std::collections::BTreeSet;

use igjit::{
    instruction_catalog, native_catalog, test_instruction, CompilerKind, DefectCategory,
    Explorer, InstrUnderTest, Isa, Target,
};
use igjit_bench::outln;

fn defect_families(probes: bool, isas: &[Isa]) -> BTreeSet<DefectCategory> {
    let mut found = BTreeSet::new();
    // The defect-bearing representatives.
    for id in [40u16, 41, 14, 13, 52, 120] {
        let o = test_instruction(
            InstrUnderTest::Native(igjit::NativeMethodId(id)),
            Target::NativeMethods,
            isas,
            probes,
        );
        for c in o.causes() {
            found.insert(c.category);
        }
    }
    let o = test_instruction(
        InstrUnderTest::Bytecode(igjit::Instruction::Add),
        Target::Bytecode(CompilerKind::SimpleStackBased),
        isas,
        probes,
    );
    for c in o.causes() {
        found.insert(c.category);
    }
    found
}

fn main() {
    let _mutant = igjit_bench::arm_mutant_from_env();
    outln!("== ablation 1: probing off vs on ==");
    let both = [Isa::X86ish, Isa::Arm32ish];
    let without = defect_families(false, &both);
    let with = defect_families(true, &both);
    outln!("families found without probing: {}/6 {:?}", without.len(), without);
    outln!("families found with probing:    {}/6 {:?}", with.len(), with);
    outln!(
        "probing-only families: {:?}",
        with.difference(&without).collect::<Vec<_>>()
    );

    outln!("\n== ablation 2: single-ISA vs cross-ISA ==");
    for isas in [&[Isa::X86ish][..], &both[..]] {
        let mut diffs = 0;
        for id in [40u16, 41, 47, 52, 53, 14, 13] {
            let o = test_instruction(
                InstrUnderTest::Native(igjit::NativeMethodId(id)),
                Target::NativeMethods,
                isas,
                true,
            );
            diffs += o.difference_count();
        }
        outln!("  {} ISA(s): {diffs} differing paths over the defect set", isas.len());
    }

    outln!("\n== ablation 3: exploration budget sweep ==");
    for budget in [4usize, 8, 16, 32, 64, 192] {
        let explorer = Explorer { max_iterations: budget, max_path_len: 48 };
        let mut paths = 0;
        for spec in instruction_catalog().into_iter().take(40) {
            paths += explorer.explore(InstrUnderTest::Bytecode(spec.instruction)).paths.len();
        }
        for spec in native_catalog().into_iter().take(20) {
            paths += explorer.explore(InstrUnderTest::Native(spec.id)).paths.len();
        }
        outln!("  budget {budget:>4}: {paths} paths over a 60-instruction sample");
    }
}
