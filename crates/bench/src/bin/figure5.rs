//! Regenerates Figure 5: paths per instruction, bytecode vs native
//! method (log scale).

use igjit::report::{ascii_histogram, stats};
use igjit::{instruction_catalog, native_catalog, Explorer, InstrUnderTest};
use igjit_bench::outln;

fn main() {
    let _mutant = igjit_bench::arm_mutant_from_env();
    let explorer = Explorer::new();
    let mut bc_paths = Vec::new();
    let mut nm_paths = Vec::new();

    eprintln!("exploring all bytecode instructions…");
    for spec in instruction_catalog() {
        let r = explorer.explore(InstrUnderTest::Bytecode(spec.instruction));
        bc_paths.push(r.paths.len() as f64);
    }
    eprintln!("exploring all native methods…");
    for spec in native_catalog() {
        let r = explorer.explore(InstrUnderTest::Native(spec.id));
        nm_paths.push(r.paths.len() as f64);
    }

    outln!("\nFigure 5: paths per instruction (log scale)\n");
    let bc = stats(bc_paths.iter().copied()).unwrap();
    let nm = stats(nm_paths.iter().copied()).unwrap();
    outln!(
        "Bytecode       min {:>5.1}  median {:>5.1}  mean {:>5.1}  max {:>5.1}   (n = {})",
        bc.min, bc.median, bc.mean, bc.max, bc_paths.len()
    );
    outln!(
        "Native Method  min {:>5.1}  median {:>5.1}  mean {:>5.1}  max {:>5.1}   (n = {})",
        nm.min, nm.median, nm.mean, nm.max, nm_paths.len()
    );
    outln!("\nBytecode paths/instruction distribution:");
    outln!("{}", ascii_histogram(&bc_paths, 8, 40));
    outln!("Native-method paths/instruction distribution:");
    outln!("{}", ascii_histogram(&nm_paths, 8, 40));
}
