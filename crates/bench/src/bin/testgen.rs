//! Regenerates the paper's headline artefact: "our approach generated
//! in less than 10 minutes more than 4.5K tests". Generates the full
//! battery of persistent differential unit tests and replays it.

use std::time::Instant;

use igjit::{GeneratedSuite, Isa};
use igjit_bench::outln;

fn main() {
    let _mutant = igjit_bench::arm_mutant_from_env();
    let t0 = Instant::now();
    eprintln!("generating the full test battery (112 natives + 148 bytecodes × 3 tiers, 2 ISAs)…");
    let suite = GeneratedSuite::generate_full(&[Isa::X86ish, Isa::Arm32ish]);
    let gen_time = t0.elapsed();
    outln!(
        "generated {} tests in {:.1}s (paper: >4.5K tests in <10 min)",
        suite.len(),
        gen_time.as_secs_f64()
    );

    let t1 = Instant::now();
    let report = suite.run();
    outln!(
        "replayed in {:.1}s: {} passed, {} failed (= found defects), {} skipped (expected failures)",
        t1.elapsed().as_secs_f64(),
        report.passed,
        report.failed,
        report.skipped
    );
    outln!("\nmanifest excerpt:");
    for line in suite.manifest().lines().take(12) {
        outln!("  {line}");
    }
    outln!("  …");
}
