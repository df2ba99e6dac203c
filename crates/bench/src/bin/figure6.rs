//! Regenerates Figure 6: concolic-exploration time per kind of
//! instruction (log ms), plus the §5.4 aggregate totals.
//!
//! Exploration is deliberately *uncached* here — the figure measures
//! exploration cost itself. Renders a live progress line on stderr and
//! writes `figure6.metrics.json` (per-group explore wall-clock) next
//! to the report.

use std::time::{Duration, Instant};

use igjit::report::{ascii_histogram, stats};
use igjit::{instruction_catalog, native_catalog, Explorer, InstrUnderTest, Metrics, StageTimes};
use igjit_bench::{outln, progress_line};

fn main() {
    let _mutant = igjit_bench::arm_mutant_from_env();
    let explorer = Explorer::new();
    let mut bc_ms = Vec::new();
    let mut nm_ms = Vec::new();

    eprintln!("timing concolic exploration of all bytecode instructions…");
    let bytecodes = instruction_catalog();
    let total = bytecodes.len();
    for (i, spec) in bytecodes.into_iter().enumerate() {
        let t0 = Instant::now();
        let _ = explorer.explore(InstrUnderTest::Bytecode(spec.instruction));
        bc_ms.push(t0.elapsed().as_secs_f64() * 1000.0);
        progress_line("explore bytecodes", i + 1, total, &format!("{:?}", spec.instruction));
    }
    eprintln!("timing concolic exploration of all native methods…");
    let natives = native_catalog();
    let total = natives.len();
    for (i, spec) in natives.iter().enumerate() {
        let t0 = Instant::now();
        let _ = explorer.explore(InstrUnderTest::Native(spec.id));
        nm_ms.push(t0.elapsed().as_secs_f64() * 1000.0);
        progress_line("explore natives", i + 1, total, &spec.name);
    }

    outln!("\nFigure 6: concolic execution time per kind of instruction\n");
    for (label, data) in [("Bytecode", &bc_ms), ("Native Method", &nm_ms)] {
        let s = stats(data.iter().copied()).unwrap();
        outln!(
            "{label:<14} min {:>8.2}ms  median {:>8.2}ms  mean {:>8.2}ms  max {:>8.2}ms  total {:>9.2}s",
            s.min,
            s.median,
            s.mean,
            s.max,
            s.total / 1000.0
        );
    }
    outln!("\nBytecode exploration time distribution (ms):");
    outln!("{}", ascii_histogram(&bc_ms, 8, 40));
    outln!("Native-method exploration time distribution (ms):");
    outln!("{}", ascii_histogram(&nm_ms, 8, 40));

    // One Metrics object per group: exploration is the only stage a
    // pure-exploration run exercises.
    let group_metrics = |ms: &[f64]| Metrics {
        threads: 1,
        instructions: ms.len(),
        stages: StageTimes {
            explore: Duration::from_secs_f64(ms.iter().sum::<f64>() / 1000.0),
            ..StageTimes::default()
        },
        wall_clock: Duration::from_secs_f64(ms.iter().sum::<f64>() / 1000.0),
        ..Metrics::default()
    };
    let json = format!(
        "{{\n  \"bytecodes\":{},\n  \"natives\":{}\n}}\n",
        group_metrics(&bc_ms).to_json(),
        group_metrics(&nm_ms).to_json(),
    );
    match std::fs::write("figure6.metrics.json", json) {
        Ok(()) => eprintln!("metrics: figure6.metrics.json"),
        Err(e) => eprintln!("could not write figure6.metrics.json: {e}"),
    }
}
