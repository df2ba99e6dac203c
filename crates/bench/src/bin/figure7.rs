//! Regenerates Figure 7: test execution time per compiler (log ms) —
//! the differential-run cost once the exploration results are cached.
//!
//! Engine v2 makes the caption literal: the campaign's shared
//! exploration cache means the native row and the first bytecode tier
//! pay for exploration, and the remaining tiers measure pure
//! differential-run cost. Renders a live progress line on stderr and
//! writes `figure7.metrics.json` next to the report.

use igjit::aggregate_metrics;
use igjit::report::{ascii_histogram, stats};
use igjit::CompilerKind;
use igjit_bench::{paper_campaign, print_metrics_summary, with_live_progress, write_metrics_json};

fn main() {
    let _mutant = igjit_bench::arm_mutant_from_env();
    let campaign = with_live_progress(paper_campaign());
    eprintln!(
        "running the four campaigns with a shared exploration cache ({} thread(s))…",
        campaign.config().threads
    );
    let reports = campaign.run_all();

    let label_of = |i: usize| -> &'static str {
        match i {
            0 => "Native Method",
            1 => CompilerKind::SimpleStackBased.name(),
            2 => CompilerKind::StackToRegister.name(),
            _ => CompilerKind::RegisterAllocating.name(),
        }
    };
    let series: Vec<(&str, Vec<f64>)> = reports
        .iter()
        .enumerate()
        .map(|(i, r)| {
            (
                label_of(i),
                r.timings.iter().map(|t| t.elapsed.as_secs_f64() * 1000.0).collect(),
            )
        })
        .collect();

    println!("\nFigure 7: test execution time per compiler\n");
    for (label, data) in &series {
        let s = stats(data.iter().copied()).unwrap();
        println!(
            "{label:<28} min {:>8.2}ms  median {:>8.2}ms  mean {:>8.2}ms  max {:>8.2}ms  total {:>8.2}s",
            s.min,
            s.median,
            s.mean,
            s.max,
            s.total / 1000.0
        );
    }
    for (label, data) in &series {
        println!("\n{label} time distribution (ms):");
        println!("{}", ascii_histogram(data, 8, 40));
    }
    print_metrics_summary(&aggregate_metrics(&reports));
    write_metrics_json("figure7.metrics.json", &reports, None);
}
