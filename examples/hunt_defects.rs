//! Defect hunt: run the full native-method campaign (the biggest row
//! of Table 2) and print every defect cause it uncovers, organized by
//! the six Table 3 families.
//!
//! ```sh
//! cargo run --release --example hunt_defects
//! ```

use std::collections::BTreeMap;

use igjit::{Campaign, CampaignConfig, DefectCategory, Isa, Verdict};

fn main() {
    let campaign = Campaign::new(CampaignConfig {
        isas: vec![Isa::X86ish, Isa::Arm32ish],
        probes: true,
        threads: 4,
        heap_snapshot: true,
        predecode: true,
        ..CampaignConfig::default()
    });

    eprintln!("differentially testing all 112 native methods on 2 ISAs…");
    let report = campaign.run_native_methods();

    println!(
        "\n{} instructions, {} interpreter paths, {} curated, {} differing ({:.2}%)\n",
        report.row.tested_instructions,
        report.row.interpreter_paths,
        report.row.curated_paths,
        report.row.differences,
        report.row.difference_percent()
    );

    // Group causes by family.
    let mut by_family: BTreeMap<DefectCategory, Vec<String>> = BTreeMap::new();
    for cause in report.causes() {
        by_family.entry(cause.category).or_default().push(cause.instruction.into_owned());
    }
    for (family, mut members) in by_family {
        members.sort();
        members.dedup();
        println!("{} ({} causes):", family.name(), members.len());
        for m in members {
            println!("    {m}");
        }
        println!();
    }

    // Show a couple of concrete failing scenarios.
    println!("sample failing scenarios:");
    let mut shown = 0;
    for outcome in &report.outcomes {
        for v in &outcome.verdicts {
            if let Verdict::Difference(d) = &v.verdict {
                println!(
                    "  {:?} [{} path]: {}",
                    outcome.instruction, v.interp_exit, d.detail
                );
                shown += 1;
                break;
            }
        }
        if shown >= 8 {
            break;
        }
    }
}
