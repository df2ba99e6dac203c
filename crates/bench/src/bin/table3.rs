//! Regenerates Table 3 of the paper: the summary of found defects,
//! de-duplicated into distinct causes per defect family.

use igjit::report;
use igjit_bench::{outln, paper_campaign};

fn main() {
    let _mutant = igjit_bench::arm_mutant_from_env();
    let campaign = paper_campaign();
    eprintln!("running the full campaign to collect defect causes…");
    let reports = campaign.run_all();
    outln!("\nTable 3: summary of found defects\n");
    outln!("{}", report::table3(&reports));
    // The paper's "10 optimisation differences" count the gaps of the
    // production register tiers; list ours per tier for comparison.
    for r in &reports {
        let opt = r
            .causes()
            .iter()
            .filter(|c| c.category == igjit::DefectCategory::OptimisationDifference)
            .count();
        if opt > 0 {
            outln!("optimisation-difference causes on {:<36} {}", r.row.label, opt);
        }
    }
    outln!();
    // Per-cause detail for the curious.
    let mut causes: Vec<_> = reports.iter().flat_map(|r| r.causes()).collect();
    causes.sort();
    causes.dedup();
    outln!("distinct causes ({}):", causes.len());
    for c in causes {
        let tier = if c.compiler.is_empty() { "native" } else { &c.compiler };
        outln!("  [{:<30}] {:<28} ({tier})", c.category.name(), c.instruction);
    }
}
