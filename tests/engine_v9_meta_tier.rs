//! Engine v9 invariant: the five-row table, meta-compiled tier
//! included, does not depend on the worker count. The golden test
//! compares 1 against 2 workers on the paper configuration; this one
//! compares 1 against 4 on a single ISA without probes.

use igjit::{Campaign, CampaignConfig, CampaignReport, FaultInjector, Isa};

fn assert_row_identical(a: &CampaignReport, b: &CampaignReport) {
    assert_eq!(a.row, b.row);
    assert_eq!(a.causes(), b.causes());
    assert_eq!(a.causes_by_category(), b.causes_by_category());
    assert_eq!(a.outcomes.len(), b.outcomes.len());
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(x.causes(), y.causes());
        assert_eq!(x.paths_found, y.paths_found);
        assert_eq!(x.curated, y.curated);
        assert_eq!(x.witness_errors, y.witness_errors);
        assert_eq!(x.oracle_panics, y.oracle_panics);
        assert_eq!(x.verdicts.len(), y.verdicts.len());
        for (va, vb) in x.verdicts.iter().zip(&y.verdicts) {
            assert_eq!(va.interp_exit, vb.interp_exit);
            assert_eq!(va.verdict.is_difference(), vb.verdict.is_difference());
            assert_eq!(va.cause, vb.cause);
            assert_eq!(va.found_by_probe, vb.found_by_probe);
            assert_eq!(va.isa, vb.isa);
        }
    }
}

fn config(threads: usize) -> CampaignConfig {
    CampaignConfig { isas: vec![Isa::X86ish], probes: false, threads, ..CampaignConfig::default() }
}

#[test]
fn meta_tier_table_is_identical_at_any_thread_count() {
    let _off = FaultInjector::pinned_off();
    let seq = Campaign::new(config(1)).run_all();
    let par = Campaign::new(config(4)).run_all();
    assert_eq!(seq.len(), 5, "the table always carries the meta-compiled row");
    assert_eq!(seq.len(), par.len());
    for (a, b) in seq.iter().zip(&par) {
        assert_row_identical(a, b);
    }
    assert_eq!(seq[4].row.label, "Meta-Compiled (tier 5)");
}
