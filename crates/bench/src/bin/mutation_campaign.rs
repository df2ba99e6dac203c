//! The mutation foundry: measures the harness's own bug-finding power.
//!
//! Classic differential-testing evaluations report the defects a
//! harness found; they rarely report the defects it *would miss*.
//! This driver turns the fault-injection catalog of `igjit-mutate`
//! into exactly that measurement: it runs the full differential sweep
//! once per mutant — a deliberately planted JIT bug in the bytecode
//! compiler, the register allocator, the calling convention, a
//! back-end or the code cache — and records whether the sweep's output
//! deviates from a disarmed baseline (the mutant is **killed**) or not
//! (it **survives**). The kill rate is the mutation score; the
//! survivor list is the harness's blind-spot inventory.
//!
//! Exploration is interpreter-side work and unaffected by JIT faults,
//! so one shared exploration cache is carried across every mutant run
//! ([`Campaign::with_exploration_cache`]); only compile/simulate/
//! compare re-run per mutant. The compiled-code cache is rebuilt per
//! mutant because compiled artifacts do depend on the armed fault.
//!
//! Usage:
//!   mutation_campaign [--mutants id,name,…] [--out FILE] [--expectations]
//!
//! With no `--mutants`, the whole catalog runs. Each invocation
//! writes (overwrites) one JSON record to `--out` (default
//! `mutation.metrics.json` in the working directory) and prints a
//! human-readable score report.
//! `--expectations` additionally prints a `ci/mutation_expectations.json`
//! style document for the selected mutants on stdout.
//!
//! The fault-injection flag is process-global, so mutants run one
//! after another; each mutant's sweep runs on `IGJIT_THREADS` worker
//! threads.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use igjit::mutate::{self, MutationOp};
use igjit::{report, Campaign, CampaignConfig, CampaignReport, FaultInjector, MutantId};
use igjit_bench::{env_knobs, outln, paper_config};

/// Everything the sweep concluded about one mutant.
struct MutantVerdict {
    op: &'static MutationOp,
    killed: bool,
    /// Wall-clock of this mutant's sweep.
    elapsed: Duration,
    /// Sequential-equivalent time until the first divergent
    /// instruction (sum of per-instruction elapsed up to and including
    /// it), when killed.
    ttfd: Option<Duration>,
    /// Row/instruction label of the first divergence, when killed.
    first_divergence: Option<String>,
    /// Table 3 categories present in the mutant run but not the
    /// baseline (defects the fault *added*).
    new_categories: Vec<String>,
    /// Categories present in the baseline but gone under the mutant
    /// (real defects the fault *masked* — also a kill signal).
    masked_categories: Vec<String>,
}

impl MutantVerdict {
    /// Whether reality matched the catalog's expectation: designed
    /// survivors (`expected_category == "none"`) should survive,
    /// everything else should be killed.
    fn as_expected(&self) -> bool {
        (self.op.expected_category == "none") != self.killed
    }
}

/// One instruction's comparable output, flattened to a string: any
/// deviation from the baseline signature means the mutant was
/// observed. Covers row identity, path/curation counts, test errors,
/// and the per-path verdicts (exit, difference flag, causes, ISA).
fn signatures(report: &CampaignReport) -> Vec<(String, String)> {
    report
        .outcomes
        .iter()
        .zip(&report.timings)
        .map(|(o, t)| {
            let mut sig = format!(
                "paths={} curated={} werr={} opanic={}",
                o.paths_found, o.curated, o.witness_errors, o.oracle_panics
            );
            for v in &o.verdicts {
                sig.push_str(&format!(
                    " [{} diff={} causes={:?} isa={:?} probe={}]",
                    v.interp_exit,
                    v.verdict.is_difference(),
                    v.all_causes,
                    v.isa,
                    v.found_by_probe,
                ));
            }
            (format!("{}/{}", report.row.label, t.label), sig)
        })
        .collect()
}

/// Distinct defect causes across a whole sweep, as
/// `(category, instruction-family, compiler)` keys. Comparing at full
/// cause granularity (not just category names) lets a kill be
/// attributed to its Table 3 family even when the baseline already
/// contains other defects of the same family.
fn cause_keys(reports: &[CampaignReport]) -> BTreeSet<(String, String, String)> {
    reports
        .iter()
        .flat_map(|r| r.causes())
        .map(|c| {
            (
                c.category.name().to_string(),
                c.instruction.into_owned(),
                c.compiler.into_owned(),
            )
        })
        .collect()
}

/// The distinct category names of the keys in `a` missing from `b`.
fn categories_of_difference(
    a: &BTreeSet<(String, String, String)>,
    b: &BTreeSet<(String, String, String)>,
) -> Vec<String> {
    let mut cats: Vec<String> = a.difference(b).map(|k| k.0.clone()).collect();
    cats.sort();
    cats.dedup();
    cats
}

fn run_sweep(config: &CampaignConfig, cache: &Campaign) -> Vec<CampaignReport> {
    Campaign::with_exploration_cache(config.clone(), cache.exploration_cache_arc()).run_all()
}

fn compare(
    op: &'static MutationOp,
    baseline: &[Vec<(String, String)>],
    base_causes: &BTreeSet<(String, String, String)>,
    mutant: &[CampaignReport],
    elapsed: Duration,
) -> MutantVerdict {
    let mut killed = false;
    let mut ttfd = Duration::ZERO;
    let mut first_divergence = None;
    'rows: for (base_row, mut_report) in baseline.iter().zip(mutant) {
        let mut_row = signatures(mut_report);
        for (i, ((label, base_sig), (_, mut_sig))) in
            base_row.iter().zip(&mut_row).enumerate()
        {
            ttfd += mut_report.timings[i].elapsed;
            if base_sig != mut_sig {
                killed = true;
                first_divergence = Some(label.clone());
                break 'rows;
            }
        }
    }
    let mut_causes = cause_keys(mutant);
    let new_categories = categories_of_difference(&mut_causes, base_causes);
    let masked_categories = categories_of_difference(base_causes, &mut_causes);
    MutantVerdict {
        op,
        killed,
        elapsed,
        ttfd: killed.then_some(ttfd),
        first_divergence,
        new_categories,
        masked_categories,
    }
}

fn json_str_list(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("{s:?}")).collect();
    format!("[{}]", quoted.join(","))
}

fn write_record(
    path: &str,
    verdicts: &[MutantVerdict],
    baseline: &[igjit::CampaignReport],
    wall: Duration,
) {
    let killed = verdicts.iter().filter(|v| v.killed).count();
    let score = killed as f64 / verdicts.len().max(1) as f64;
    let survivors: Vec<String> = verdicts
        .iter()
        .filter(|v| !v.killed)
        .map(|v| v.op.name.to_string())
        .collect();
    let mutants: Vec<String> = verdicts
        .iter()
        .map(|v| {
            format!(
                concat!(
                    "{{\"id\":{},\"name\":\"{}\",\"layer\":\"{}\",\"killed\":{},",
                    "\"expected_category\":\"{}\",\"as_expected\":{},",
                    "\"ttfd_ms\":{},\"first_divergence\":{},",
                    "\"new_categories\":{},\"masked_categories\":{},\"elapsed_ms\":{:.3}}}"
                ),
                v.op.id.0,
                v.op.name,
                v.op.layer.name(),
                v.killed,
                v.op.expected_category,
                v.as_expected(),
                v.ttfd.map(|d| format!("{:.3}", d.as_secs_f64() * 1000.0))
                    .unwrap_or_else(|| "null".into()),
                v.first_divergence
                    .as_ref()
                    .map(|l| format!("{l:?}"))
                    .unwrap_or_else(|| "null".into()),
                json_str_list(&v.new_categories),
                json_str_list(&v.masked_categories),
                v.elapsed.as_secs_f64() * 1000.0,
            )
        })
        .collect();
    let record = format!(
        concat!(
            "{{\"mutants_run\":{},\"killed\":{},",
            "\"mutation_score\":{:.4},\"survivors\":{},\"wall_clock_ms\":{:.3},",
            "\"baseline\":{},\"mutants\":[{}]}}\n"
        ),
        verdicts.len(),
        killed,
        score,
        json_str_list(&survivors),
        wall.as_secs_f64() * 1000.0,
        report::table2_json(&report::table2_total(baseline)),
        mutants.join(","),
    );
    match std::fs::write(path, record) {
        Ok(()) => eprintln!("mutation record: {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn print_report(verdicts: &[MutantVerdict], wall: Duration) {
    outln!("Mutation foundry: fault-injection sweep over the differential harness\n");
    outln!(
        "{:<5} {:<30} {:<19} {:<9} {:>9}  attribution",
        "id", "mutant", "layer", "verdict", "ttfd"
    );
    for v in verdicts {
        let verdict = if v.killed { "KILLED" } else { "survived" };
        let ttfd = v
            .ttfd
            .map(|d| format!("{:.1}ms", d.as_secs_f64() * 1000.0))
            .unwrap_or_else(|| "-".into());
        let attribution = if !v.new_categories.is_empty() {
            v.new_categories.join(", ")
        } else if v.killed && !v.masked_categories.is_empty() {
            format!("masks: {}", v.masked_categories.join(", "))
        } else if v.killed {
            "row-signature drift".into()
        } else if v.op.expected_category == "none" {
            "(designed survivor)".into()
        } else {
            "BLIND SPOT".into()
        };
        outln!(
            "{:<5} {:<30} {:<19} {:<9} {:>9}  {}",
            v.op.id.0,
            v.op.name,
            v.op.layer.name(),
            verdict,
            ttfd,
            attribution
        );
    }
    let killed = verdicts.iter().filter(|v| v.killed).count();
    let designed = verdicts
        .iter()
        .filter(|v| v.op.expected_category == "none")
        .count();
    let unexpected: Vec<&MutantVerdict> =
        verdicts.iter().filter(|v| !v.as_expected()).collect();
    outln!(
        "\nmutation score: {}/{} killed ({:.1}%); {} designed survivor(s); wall clock {:.2}s",
        killed,
        verdicts.len(),
        100.0 * killed as f64 / verdicts.len().max(1) as f64,
        designed,
        wall.as_secs_f64(),
    );
    let survivors: Vec<&MutantVerdict> = verdicts.iter().filter(|v| !v.killed).collect();
    if survivors.is_empty() {
        outln!("no survivors.");
    } else {
        outln!("survivors ({}):", survivors.len());
        for v in &survivors {
            outln!(
                "  {} {} [{}] — expected {}",
                v.op.id.0,
                v.op.name,
                v.op.layer.name(),
                if v.op.expected_category == "none" { "(survives by design)" } else { "KILLED" }
            );
        }
    }
    if !unexpected.is_empty() {
        outln!("\n{} mutant(s) deviated from the catalog's expectation:", unexpected.len());
        for v in &unexpected {
            outln!(
                "  {} {} — expected {}, got {}",
                v.op.id.0,
                v.op.name,
                if v.op.expected_category == "none" { "survival" } else { "a kill" },
                if v.killed { "a kill" } else { "survival" }
            );
        }
    }
}

fn print_expectations(verdicts: &[MutantVerdict]) {
    let entries: Vec<String> = verdicts
        .iter()
        .map(|v| {
            format!(
                "    {{\"id\": {}, \"name\": \"{}\", \"killed\": {}}}",
                v.op.id.0, v.op.name, v.killed
            )
        })
        .collect();
    outln!("{{\n  \"mutants\": [\n{}\n  ]\n}}", entries.join(",\n"));
}

struct Args {
    mutants: Option<Vec<MutantId>>,
    out: String,
    expectations: bool,
}

fn parse_args() -> Args {
    let mut mutants = None;
    let mut out = "mutation.metrics.json".to_string();
    let mut expectations = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--mutants" => {
                let list = args.next().unwrap_or_else(|| {
                    eprintln!("error: --mutants needs a comma-separated list");
                    std::process::exit(2);
                });
                let ids: Vec<MutantId> = list
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|spec| {
                        mutate::parse(spec.trim()).unwrap_or_else(|e| {
                            eprintln!("error: --mutants: {e}");
                            std::process::exit(2);
                        })
                    })
                    .collect();
                mutants = Some(ids);
            }
            "--out" => {
                out = args.next().unwrap_or_else(|| {
                    eprintln!("error: --out needs a path");
                    std::process::exit(2);
                });
            }
            "--expectations" => expectations = true,
            other => {
                eprintln!(
                    "error: unknown argument {other:?} \
                     (usage: mutation_campaign [--mutants id,name,…] \
                     [--out FILE] [--expectations])"
                );
                std::process::exit(2);
            }
        }
    }
    Args { mutants, out, expectations }
}

fn main() {
    let args = parse_args();
    // The mutation sweep arms a different mutant per campaign; corpus
    // persistence is deliberately not plumbed here (each mutant would
    // need its own file, and the kill verdicts must never replay from
    // a stale arming state).
    let config = CampaignConfig { corpus: None, ..paper_config() };
    if env_knobs().mutant.is_some() {
        eprintln!(
            "error: IGJIT_MUTANT must not be set for mutation_campaign — \
             this driver arms and disarms mutants itself (use --mutants to select)"
        );
        std::process::exit(2);
    }
    let ops: Vec<&'static MutationOp> = match &args.mutants {
        Some(ids) => ids
            .iter()
            .map(|&id| mutate::find(id).expect("parse validated the id"))
            .collect(),
        None => mutate::CATALOG.iter().collect(),
    };

    let wall0 = Instant::now();
    eprintln!(
        "baseline sweep (fault injection pinned off, {} thread(s))…",
        config.threads
    );
    let baseline_campaign = Campaign::new(config.clone());
    let baseline = {
        let _off = FaultInjector::pinned_off();
        baseline_campaign.run_all()
    };
    let base_sigs: Vec<Vec<(String, String)>> = baseline.iter().map(signatures).collect();
    let base_causes = cause_keys(&baseline);
    eprintln!(
        "baseline: {} instructions swept, {} distinct defect cause(s), {:.2}s",
        baseline.iter().map(|r| r.outcomes.len()).sum::<usize>(),
        base_causes.len(),
        wall0.elapsed().as_secs_f64(),
    );

    let mut verdicts = Vec::with_capacity(ops.len());
    for op in ops {
        let t0 = Instant::now();
        let reports = {
            let _armed = FaultInjector::arm(op.id).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(2);
            });
            run_sweep(&config, &baseline_campaign)
        };
        let v = compare(op, &base_sigs, &base_causes, &reports, t0.elapsed());
        eprintln!(
            "  {:>3} {:<30} {:<9} {:.2}s{}",
            op.id.0,
            op.name,
            if v.killed { "KILLED" } else { "survived" },
            v.elapsed.as_secs_f64(),
            v.first_divergence
                .as_ref()
                .map(|l| format!("  first at {l}"))
                .unwrap_or_default(),
        );
        verdicts.push(v);
    }
    let wall = wall0.elapsed();

    outln!();
    print_report(&verdicts, wall);
    write_record(&args.out, &verdicts, &baseline, wall);
    if args.expectations {
        print_expectations(&verdicts);
    }
    // The record carries the disarmed baseline's Table 2 totals, so
    // the CI smoke script can catch a planted-defect regression (the
    // harness losing real defects while every mutant is disarmed)
    // alongside kill/survive deviations. This driver's exit status
    // reflects only argument and environment validity.
}
