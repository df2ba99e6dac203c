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
//!   mutation_campaign [--mutants id,name,…] [--jobs N] [--out FILE]
//!                     [--expectations]
//!
//! With no `--mutants`, the whole catalog runs. Each invocation
//! appends one JSON Lines record to `--out` (default
//! `BENCH_mutation.json`) and prints a human-readable score report.
//! `--expectations` additionally prints a `ci/mutation_expectations.json`
//! style document for the selected mutants on stdout.
//!
//! `--jobs N` shards the per-mutant sweeps across up to `N` concurrent
//! worker subprocesses. The fault-injection flag is process-global
//! state, so in-process parallelism across *mutants* is impossible —
//! but separate processes each arm their own mutant. Workers are this
//! same binary re-executed in a hidden mode (`--worker-verdict`) with
//! the mutant passed through the `IGJIT_MUTANT` environment knob; each
//! worker compares its sweep against the parent's baseline signatures
//! (shipped via a temp file) and reports one verdict line on stdout.
//! The parent merges verdicts back **in catalog order**, so the
//! appended JSONL record and the printed report are byte-identical to
//! a sequential run (modulo wall-clock fields) at any job count.

use std::collections::BTreeSet;
use std::io::Write;
use std::time::{Duration, Instant};

use igjit::mutate::{self, MutationOp};
use igjit::{Campaign, CampaignConfig, CampaignReport, FaultInjector, Isa, MutantId};
use igjit_bench::env_knobs;

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

// ---------------------------------------------------------------------
// --jobs worker protocol
//
// Baseline file, one record per line (none of the fields can contain a
// tab or newline — labels are `row/instruction` names and signatures
// are single-line formats):
//   SIG   <row-index> <label> <signature>
//   CAUSE <category> <instruction> <compiler>
// Worker stdout, exactly one line:
//   VERDICT <id> <killed 0|1> <ttfd-ns or ""> <first-divergence or "">
//           <new-categories, \x1f-joined> <masked-categories> <elapsed-ns>
// ---------------------------------------------------------------------

/// Writes the disarmed baseline (row signatures + cause keys) for
/// workers to compare against.
fn write_baseline_file(
    path: &std::path::Path,
    base_sigs: &[Vec<(String, String)>],
    base_causes: &BTreeSet<(String, String, String)>,
) -> std::io::Result<()> {
    let mut buf = String::new();
    for (row, sigs) in base_sigs.iter().enumerate() {
        for (label, sig) in sigs {
            buf.push_str(&format!("SIG\t{row}\t{label}\t{sig}\n"));
        }
    }
    for (cat, instr, comp) in base_causes {
        buf.push_str(&format!("CAUSE\t{cat}\t{instr}\t{comp}\n"));
    }
    std::fs::write(path, buf)
}

/// Parses the baseline file back into the shapes `compare` wants.
#[allow(clippy::type_complexity)]
fn read_baseline_file(
    path: &str,
) -> Result<(Vec<Vec<(String, String)>>, BTreeSet<(String, String, String)>), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read baseline file {path}: {e}"))?;
    let mut sigs: Vec<Vec<(String, String)>> = Vec::new();
    let mut causes = BTreeSet::new();
    for line in text.lines() {
        let mut parts = line.splitn(4, '\t');
        match parts.next() {
            Some("SIG") => {
                let row: usize = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| format!("malformed SIG line: {line:?}"))?;
                let label = parts.next().ok_or_else(|| format!("malformed SIG line: {line:?}"))?;
                let sig = parts.next().ok_or_else(|| format!("malformed SIG line: {line:?}"))?;
                if sigs.len() <= row {
                    sigs.resize_with(row + 1, Vec::new);
                }
                sigs[row].push((label.to_string(), sig.to_string()));
            }
            Some("CAUSE") => {
                let cat = parts.next().ok_or_else(|| format!("malformed CAUSE line: {line:?}"))?;
                let instr =
                    parts.next().ok_or_else(|| format!("malformed CAUSE line: {line:?}"))?;
                let comp =
                    parts.next().ok_or_else(|| format!("malformed CAUSE line: {line:?}"))?;
                causes.insert((cat.to_string(), instr.to_string(), comp.to_string()));
            }
            _ => return Err(format!("unrecognized baseline line: {line:?}")),
        }
    }
    Ok((sigs, causes))
}

/// Flattens a verdict to the worker's one-line wire format.
fn verdict_line(v: &MutantVerdict) -> String {
    format!(
        "VERDICT\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
        v.op.id.0,
        u8::from(v.killed),
        v.ttfd.map(|d| d.as_nanos().to_string()).unwrap_or_default(),
        v.first_divergence.clone().unwrap_or_default(),
        v.new_categories.join("\u{1f}"),
        v.masked_categories.join("\u{1f}"),
        v.elapsed.as_nanos(),
    )
}

/// Parses a worker's VERDICT line; `op` must be the mutant the worker
/// was assigned (the id on the line is cross-checked).
fn parse_verdict_line(line: &str, op: &'static MutationOp) -> Result<MutantVerdict, String> {
    let fields: Vec<&str> = line.split('\t').collect();
    if fields.len() != 8 || fields[0] != "VERDICT" {
        return Err(format!("malformed worker verdict: {line:?}"));
    }
    if fields[1] != op.id.0.to_string() {
        return Err(format!("worker answered for mutant {} (expected {})", fields[1], op.id.0));
    }
    let killed = fields[2] == "1";
    let nanos = |s: &str| -> Result<Duration, String> {
        s.parse::<u64>()
            .map(Duration::from_nanos)
            .map_err(|e| format!("malformed worker verdict {line:?}: {e}"))
    };
    let split_list = |s: &str| -> Vec<String> {
        if s.is_empty() { Vec::new() } else { s.split('\u{1f}').map(str::to_string).collect() }
    };
    Ok(MutantVerdict {
        op,
        killed,
        elapsed: nanos(fields[7])?,
        ttfd: if fields[3].is_empty() { None } else { Some(nanos(fields[3])?) },
        first_divergence: (!fields[4].is_empty()).then(|| fields[4].to_string()),
        new_categories: split_list(fields[5]),
        masked_categories: split_list(fields[6]),
    })
}

/// Hidden worker mode: sweep one mutant (named by `IGJIT_MUTANT`),
/// compare against the baseline file, print one VERDICT line.
fn run_worker(baseline_path: &str, config: &CampaignConfig) -> Result<(), String> {
    let op = env_knobs()
        .mutant
        .and_then(mutate::find)
        .ok_or("worker mode needs IGJIT_MUTANT set to a catalog mutant")?;
    let (base_sigs, base_causes) = read_baseline_file(baseline_path)?;
    let t0 = Instant::now();
    let reports = {
        let _armed = FaultInjector::arm(op.id)?;
        Campaign::new(config.clone()).run_all()
    };
    let v = compare(op, &base_sigs, &base_causes, &reports, t0.elapsed());
    println!("{}", verdict_line(&v));
    Ok(())
}

/// Shards the selected mutants across up to `jobs` concurrent worker
/// subprocesses and merges their verdicts back in catalog order.
fn run_sharded(
    ops: &[&'static MutationOp],
    jobs: usize,
    base_sigs: &[Vec<(String, String)>],
    base_causes: &BTreeSet<(String, String, String)>,
) -> Result<Vec<MutantVerdict>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let base_path = std::env::temp_dir()
        .join(format!("igjit_mutation_baseline_{}.tsv", std::process::id()));
    write_baseline_file(&base_path, base_sigs, base_causes)
        .map_err(|e| format!("cannot write {}: {e}", base_path.display()))?;
    let mut verdicts = Vec::with_capacity(ops.len());
    let result = (|| {
        // Chunked scheduling: per-mutant sweeps cost within ~2× of each
        // other, so waiting out each wave loses little and keeps the
        // collection order (hence the merged record) deterministic.
        for wave in ops.chunks(jobs.max(1)) {
            let children: Vec<(&'static MutationOp, std::process::Child)> = wave
                .iter()
                .map(|op| {
                    let child = std::process::Command::new(&exe)
                        .arg("--worker-verdict")
                        .arg(&base_path)
                        .env("IGJIT_MUTANT", op.id.0.to_string())
                        .stdout(std::process::Stdio::piped())
                        .stderr(std::process::Stdio::piped())
                        .spawn()
                        .map_err(|e| format!("cannot spawn worker: {e}"))?;
                    Ok((*op, child))
                })
                .collect::<Result<_, String>>()?;
            for (op, child) in children {
                let out = child
                    .wait_with_output()
                    .map_err(|e| format!("worker for mutant {}: {e}", op.id.0))?;
                if !out.status.success() {
                    return Err(format!(
                        "worker for mutant {} failed ({}):\n{}",
                        op.id.0,
                        out.status,
                        String::from_utf8_lossy(&out.stderr),
                    ));
                }
                let stdout = String::from_utf8_lossy(&out.stdout);
                let line = stdout
                    .lines()
                    .find(|l| l.starts_with("VERDICT\t"))
                    .ok_or_else(|| format!("worker for mutant {} sent no verdict", op.id.0))?;
                let v = parse_verdict_line(line, op)?;
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
        }
        Ok(verdicts)
    })();
    let _ = std::fs::remove_file(&base_path);
    result
}

fn json_str_list(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("{s:?}")).collect();
    format!("[{}]", quoted.join(","))
}

fn append_record(
    path: &str,
    verdicts: &[MutantVerdict],
    baseline: &[igjit::CampaignReport],
    wall: Duration,
) {
    let mut base_row = igjit::CampaignRow::default();
    for r in baseline {
        base_row.tested_instructions += r.row.tested_instructions;
        base_row.interpreter_paths += r.row.interpreter_paths;
        base_row.curated_paths += r.row.curated_paths;
        base_row.differences += r.row.differences;
    }
    let killed = verdicts.iter().filter(|v| v.killed).count();
    let score = killed as f64 / verdicts.len().max(1) as f64;
    let survivors: Vec<String> = verdicts
        .iter()
        .filter(|v| !v.killed)
        .map(|v| v.op.name.to_string())
        .collect();
    let epoch = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
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
            "{{\"epoch_s\":{},\"mutants_run\":{},\"killed\":{},",
            "\"mutation_score\":{:.4},\"survivors\":{},\"wall_clock_ms\":{:.3},",
            "\"baseline\":{{\"tested_instructions\":{},\"interpreter_paths\":{},",
            "\"curated_paths\":{},\"differences\":{}}},",
            "\"mutants\":[{}]}}\n"
        ),
        epoch,
        verdicts.len(),
        killed,
        score,
        json_str_list(&survivors),
        wall.as_secs_f64() * 1000.0,
        base_row.tested_instructions,
        base_row.interpreter_paths,
        base_row.curated_paths,
        base_row.differences,
        mutants.join(","),
    );
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(record.as_bytes()));
    match appended {
        Ok(()) => eprintln!("mutation record appended: {path}"),
        Err(e) => eprintln!("could not append {path}: {e}"),
    }
}

fn print_report(verdicts: &[MutantVerdict], wall: Duration) {
    println!("Mutation foundry: fault-injection sweep over the differential harness\n");
    println!(
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
        println!(
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
    println!(
        "\nmutation score: {}/{} killed ({:.1}%); {} designed survivor(s); wall clock {:.2}s",
        killed,
        verdicts.len(),
        100.0 * killed as f64 / verdicts.len().max(1) as f64,
        designed,
        wall.as_secs_f64(),
    );
    let survivors: Vec<&MutantVerdict> = verdicts.iter().filter(|v| !v.killed).collect();
    if survivors.is_empty() {
        println!("no survivors.");
    } else {
        println!("survivors ({}):", survivors.len());
        for v in &survivors {
            println!(
                "  {} {} [{}] — expected {}",
                v.op.id.0,
                v.op.name,
                v.op.layer.name(),
                if v.op.expected_category == "none" { "(survives by design)" } else { "KILLED" }
            );
        }
    }
    if !unexpected.is_empty() {
        println!("\n{} mutant(s) deviated from the catalog's expectation:", unexpected.len());
        for v in &unexpected {
            println!(
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
    println!("{{\n  \"mutants\": [\n{}\n  ]\n}}", entries.join(",\n"));
}

struct Args {
    mutants: Option<Vec<MutantId>>,
    out: String,
    expectations: bool,
    jobs: usize,
    /// Hidden worker mode: path to the parent's baseline file.
    worker_baseline: Option<String>,
}

fn parse_args() -> Args {
    let mut mutants = None;
    let mut out = "BENCH_mutation.json".to_string();
    let mut expectations = false;
    let mut jobs = 1usize;
    let mut worker_baseline = None;
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
            "--jobs" => {
                let n = args.next().unwrap_or_else(|| {
                    eprintln!("error: --jobs needs a worker count");
                    std::process::exit(2);
                });
                jobs = n.parse().unwrap_or_else(|_| {
                    eprintln!("error: --jobs: {n:?} is not a number");
                    std::process::exit(2);
                });
                if jobs == 0 {
                    eprintln!("error: --jobs needs at least 1 worker");
                    std::process::exit(2);
                }
            }
            "--worker-verdict" => {
                worker_baseline = Some(args.next().unwrap_or_else(|| {
                    eprintln!("error: --worker-verdict needs the baseline file path");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!(
                    "error: unknown argument {other:?} \
                     (usage: mutation_campaign [--mutants id,name,…] [--jobs N] \
                     [--out FILE] [--expectations])"
                );
                std::process::exit(2);
            }
        }
    }
    Args { mutants, out, expectations, jobs, worker_baseline }
}

fn main() {
    let args = parse_args();
    let knobs = env_knobs();
    let config = CampaignConfig {
        isas: vec![Isa::X86ish, Isa::Arm32ish],
        probes: true,
        threads: knobs.threads_or_default(),
        heap_snapshot: knobs.heap_snapshot_enabled(),
        predecode: knobs.predecode_enabled(),
        interp_predecode: knobs.interp_predecode_enabled(),
        hash_cons: knobs.hash_cons_enabled(),
        family_share: knobs.family_share_enabled(),
        negate_threads: knobs.negate_threads_or_default(),
        // The mutation sweep arms a different mutant per campaign;
        // corpus persistence is deliberately not plumbed here (each
        // mutant would need its own file, and the kill verdicts must
        // never replay from a stale arming state).
        corpus: None,
        meta_tier: knobs.tier5_enabled(),
        solver_trail: knobs.solver_trail_enabled(),
    };
    if let Some(baseline_path) = &args.worker_baseline {
        if let Err(e) = run_worker(baseline_path, &config) {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
        return;
    }
    if knobs.mutant.is_some() {
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

    let verdicts = if args.jobs > 1 {
        eprintln!("sharding {} mutant sweep(s) across {} worker(s)…", ops.len(), args.jobs);
        run_sharded(&ops, args.jobs, &base_sigs, &base_causes).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1);
        })
    } else {
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
        verdicts
    };
    let wall = wall0.elapsed();

    println!();
    print_report(&verdicts, wall);
    append_record(&args.out, &verdicts, &baseline, wall);
    if args.expectations {
        print_expectations(&verdicts);
    }
    // The record carries the disarmed baseline's Table 2 totals, so
    // the CI smoke script can catch a planted-defect regression (the
    // harness losing real defects while every mutant is disarmed)
    // alongside kill/survive deviations. This driver's exit status
    // reflects only argument and environment validity.
}
