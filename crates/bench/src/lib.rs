//! Shared helpers for the table/figure harness binaries and the
//! Criterion benches.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::io::Write;

use igjit::report::{self, CorpusIo};
use igjit::{aggregate_metrics, Campaign, CampaignConfig, CampaignReport, Isa, Metrics};

/// The strictly parsed `IGJIT_*` knobs. Unknown `IGJIT_*` variables
/// and malformed values are fatal (exit status 2): a misspelled knob
/// must not silently run the default configuration.
pub fn env_knobs() -> igjit::env::EnvKnobs {
    match igjit::env::parse_env() {
        Ok(knobs) => knobs,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

/// Worker threads for the harness binaries: the `IGJIT_THREADS`
/// environment variable when set, otherwise the machine's available
/// parallelism. Malformed values are fatal.
pub fn campaign_threads() -> usize {
    env_knobs().threads_or_default()
}

/// Whether heap snapshot/restore replay is enabled: the
/// `IGJIT_HEAP_SNAPSHOT` environment variable (off, every run rebuilds
/// the heap from the model), default on. Malformed values are fatal.
pub fn heap_snapshot_enabled() -> bool {
    env_knobs().heap_snapshot_enabled()
}

/// Whether predecoded batched replay is enabled: the `IGJIT_PREDECODE`
/// environment variable (off, every step byte-decodes and every run
/// reallocates the simulator), default on. Malformed values are fatal.
pub fn predecode_enabled() -> bool {
    env_knobs().predecode_enabled()
}

/// Whether the interpreter-side predecoded pipeline is enabled: the
/// `IGJIT_INTERP_PREDECODE` environment variable (off, oracle and
/// sequence runs dispatch per step — the engine-v7 behaviour), default
/// on. Rows are identical either way. Malformed values are fatal.
pub fn interp_predecode_enabled() -> bool {
    env_knobs().interp_predecode_enabled()
}

/// Whether hash-consed constraint interning is enabled: the
/// `IGJIT_HASH_CONS` environment variable (on, assertions are interned
/// and path dedup keys on term ids), default off since engine v7 (the
/// ablation in EXPERIMENTS.md measured the sweep faster without it).
/// Malformed values are fatal.
pub fn hash_cons_enabled() -> bool {
    env_knobs().hash_cons_enabled()
}

/// Whether family-shared exploration is enabled: the
/// `IGJIT_FAMILY_SHARE` environment variable (off, every opcode is
/// explored from scratch), default on. Malformed values are fatal.
pub fn family_share_enabled() -> bool {
    env_knobs().family_share_enabled()
}

/// Whether the meta-compiled tier (#5, engine v9) runs as a fifth
/// Table 2 row: the `IGJIT_TIER5` environment variable, default on.
/// Tiers 1–4 rows are byte-identical either way. Malformed values are
/// fatal.
pub fn tier5_enabled() -> bool {
    env_knobs().tier5_enabled()
}

/// Whether solver sessions run hypothesis scopes on the undo trail
/// instead of cloning the interval store per scope (engine v10): the
/// `IGJIT_SOLVER_TRAIL` environment variable, default on. Rows are
/// byte-identical either way. Malformed values are fatal.
pub fn solver_trail_enabled() -> bool {
    env_knobs().solver_trail_enabled()
}

/// Worker threads for intra-instruction path negation: the
/// `IGJIT_NEGATE_THREADS` environment variable, default 1
/// (sequential). Malformed values are fatal.
pub fn negate_threads() -> usize {
    env_knobs().negate_threads_or_default()
}

/// Path of the persistent campaign corpus: the `IGJIT_CORPUS`
/// environment variable, default none (no persistence). Malformed
/// values (an empty path) are fatal.
pub fn corpus_path() -> Option<std::path::PathBuf> {
    env_knobs().corpus
}

/// Worker *processes* sharding the main campaign: the
/// `IGJIT_CAMPAIGN_JOBS` environment variable, default 1 (in-process).
/// Malformed values are fatal.
pub fn campaign_jobs() -> usize {
    env_knobs().campaign_jobs_or_default()
}

/// Arms the mutation operator named by `IGJIT_MUTANT`, if any,
/// returning the guard that keeps it armed. Harness binaries call this
/// first thing in `main` and hold the guard for the process lifetime,
/// so a whole table/figure run can be repeated under a fault. Unknown
/// mutant specs are fatal (exit status 2).
pub fn arm_mutant_from_env() -> Option<igjit::MutantGuard> {
    env_knobs().mutant.map(|id| match igjit::FaultInjector::arm(id) {
        Ok(guard) => {
            let name = igjit::mutate::find(id).map(|op| op.name).unwrap_or("?");
            eprintln!("fault injection: mutant {} ({name}) armed for this run", id.0);
            guard
        }
        Err(e) => {
            eprintln!("error: IGJIT_MUTANT: {e}");
            std::process::exit(2);
        }
    })
}

/// The evaluation configuration used by every harness binary: both
/// ISAs, probing enabled (the paper's §5.1 setup), worker threads from
/// [`campaign_threads`], heap snapshots from
/// [`heap_snapshot_enabled`], predecoded replay from
/// [`predecode_enabled`], persistent corpus from [`corpus_path`].
pub fn paper_campaign() -> Campaign {
    Campaign::new(paper_config())
}

/// The [`paper_campaign`] configuration without building the campaign,
/// for binaries that tweak a field (corpus path, thread count) before
/// construction.
pub fn paper_config() -> CampaignConfig {
    CampaignConfig {
        isas: vec![Isa::X86ish, Isa::Arm32ish],
        probes: true,
        threads: campaign_threads(),
        heap_snapshot: heap_snapshot_enabled(),
        predecode: predecode_enabled(),
        interp_predecode: interp_predecode_enabled(),
        hash_cons: hash_cons_enabled(),
        family_share: family_share_enabled(),
        negate_threads: negate_threads(),
        corpus: corpus_path(),
        meta_tier: tier5_enabled(),
        solver_trail: solver_trail_enabled(),
    }
}

/// Renders one in-place progress line on stderr. The line is
/// terminated (newline) when the batch completes, so subsequent output
/// starts fresh.
pub fn progress_line(row: &str, completed: usize, total: usize, current: &str) {
    eprint!("\r  {row:<28} {completed:>4}/{total:<4} {current:<28}");
    if completed >= total {
        eprintln!();
    }
    let _ = std::io::stderr().flush();
}

/// Attaches the live stderr progress line to a campaign.
pub fn with_live_progress(campaign: Campaign) -> Campaign {
    campaign.on_progress(|p| progress_line(&p.row, p.completed, p.total, &p.current))
}

/// Writes the observability JSON for a campaign run (with its corpus
/// I/O times, when a corpus was attached) next to the textual report
/// and says where it went.
pub fn write_metrics_json(path: &str, reports: &[CampaignReport], corpus_io: Option<CorpusIo>) {
    match std::fs::write(path, report::metrics_json(reports, corpus_io)) {
        Ok(()) => eprintln!("metrics: {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// Appends one machine-readable benchmark record (JSON Lines) to
/// `path`: timestamp, the knob configuration it ran under, thread
/// count, wall clock, corpus load and save times, per-stage sums and
/// maxima, both cache hit rates and the aggregated Table 2 totals. Appending keeps the history of
/// runs, so throughput drifts show up as a time series rather than
/// overwriting the evidence; the `knobs` object lets checkers classify
/// records without inferring the configuration from stage values.
pub fn append_bench_json(path: &str, reports: &[CampaignReport], corpus_io: Option<CorpusIo>) {
    let total = aggregate_metrics(reports);
    let mut row = igjit::CampaignRow::default();
    for r in reports {
        row.tested_instructions += r.row.tested_instructions;
        row.interpreter_paths += r.row.interpreter_paths;
        row.curated_paths += r.row.curated_paths;
        row.differences += r.row.differences;
    }
    let epoch = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let knobs = env_knobs();
    let record = format!(
        concat!(
            "{{\"epoch_s\":{},",
            "\"knobs\":{{\"heap_snapshot\":{},\"predecode\":{},",
            "\"interp_predecode\":{},",
            "\"hash_cons\":{},\"family_share\":{},\"tier5\":{},\"solver_trail\":{},",
            "\"corpus\":{}}},",
            "{},",
            "\"metrics\":{},",
            "\"table2\":{{\"tested_instructions\":{},\"interpreter_paths\":{},",
            "\"curated_paths\":{},\"differences\":{}}}}}\n"
        ),
        epoch,
        knobs.heap_snapshot_enabled(),
        knobs.predecode_enabled(),
        knobs.interp_predecode_enabled(),
        knobs.hash_cons_enabled(),
        knobs.family_share_enabled(),
        knobs.tier5_enabled(),
        knobs.solver_trail_enabled(),
        knobs.corpus.is_some(),
        report::corpus_io_fields(corpus_io),
        total.to_json(),
        row.tested_instructions,
        row.interpreter_paths,
        row.curated_paths,
        row.differences,
    );
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(record.as_bytes()));
    match appended {
        Ok(()) => eprintln!("bench record appended: {path}"),
        Err(e) => eprintln!("could not append {path}: {e}"),
    }
}

/// Prints a one-paragraph summary of aggregated campaign metrics.
pub fn print_metrics_summary(total: &Metrics) {
    println!(
        "\n{} instructions on {} thread(s) in {:.2}s wall clock \
         (explore {:.2}s, materialize {:.2}s, compile {:.2}s, meta-compile {:.2}s, \
         simulate {:.2}s, compare {:.2}s)",
        total.instructions,
        total.threads,
        total.wall_clock.as_secs_f64(),
        total.stages.explore.as_secs_f64(),
        total.stages.materialize.as_secs_f64(),
        total.stages.compile.as_secs_f64(),
        total.stages.meta_compile.as_secs_f64(),
        total.stages.simulate.as_secs_f64(),
        total.stages.compare.as_secs_f64(),
    );
    println!(
        "sub-stages: setup {:.3}s, decode {:.3}s, hash {:.3}s, report {:.3}s, \
         progress {:.3}s, residual other {:.3}s",
        total.stages.setup.as_secs_f64(),
        total.stages.decode.as_secs_f64(),
        total.stages.hash.as_secs_f64(),
        total.stages.report.as_secs_f64(),
        total.stages.progress.as_secs_f64(),
        total.stages.other.as_secs_f64(),
    );
    println!(
        "explore sub-slices: walk run {:.3}s, probe solve {:.3}s \
         (both inside explore, not additive with it)",
        total.stages.walk_run.as_secs_f64(),
        total.stages.probe_solve.as_secs_f64(),
    );
    if total.corpus_hits + total.corpus_misses > 0 {
        println!(
            "corpus: {} warm / {} cold instructions",
            total.corpus_hits, total.corpus_misses,
        );
    }
    println!(
        "exploration cache: {} hits / {} misses ({:.1}% hit rate){}",
        total.cache_hits,
        total.cache_misses,
        100.0 * total.cache_hit_rate(),
        if total.witness_errors > 0 {
            format!("; {} witness error(s)", total.witness_errors)
        } else {
            String::new()
        },
    );
    println!(
        "code cache: {} hits / {} compiles ({:.1}% hit rate)",
        total.compile_hits,
        total.compile_misses,
        100.0 * total.compile_hit_rate(),
    );
    if total.snapshot.seals > 0 {
        println!(
            "heap snapshots: {} sealed, {} restores, {} dirty words total \
             ({:.1} words/restore)",
            total.snapshot.seals,
            total.snapshot.restores,
            total.snapshot.dirty_words,
            total.snapshot.dirty_words as f64 / (total.snapshot.restores.max(1) as f64),
        );
    }
    println!(
        "solver: {} solves ({} sat, {} unsat), {} nodes, \
         {} incremental / {} rebuilds, scope depth ≤ {}",
        total.solver.solves,
        total.solver.sat,
        total.solver.unsat,
        total.solver.nodes_visited,
        total.solver.propagation_reuse,
        total.solver.rebuilds,
        total.solver.max_depth,
    );
    if total.trail.trail_marks + total.trail.pool_hits + total.trail.pool_misses > 0 {
        println!(
            "trail: {} scope marks, {} ops unwound, {} store clones avoided, \
             model pool {} hits / {} misses ({:.1}% hit rate)",
            total.trail.trail_marks,
            total.trail.undone_ops,
            total.trail.clones_avoided,
            total.trail.pool_hits,
            total.trail.pool_misses,
            100.0 * total.trail.pool_hit_rate(),
        );
    }
}

/// Prints a full Table 2 from the given reports.
pub fn print_table2(reports: &[CampaignReport]) {
    println!("{}", report::table2_header());
    let mut total = igjit::CampaignRow { label: "Total".into(), ..Default::default() };
    for r in reports {
        println!("{}", report::table2_row(r));
        total.tested_instructions += r.row.tested_instructions;
        total.interpreter_paths += r.row.interpreter_paths;
        total.curated_paths += r.row.curated_paths;
        total.differences += r.row.differences;
    }
    for r in reports {
        if r.row.meta_compiled_runs + r.row.meta_trampolines > 0 {
            println!(
                "meta tier coverage: {}/{} instructions fully meta-compiled ({:.1}%), \
                 {} compiled runs / {} trampolined runs",
                r.row.meta_full_instructions,
                r.row.tested_instructions,
                100.0 * r.row.meta_coverage(),
                r.row.meta_compiled_runs,
                r.row.meta_trampolines,
            );
        }
    }
    println!(
        "{:<34} {:>8} {:>8} {:>8} {:>10} ({:.2}%)",
        total.label,
        total.tested_instructions,
        total.interpreter_paths,
        total.curated_paths,
        total.differences,
        total.difference_percent()
    );
}
