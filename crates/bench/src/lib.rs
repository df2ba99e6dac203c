//! Shared helpers for the table/figure harness binaries.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::io::{ErrorKind, Write};

use igjit::report::{self, CorpusIo};
use igjit::{Campaign, CampaignConfig, CampaignReport, Isa, Metrics};

/// `println!` for the harness binaries: a reader that closes the pipe
/// early (`table3 | head -1`) ends the process quietly with status 0
/// instead of a "failed printing to stdout" panic.
#[macro_export]
macro_rules! outln {
    () => {
        $crate::write_stdout_line(format_args!(""))
    };
    ($($arg:tt)*) => {
        $crate::write_stdout_line(format_args!($($arg)*))
    };
}

/// Writes one line to stdout (the body of [`outln!`]). A broken pipe
/// exits with status 0; any other write error panics, as `println!`
/// does.
pub fn write_stdout_line(args: std::fmt::Arguments<'_>) {
    let mut out = std::io::stdout().lock();
    if let Err(e) = out.write_fmt(args).and_then(|()| out.write_all(b"\n")) {
        if e.kind() == ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
}

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

/// Path of the persistent campaign corpus: the `IGJIT_CORPUS`
/// environment variable, default none (no persistence). Malformed
/// values (an empty path) are fatal.
pub fn corpus_path() -> Option<std::path::PathBuf> {
    env_knobs().corpus
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
/// [`campaign_threads`], persistent corpus from [`corpus_path`].
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
        corpus: corpus_path(),
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

/// Prints a one-paragraph summary of aggregated campaign metrics.
pub fn print_metrics_summary(total: &Metrics) {
    outln!(
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
    outln!(
        "sub-stages: setup {:.3}s, hash {:.3}s, report {:.3}s, \
         progress {:.3}s, residual other {:.3}s",
        total.stages.setup.as_secs_f64(),
        total.stages.hash.as_secs_f64(),
        total.stages.report.as_secs_f64(),
        total.stages.progress.as_secs_f64(),
        total.stages.other.as_secs_f64(),
    );
    outln!(
        "explore sub-slices: walk run {:.3}s, probe solve {:.3}s \
         (both inside explore, not additive with it)",
        total.stages.walk_run.as_secs_f64(),
        total.stages.probe_solve.as_secs_f64(),
    );
    if total.corpus_hits + total.corpus_misses > 0 {
        outln!(
            "corpus: {} warm / {} cold instructions",
            total.corpus_hits, total.corpus_misses,
        );
    }
    outln!(
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
    outln!(
        "code cache: {} hits / {} compiles ({:.1}% hit rate)",
        total.compile_hits,
        total.compile_misses,
        100.0 * total.compile_hit_rate(),
    );
    if total.snapshot.seals > 0 {
        outln!(
            "heap snapshots: {} sealed, {} restores, {} dirty words total \
             ({:.1} words/restore)",
            total.snapshot.seals,
            total.snapshot.restores,
            total.snapshot.dirty_words,
            total.snapshot.dirty_words as f64 / (total.snapshot.restores.max(1) as f64),
        );
    }
    outln!(
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
    if total.trail.trail_marks > 0 {
        outln!(
            "trail: {} scope marks, {} ops unwound",
            total.trail.trail_marks,
            total.trail.undone_ops,
        );
    }
}

/// Prints a full Table 2 from the given reports.
pub fn print_table2(reports: &[CampaignReport]) {
    outln!("{}", report::table2_header());
    for r in reports {
        outln!("{}", report::table2_row(r));
    }
    for r in reports {
        if r.row.meta_compiled_runs + r.row.meta_trampolines > 0 {
            outln!(
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
    let total = report::table2_total(reports);
    outln!(
        "{:<34} {:>8} {:>8} {:>8} {:>10} ({:.2}%)",
        total.label,
        total.tested_instructions,
        total.interpreter_paths,
        total.curated_paths,
        total.differences,
        total.difference_percent()
    );
}
