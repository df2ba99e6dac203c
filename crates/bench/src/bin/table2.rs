//! Regenerates Table 2 of the paper: for each compiler tier (the
//! paper's four plus, since engine v9, the meta-compiled tier derived
//! from the interpreter), the number of tested instructions,
//! interpreter paths, curated paths and differences.
//!
//! Observability: renders a live per-row progress line on stderr,
//! and writes (overwrites) `table2.metrics.json` in the working
//! directory: the Table 2 totals, per-stage wall-clock, cache hit rates
//! and the exact work counters. It is the one record a run leaves.
//! With a corpus attached, it also carries `corpus_load_ms`
//! (constructing the campaign on the file) and `corpus_save_ms`
//! (`save_corpus`), so a warm re-check's end-to-end cost is the rows'
//! `wall_clock_ms` plus those two. `IGJIT_THREADS` overrides the worker
//! count; worker threads are the only parallelism.
//!
//! `--corpus PATH` (or `IGJIT_CORPUS`) attaches a persistent campaign
//! corpus. The run warm-starts from entries whose fingerprints match
//! this build + configuration and writes new entries back afterwards,
//! so a re-run against an unchanged compiler replays Table 2 without
//! re-exploring, re-compiling or re-simulating anything.

use std::io::Write;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use igjit::aggregate_metrics;
use igjit::report::CorpusIo;
use igjit::Campaign;
use igjit_bench::{
    outln, paper_config, print_metrics_summary, print_table2, with_live_progress, write_metrics_json,
};

fn usage() -> ! {
    eprintln!(
        "usage: table2 [--corpus PATH]\n\
         \n\
         Regenerates Table 2 (the four compiler rows plus the\n\
         meta-compiled tier over the whole instruction catalog,\n\
         both ISAs, kind probing on).\n\
         \n\
         options:\n\
         \x20 --corpus PATH  persistent campaign corpus: warm-start from\n\
         \x20                PATH and write new entries back (also\n\
         \x20                IGJIT_CORPUS; stale or corrupt files degrade\n\
         \x20                to a cold run)\n\
         \x20 --help         this text\n\
         \n\
         environment: {}",
        igjit::env::KNOWN_VARS.join(", ")
    );
    std::process::exit(2);
}

/// The `--corpus` path, if given.
fn parse_args() -> Option<PathBuf> {
    let mut corpus = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => usage(),
            "--corpus" => match it.next() {
                Some(p) if !p.is_empty() => corpus = Some(PathBuf::from(p)),
                _ => {
                    eprintln!("error: --corpus expects a file path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("error: unknown argument {other:?}");
                usage();
            }
        }
    }
    corpus
}

fn main() {
    let _mutant = igjit_bench::arm_mutant_from_env();
    let corpus = parse_args();
    let mut config = paper_config();
    if corpus.is_some() {
        config.corpus = corpus;
    }
    let t_load = Instant::now();
    let campaign = Campaign::new(config);
    let corpus_load = t_load.elapsed();
    if let Some(stats) = campaign.corpus_load_stats() {
        eprintln!(
            "corpus: {} outcomes, {} explorations, {} artifacts in {:.1} ms{}{}",
            stats.outcomes,
            stats.explorations,
            stats.code,
            corpus_load.as_secs_f64() * 1e3,
            if stats.stale_sections > 0 {
                format!(" ({} stale section(s) dropped)", stats.stale_sections)
            } else {
                String::new()
            },
            if stats.cold { " — cold start" } else { "" },
        );
    }
    let campaign = with_live_progress(campaign);
    eprintln!(
        "running the native-method and three bytecode campaigns plus the meta tier \
         (both ISAs, probing on, {} thread(s))…",
        campaign.config().threads,
    );
    let reports = campaign.run_all();
    outln!("\nTable 2: results running the approach on five different compilers\n");
    print_table2(&reports);
    print_metrics_summary(&aggregate_metrics(&reports));
    // A corpus written under an armed mutant would be fingerprint-
    // isolated from pristine runs, but skipping the save keeps mutant
    // sweeps from churning the file at all.
    let mut corpus_save = Duration::ZERO;
    if igjit::mutate::current().is_none() {
        let t_save = Instant::now();
        let saved = campaign.save_corpus();
        corpus_save = t_save.elapsed();
        let ms = corpus_save.as_secs_f64() * 1e3;
        match saved {
            None => {}
            Some(Ok(igjit_corpus::SaveOutcome::Unchanged)) => {
                eprintln!("corpus: unchanged ({ms:.1} ms)");
            }
            Some(Ok(igjit_corpus::SaveOutcome::Written { bytes })) => {
                eprintln!("corpus: {bytes} bytes written ({ms:.1} ms)");
            }
            Some(Err(e)) => eprintln!("corpus: write failed: {e}"),
        }
    }
    let corpus_io = campaign
        .corpus_load_stats()
        .map(|_| CorpusIo { load: corpus_load, save: corpus_save });
    write_metrics_json("table2.metrics.json", &reports, corpus_io);
    let _ = std::io::stderr().flush();
}
