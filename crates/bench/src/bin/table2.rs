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
//! count.
//!
//! Two scale knobs:
//!
//! - `--corpus PATH` (or `IGJIT_CORPUS`): persistent campaign corpus.
//!   The run warm-starts from entries whose fingerprints match this
//!   build + configuration and writes new entries back afterwards, so
//!   a re-run against an unchanged compiler replays Table 2 without
//!   re-exploring, re-compiling or re-simulating anything.
//! - `--jobs N` (or `IGJIT_CAMPAIGN_JOBS`): shards the catalog over N
//!   worker *processes*. Each worker computes its shard's outcomes and
//!   writes them as a corpus file; the parent preloads all shards and
//!   runs the normal sweep fully warm — so the merged table is
//!   byte-identical to a sequential run by construction.

use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use igjit::aggregate_metrics;
use igjit::report::CorpusIo;
use igjit::{
    instruction_catalog, native_catalog, Campaign, CompilerKind, InstrUnderTest, InstructionOutcome,
    NativeMethodId, Target,
};
use igjit_bench::{
    campaign_jobs, paper_config, print_metrics_summary, print_table2, with_live_progress,
    write_metrics_json,
};

const MANIFEST_HEADER: &str = "igjit-table2-manifest v2";

struct Args {
    jobs: Option<usize>,
    corpus: Option<PathBuf>,
    /// Hidden worker mode: `--worker-shard MANIFEST IDX JOBS`.
    worker_shard: Option<(PathBuf, usize, usize)>,
    shard_out: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: table2 [--jobs N] [--corpus PATH]\n\
         \n\
         Regenerates Table 2 (the four compiler rows plus the\n\
         meta-compiled tier over the whole instruction catalog,\n\
         both ISAs, kind probing on; IGJIT_TIER5=0 drops the fifth\n\
         row without changing the other four).\n\
         \n\
         options:\n\
         \x20 --jobs N       shard the catalog over N worker processes\n\
         \x20                (also IGJIT_CAMPAIGN_JOBS; the merged table\n\
         \x20                is byte-identical to a sequential run)\n\
         \x20 --corpus PATH  persistent campaign corpus: warm-start from\n\
         \x20                PATH and write new entries back (also\n\
         \x20                IGJIT_CORPUS; stale or corrupt files degrade\n\
         \x20                to a cold run)\n\
         \x20 --help         this text\n\
         \n\
         environment: IGJIT_THREADS, IGJIT_TIER5, IGJIT_NEGATE_THREADS,\n\
         IGJIT_MUTANT, IGJIT_CORPUS, IGJIT_CAMPAIGN_JOBS"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args =
        Args { jobs: None, corpus: None, worker_shard: None, shard_out: None };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => usage(),
            "--jobs" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => args.jobs = Some(n),
                _ => {
                    eprintln!("error: --jobs expects a positive integer");
                    std::process::exit(2);
                }
            },
            "--corpus" => match it.next() {
                Some(p) if !p.is_empty() => args.corpus = Some(PathBuf::from(p)),
                _ => {
                    eprintln!("error: --corpus expects a file path");
                    std::process::exit(2);
                }
            },
            "--worker-shard" => {
                let manifest = it.next().map(PathBuf::from);
                let idx = it.next().and_then(|v| v.parse::<usize>().ok());
                let jobs = it.next().and_then(|v| v.parse::<usize>().ok());
                match (manifest, idx, jobs) {
                    (Some(m), Some(i), Some(j)) if j >= 1 && i < j => {
                        args.worker_shard = Some((m, i, j))
                    }
                    _ => {
                        eprintln!("error: --worker-shard expects MANIFEST IDX JOBS");
                        std::process::exit(2);
                    }
                }
            }
            "--shard-out" => match it.next() {
                Some(p) if !p.is_empty() => args.shard_out = Some(PathBuf::from(p)),
                _ => {
                    eprintln!("error: --shard-out expects a file path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("error: unknown argument {other:?}");
                usage();
            }
        }
    }
    args
}

/// Writes the campaign's work list in `run_all` order — every native
/// method, then the whole instruction catalog per bytecode tier, then
/// (when the meta tier is on) the catalog once more against the
/// meta-compiled tier. This order is the sharding contract between
/// parent and workers.
fn write_manifest(path: &Path, meta_tier: bool) -> std::io::Result<()> {
    let mut out = String::from(MANIFEST_HEADER);
    out.push('\n');
    for spec in native_catalog() {
        out.push_str(&format!("native {}\n", spec.id.0));
    }
    for tier in 0..CompilerKind::ALL.len() {
        for spec in instruction_catalog() {
            out.push_str(&format!("bc {tier} {}\n", spec.opcode));
        }
    }
    if meta_tier {
        for spec in instruction_catalog() {
            out.push_str(&format!("meta {}\n", spec.opcode));
        }
    }
    std::fs::write(path, out)
}

fn parse_manifest(path: &Path) -> Result<Vec<(Target, InstrUnderTest)>, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut lines = std::io::BufReader::new(file).lines();
    match lines.next() {
        Some(Ok(h)) if h == MANIFEST_HEADER => {}
        _ => return Err(format!("{}: missing manifest header", path.display())),
    }
    let by_opcode: std::collections::HashMap<u8, igjit::Instruction> =
        instruction_catalog().into_iter().map(|s| (s.opcode, s.instruction)).collect();
    let mut items = Vec::new();
    for (n, line) in lines.enumerate() {
        let line = line.map_err(|e| format!("{}: {e}", path.display()))?;
        let fields: Vec<&str> = line.split_whitespace().collect();
        let bad = || format!("{}: bad manifest line {}: {line:?}", path.display(), n + 2);
        match fields.as_slice() {
            ["native", id] => {
                let id = id.parse::<u16>().map_err(|_| bad())?;
                items.push((Target::NativeMethods, InstrUnderTest::Native(NativeMethodId(id))));
            }
            ["bc", tier, opcode] => {
                let tier = tier.parse::<usize>().map_err(|_| bad())?;
                let kind = *CompilerKind::ALL.get(tier).ok_or_else(bad)?;
                let opcode = opcode.parse::<u8>().map_err(|_| bad())?;
                let instr = *by_opcode.get(&opcode).ok_or_else(bad)?;
                items.push((Target::Bytecode(kind), InstrUnderTest::Bytecode(instr)));
            }
            ["meta", opcode] => {
                let opcode = opcode.parse::<u8>().map_err(|_| bad())?;
                let instr = *by_opcode.get(&opcode).ok_or_else(bad)?;
                items.push((Target::MetaCompiled, InstrUnderTest::Bytecode(instr)));
            }
            _ => return Err(bad()),
        }
    }
    Ok(items)
}

/// Worker-shard mode: compute outcomes for every `index % jobs == idx`
/// manifest line (sequentially — parallelism comes from the process
/// fan-out) and write them as an outcomes-only corpus file.
fn run_worker_shard(
    manifest: &Path,
    idx: usize,
    jobs: usize,
    out: &Path,
) -> Result<(), String> {
    let items = parse_manifest(manifest)?;
    let mut config = paper_config();
    config.threads = 1;
    let campaign = Campaign::new(config.clone());
    let mut outcomes: Vec<((Target, InstrUnderTest), InstructionOutcome)> = Vec::new();
    for (i, (target, instr)) in items.into_iter().enumerate() {
        if i % jobs != idx {
            continue;
        }
        outcomes.push(((target, instr), campaign.outcome_for(instr, target)));
    }
    let shard = igjit_corpus::Corpus { outcomes, ..igjit_corpus::Corpus::default() };
    let fps = igjit_corpus::fingerprints(config.probes, &config.isas);
    igjit_corpus::save(out, &shard, &fps)
        .map(|_| ())
        .map_err(|e| format!("{}: {e}", out.display()))
}

/// Parent side of `--jobs N`: manifest out, workers fan out, shard
/// outcomes come back as corpus files, and the actual table run is an
/// ordinary (fully warm) sweep over the preloaded overlay.
fn run_sharded(campaign: &mut Campaign, jobs: usize) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = std::env::temp_dir().join(format!("igjit-table2-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let manifest = dir.join("manifest.txt");
    write_manifest(&manifest, campaign.config().meta_tier)
        .map_err(|e| format!("{}: {e}", manifest.display()))?;
    let shard_paths: Vec<PathBuf> =
        (0..jobs).map(|i| dir.join(format!("shard-{i}.corpus"))).collect();
    let mut children = Vec::new();
    for (i, shard) in shard_paths.iter().enumerate() {
        let child = Command::new(&exe)
            .arg("--worker-shard")
            .arg(&manifest)
            .arg(i.to_string())
            .arg(jobs.to_string())
            .arg("--shard-out")
            .arg(shard)
            // Worker processes must not recurse into sharding, and
            // their corpus input is the shard protocol, not the file.
            .env_remove("IGJIT_CAMPAIGN_JOBS")
            .env_remove("IGJIT_CORPUS")
            .spawn()
            .map_err(|e| format!("spawning worker {i}: {e}"))?;
        children.push((i, child));
    }
    let mut failed = Vec::new();
    for (i, mut child) in children {
        match child.wait() {
            Ok(status) if status.success() => {}
            Ok(status) => failed.push(format!("worker {i} exited with {status}")),
            Err(e) => failed.push(format!("worker {i}: {e}")),
        }
    }
    if !failed.is_empty() {
        return Err(failed.join("; "));
    }
    let fps = igjit_corpus::fingerprints(campaign.config().probes, &campaign.config().isas);
    let mut preloaded = 0usize;
    for shard in &shard_paths {
        let (corpus, stats) = igjit_corpus::load(shard, &fps);
        for w in &stats.warnings {
            eprintln!("igjit: shard {}: {w}", shard.display());
        }
        preloaded += corpus.outcomes.len();
        campaign.preload_outcomes(corpus.outcomes);
    }
    eprintln!("sharded over {jobs} worker processes: {preloaded} outcomes preloaded");
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

fn main() {
    let _mutant = igjit_bench::arm_mutant_from_env();
    let args = parse_args();
    if let Some((manifest, idx, jobs)) = &args.worker_shard {
        let Some(out) = &args.shard_out else {
            eprintln!("error: --worker-shard requires --shard-out FILE");
            std::process::exit(2);
        };
        if let Err(e) = run_worker_shard(manifest, *idx, *jobs, out) {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
        return;
    }
    let jobs = args.jobs.unwrap_or_else(campaign_jobs);
    let mut config = paper_config();
    if args.corpus.is_some() {
        config.corpus = args.corpus.clone();
    }
    let t_load = Instant::now();
    let mut campaign = Campaign::new(config);
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
    if jobs > 1 {
        if let Err(e) = run_sharded(&mut campaign, jobs) {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
    let campaign = with_live_progress(campaign);
    eprintln!(
        "running the native-method and three bytecode campaigns{} \
         (both ISAs, probing on, {} thread(s))…",
        if campaign.config().meta_tier { " plus the meta tier" } else { "" },
        campaign.config().threads,
    );
    let reports = campaign.run_all();
    println!(
        "\nTable 2: results running the approach on {} different compilers\n",
        if campaign.config().meta_tier { "five" } else { "four" }
    );
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
