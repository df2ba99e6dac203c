//! Campaign-as-a-service: a long-running process that answers
//! JSON-Lines requests with differential-testing sweeps, amortizing
//! the exploration cache, the compiled-code cache and the in-memory
//! corpus overlay across requests (engine v7).
//!
//! Requests arrive one per line on stdin (default) or on a unix
//! socket (`--socket PATH`), as flat JSON objects:
//!
//! ```text
//! {"cmd":"ping"}
//! {"cmd":"run"}
//! {"cmd":"run","threads":4}
//! {"cmd":"quit"}
//! ```
//!
//! Responses are JSON lines on the same stream: a `row` event per
//! Table 2 row, an `instruction` event per tested instruction (the
//! streamed verdicts), and a final `done` event with aggregate
//! metrics. The first `run` is as cold as the corpus allows; every
//! identical re-run replays from the overlay recorded by the first,
//! so a serve-mode client pays the pipeline cost once per compiler
//! state.
//!
//! The configuration is pinned to the paper's setup (both ISAs, kind
//! probing on); only the worker-thread count is per-request. Mutant
//! arming is refused — a fault-injected serve process would hand out
//! poisoned verdicts long after the operator forgot the env var.
//!
//! The socket mode accepts concurrent connections, but the campaign
//! itself is single-occupancy: while one client's request stream holds
//! it, any other connection is answered immediately with one
//! `{"ok":false,"event":"busy"}` line and closed, instead of hanging
//! silently in the accept queue until the first client disconnects.

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, TryLockError};

use igjit::{aggregate_metrics, Campaign};
use igjit_bench::paper_config;

struct Args {
    socket: Option<PathBuf>,
    corpus: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: campaign_server [--socket PATH] [--corpus PATH]\n\
         \n\
         Serves differential-testing sweeps over JSON-Lines requests\n\
         ({{\"cmd\":\"ping\"|\"run\"|\"quit\"}}, optional \"threads\":N on run),\n\
         sharing the exploration/code caches and the corpus overlay\n\
         across requests. One connection is served at a time; extra\n\
         clients get {{\"ok\":false,\"event\":\"busy\"}} and are closed.\n\
         \n\
         options:\n\
         \x20 --socket PATH  listen on a unix socket instead of stdin\n\
         \x20 --corpus PATH  persistent corpus (also IGJIT_CORPUS)\n\
         \x20 --help         this text\n\
         \n\
         environment: IGJIT_THREADS, IGJIT_HEAP_SNAPSHOT, IGJIT_PREDECODE,\n\
         IGJIT_INTERP_PREDECODE, IGJIT_HASH_CONS, IGJIT_FAMILY_SHARE, IGJIT_TIER5,\n\
         IGJIT_SOLVER_TRAIL, IGJIT_NEGATE_THREADS, IGJIT_CORPUS (IGJIT_MUTANT is refused)"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args { socket: None, corpus: None };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => usage(),
            "--socket" => match it.next() {
                Some(p) if !p.is_empty() => args.socket = Some(PathBuf::from(p)),
                _ => {
                    eprintln!("error: --socket expects a path");
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
            other => {
                eprintln!("error: unknown argument {other:?}");
                usage();
            }
        }
    }
    args
}

/// Extracts a `"key":"value"` string field from one flat JSON object.
/// Good enough for the fixed request grammar; anything the grammar
/// doesn't cover is answered with an error event, never a guess.
fn json_str_field(line: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\"");
    let rest = &line[line.find(&needle)? + needle.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// Extracts a `"key":123` unsigned field from one flat JSON object.
fn json_usize_field(line: &str, key: &str) -> Option<usize> {
    let needle = format!("\"{key}\"");
    let rest = &line[line.find(&needle)? + needle.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

/// JSON string escaping for the label fields we emit (labels are
/// instruction/compiler names — quotes and backslashes just in case).
fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Handles one request line. Returns `false` when the client asked to
/// quit.
fn handle(line: &str, campaign: &mut Campaign, out: &mut dyn Write) -> std::io::Result<bool> {
    let line = line.trim();
    if line.is_empty() {
        return Ok(true);
    }
    match json_str_field(line, "cmd").as_deref() {
        Some("ping") => {
            writeln!(out, "{{\"ok\":true,\"event\":\"pong\"}}")?;
        }
        Some("quit") => {
            writeln!(out, "{{\"ok\":true,\"event\":\"bye\"}}")?;
            out.flush()?;
            return Ok(false);
        }
        Some("run") => {
            if let Some(threads) = json_usize_field(line, "threads") {
                campaign.set_threads(threads);
            }
            let reports = campaign.run_all();
            for report in &reports {
                writeln!(
                    out,
                    "{{\"ok\":true,\"event\":\"row\",\"row\":\"{}\",\
                     \"tested_instructions\":{},\"interpreter_paths\":{},\
                     \"curated_paths\":{},\"differences\":{}}}",
                    esc(&report.row.label),
                    report.row.tested_instructions,
                    report.row.interpreter_paths,
                    report.row.curated_paths,
                    report.row.differences,
                )?;
                for (outcome, timing) in report.outcomes.iter().zip(&report.timings) {
                    writeln!(
                        out,
                        "{{\"ok\":true,\"event\":\"instruction\",\"row\":\"{}\",\
                         \"instruction\":\"{}\",\"paths\":{},\"curated\":{},\
                         \"differences\":{},\"corpus_hit\":{}}}",
                        esc(&report.row.label),
                        esc(&timing.label),
                        outcome.paths_found,
                        outcome.curated,
                        outcome.difference_count(),
                        matches!(timing.corpus_hit, Some(true)),
                    )?;
                }
            }
            let total = aggregate_metrics(&reports);
            writeln!(
                out,
                "{{\"ok\":true,\"event\":\"done\",\"metrics\":{}}}",
                total.to_json()
            )?;
            // Each sweep's new entries go straight back to disk, so a
            // crashed or killed server loses at most the in-flight
            // request.
            if let Some(Err(e)) = campaign.save_corpus() {
                eprintln!("corpus: write failed: {e}");
            }
        }
        _ => {
            writeln!(
                out,
                "{{\"ok\":false,\"event\":\"error\",\
                 \"error\":\"expected {{\\\"cmd\\\":\\\"ping|run|quit\\\"}}\"}}"
            )?;
        }
    }
    out.flush()?;
    Ok(true)
}

fn serve_stream(
    campaign: &mut Campaign,
    input: impl std::io::Read,
    out: &mut dyn Write,
) -> std::io::Result<bool> {
    for line in BufReader::new(input).lines() {
        if !handle(&line?, campaign, out)? {
            return Ok(false);
        }
    }
    Ok(true)
}

fn main() {
    let args = parse_args();
    let knobs = igjit_bench::env_knobs();
    if knobs.mutant.is_some() {
        eprintln!(
            "error: IGJIT_MUTANT must not be set for campaign_server — a \
             fault-injected serve process would stream poisoned verdicts"
        );
        std::process::exit(2);
    }
    let mut config = paper_config();
    if args.corpus.is_some() {
        config.corpus = args.corpus.clone();
    }
    let mut campaign = Campaign::new(config);
    if let Some(stats) = campaign.corpus_load_stats() {
        eprintln!(
            "corpus: {} outcomes, {} explorations, {} artifacts loaded",
            stats.outcomes, stats.explorations, stats.code,
        );
    }
    match &args.socket {
        None => {
            eprintln!("campaign_server: serving JSON-Lines requests on stdin");
            let stdin = std::io::stdin();
            let mut stdout = std::io::stdout();
            if let Err(e) = serve_stream(&mut campaign, stdin.lock(), &mut stdout) {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        Some(path) => {
            // A stale socket from a previous run would make bind fail.
            let _ = std::fs::remove_file(path);
            let listener = match std::os::unix::net::UnixListener::bind(path) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("error: binding {}: {e}", path.display());
                    std::process::exit(1);
                }
            };
            eprintln!("campaign_server: listening on {}", path.display());
            // One connection owns the campaign at a time; extra
            // clients get an explicit busy line from their own thread
            // instead of hanging unanswered in the accept queue.
            let campaign = Arc::new(Mutex::new(campaign));
            std::thread::scope(|scope| {
                for stream in listener.incoming() {
                    let stream = match stream {
                        Ok(s) => s,
                        Err(e) => {
                            eprintln!("accept failed: {e}");
                            continue;
                        }
                    };
                    let campaign = Arc::clone(&campaign);
                    scope.spawn(move || {
                        let reader = match stream.try_clone() {
                            Ok(r) => r,
                            Err(e) => {
                                eprintln!("clone failed: {e}");
                                return;
                            }
                        };
                        let mut writer = stream;
                        let mut guard = match campaign.try_lock() {
                            Ok(g) => g,
                            Err(TryLockError::WouldBlock) => {
                                let _ = writeln!(writer, "{{\"ok\":false,\"event\":\"busy\"}}");
                                let _ = writer.flush();
                                return;
                            }
                            Err(TryLockError::Poisoned(p)) => p.into_inner(),
                        };
                        match serve_stream(&mut guard, reader, &mut writer) {
                            Ok(true) => {}
                            Ok(false) => {
                                // `quit` stops the whole server. The
                                // accept loop is blocked in `incoming`,
                                // so exit here — after the socket file
                                // is gone and the response is flushed.
                                drop(guard);
                                let _ = std::fs::remove_file(path);
                                std::process::exit(0);
                            }
                            Err(e) => eprintln!("connection error: {e}"),
                        }
                    });
                }
            });
            let _ = std::fs::remove_file(path);
        }
    }
}
