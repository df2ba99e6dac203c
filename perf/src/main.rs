//! `perf`: the reproduction's benchmark. It times calls into the
//! crates' public functions from outside, checks every op's output and
//! prints the metrics `BENCHMARK.json` names. See README.md.

mod compare;
mod json;
mod layers;
mod rng;
mod run;
mod spec;
mod stats;
mod trace;
mod worker;
mod workload;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use igjit::MutantId;

const DEFAULT_SEED: u64 = 1;

const USAGE: &str = "\
usage:
  perf run [--workload NAME]... [--seed N] [--seconds S] [--trace [0|1]]
           [--out FILE] [--quick] [--inject-mutant ID]
      Runs the workloads (all four unless named) in interleaved blocks,
      one worker process at a time, checks every op's output and prints
      the end-to-end metrics, or with --trace the per-layer ones. The
      last stdout line is one JSON object; the status is 1 when a check
      failed. --seconds is the measured time per workload (default 25),
      --out appends one JSON line per metric, --quick runs one short
      block per workload, --inject-mutant arms a fault for the whole run
      so that the checks can be seen to fail.
  perf compare PARENT.jsonl CHANGE.jsonl
      Judges the change's runs against the parent's by the pairs rule and
      the bounds in BENCHMARK.json; the status is 1 on a regression.
  perf describe
      Prints BENCHMARK.json (stdout) and the metric table (stderr).";

#[derive(Default)]
struct Options {
    workloads: Vec<usize>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
    quick: bool,
    inject: Option<MutantId>,
    block: Option<usize>,
}

fn parse_options(args: &[String], worker: bool) -> Result<Options, String> {
    let mut o = Options::default();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let (i, _) =
                    spec::workload(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
                o.workloads.push(i);
            }
            "--seed" => {
                let s = value("a number")?;
                o.seed = Some(
                    s.parse()
                        .map_err(|_| format!("--seed {s:?} is not a whole number"))?,
                );
            }
            "--seconds" => {
                let s = value("a number")?;
                match s.parse::<f64>() {
                    Ok(x) if (0.0..=3600.0).contains(&x) => o.seconds = Some(x),
                    _ => return Err(format!("--seconds {s:?} is not between 0 and 3600")),
                }
            }
            // The flag alone turns tracing on; `--trace 0` and `--trace 1` also parse.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some(v @ ("0" | "1")) => {
                    o.trace = v == "1";
                    it.next();
                }
                _ => o.trace = true,
            },
            "--out" if !worker => o.out = Some(PathBuf::from(value("a file")?)),
            "--quick" => o.quick = true,
            "--inject-mutant" => {
                let spec = value("a mutant id or name")?;
                o.inject = Some(igjit::mutate::parse(&spec)?);
            }
            "--block" if worker => {
                let s = value("a number")?;
                o.block = Some(
                    s.parse()
                        .map_err(|_| format!("--block {s:?} is not a whole number"))?,
                );
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if o.inject.is_some() && o.workloads.contains(&2) {
        return Err(
            "--inject-mutant cannot be combined with the mutation workload, which arms its own"
                .into(),
        );
    }
    Ok(o)
}

fn run_command(args: &[String]) -> Result<i32, String> {
    let o = parse_options(args, false)?;
    let mut workloads = o.workloads;
    if workloads.is_empty() {
        if o.inject.is_some() {
            return Err("--inject-mutant needs --workload, and not the mutation workload".into());
        }
        workloads = (0..spec::WORKLOADS.len()).collect();
    }
    workloads.sort_unstable();
    workloads.dedup();
    Ok(run::run(&run::RunArgs {
        workloads,
        seed: o.seed.unwrap_or(DEFAULT_SEED),
        seconds: o.seconds.unwrap_or(spec::RUN_SECONDS as f64),
        trace: o.trace,
        out: o.out,
        quick: o.quick,
        inject: o.inject,
    }))
}

fn worker_command(args: &[String], started: Instant) -> Result<i32, String> {
    let o = parse_options(args, true)?;
    let (&[workload], Some(seed), Some(seconds), Some(block)) =
        (o.workloads.as_slice(), o.seed, o.seconds, o.block)
    else {
        return Err("worker needs one --workload, --seed, --seconds and --block".into());
    };
    let args = worker::WorkerArgs {
        key: workload::Key {
            seed,
            workload,
            block,
        },
        slice: Duration::from_secs_f64(seconds),
        trace: o.trace,
        quick: o.quick,
        inject: o.inject,
    };
    match worker::run(&args, started) {
        Ok(report) => {
            println!("{report}");
            Ok(0)
        }
        Err(e) => {
            eprintln!(
                "error: worker {} block {block}: {e}",
                spec::WORKLOADS[workload].name
            );
            Ok(1)
        }
    }
}

fn main() {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or(&[]);
    let status = match args.first().map(String::as_str) {
        Some("run") => run_command(rest),
        Some("worker") => worker_command(rest, started),
        Some("compare") => match rest {
            [a, b] => Ok(compare::compare(a.as_ref(), b.as_ref())),
            _ => Err("compare needs two result files".into()),
        },
        Some("describe") if rest.is_empty() => {
            print!("{}", spec::benchmark_json());
            eprint!("{}", spec::describe_table());
            Ok(0)
        }
        Some("--help" | "-h" | "help") => {
            println!("{USAGE}");
            Ok(0)
        }
        _ => Err("expected a command".into()),
    };
    match status {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    }
}
