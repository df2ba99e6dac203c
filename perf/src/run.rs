//! `perf run`: schedules the blocks of every selected workload, one
//! worker process at a time, and turns their reports into metrics.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Duration;

use igjit::MutantId;

use crate::json::{self, Json};
use crate::rng::Rng;
use crate::spec::{Metric, BLOCKS, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, percentile, quartiles, tail};
use crate::worker::{trace_path, WORK_DIR};
use crate::workload::ROW_SPANS;

pub struct RunArgs {
    pub workloads: Vec<usize>,
    pub seed: u64,
    /// Measured seconds per workload, split over the blocks.
    pub seconds: f64,
    pub trace: bool,
    pub out: Option<PathBuf>,
    /// One block per workload, each running only its `min_ops`.
    pub quick: bool,
    pub inject: Option<MutantId>,
}

/// One worker's report.
struct Block {
    setup_s: f64,
    peak_rss_mb: f64,
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
    ops_ms: Vec<f64>,
    traced: Vec<bool>,
    instructions: Vec<f64>,
    curated: Vec<f64>,
    prefix_ops: f64,
    counters: Vec<(String, f64)>,
    self_ms: Vec<(String, f64)>,
    stage_ms: Vec<(String, f64)>,
    layer: Vec<(String, Vec<f64>)>,
    probes: Vec<f64>,
}

fn numbers_by_key(v: &Json, key: &str) -> Result<Vec<(String, f64)>, String> {
    v.get(key)
        .and_then(Json::as_object)
        .ok_or_else(|| format!("missing object {key:?}"))?
        .iter()
        .map(|(k, x)| {
            Ok((
                k.clone(),
                x.as_f64()
                    .ok_or_else(|| format!("{key}.{k} is not a number"))?,
            ))
        })
        .collect()
}

fn parse_block(line: &str) -> Result<Block, String> {
    let v = json::parse(line)?;
    let layer_obj = v.get("layer").ok_or("missing object \"layer\"")?;
    let layer = layer_obj
        .as_object()
        .ok_or("\"layer\" is not an object")?
        .iter()
        .map(|(k, _)| Ok((k.clone(), layer_obj.numbers(k)?)))
        .collect::<Result<_, String>>()?;
    Ok(Block {
        setup_s: v.number("setup_s")?,
        peak_rss_mb: v.number("peak_rss_mb")?,
        attempted: v.number("attempted")? as usize,
        failed: v.number("failed")? as usize,
        errors: v
            .get("errors")
            .and_then(Json::as_array)
            .ok_or("missing array \"errors\"")?
            .iter()
            .filter_map(|e| e.as_str().map(str::to_string))
            .collect(),
        ops_ms: v.numbers("ops_ms")?,
        traced: v.numbers("traced")?.iter().map(|&t| t != 0.0).collect(),
        instructions: v.numbers("instructions")?,
        curated: v.numbers("curated")?,
        prefix_ops: v.number("prefix_ops")?,
        counters: numbers_by_key(&v, "counters")?,
        self_ms: numbers_by_key(&v, "self_ms")?,
        stage_ms: numbers_by_key(&v, "stage_ms")?,
        layer,
        probes: v.numbers("mem_probe_ms")?,
    })
}

fn spawn_worker(
    args: &RunArgs,
    workload: usize,
    block: usize,
    slice: Duration,
) -> Result<Block, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the perf binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("worker")
        .args(["--workload", WORKLOADS[workload].name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--block", &block.to_string()])
        .args(["--seconds", &slice.as_secs_f64().to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    if let Some(id) = args.inject {
        cmd.args(["--inject-mutant", &id.0.to_string()]);
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a worker: {e}"))?;
    let name = WORKLOADS[workload].name;
    if !out.status.success() {
        return Err(format!(
            "{name} block {block}: worker exited with {}",
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("");
    parse_block(line).map_err(|e| format!("{name} block {block}: unreadable worker report: {e}"))
}

/// One reported number with the samples behind it.
pub struct Value {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub n: usize,
    /// What `n` counts: ops, blocks or samples.
    pub of: &'static str,
    pub q1: f64,
    pub q3: f64,
    pub note: String,
}

impl Value {
    fn new(metric: &Metric, value: f64, n: usize, of: &'static str, (q1, q3): (f64, f64)) -> Value {
        Value {
            name: metric.name.into(),
            unit: metric.unit,
            value,
            n,
            of,
            q1,
            q3,
            note: String::new(),
        }
    }
}

fn spread_of(values: &[f64]) -> (f64, f64) {
    let (q1, _, q3) = quartiles(values);
    (q1, q3)
}

fn all_ops(blocks: &[&Block]) -> Vec<f64> {
    blocks
        .iter()
        .flat_map(|b| b.ops_ms.iter().copied())
        .collect()
}

/// The percentile of the op latencies the gated metrics read. Other
/// tenants of the host slow its memory in phases that last minutes: a
/// slow phase moves the median op of a whole run by up to a factor of
/// two, while the fastest tenth of the ops moves far less (README.md,
/// "Host noise"). It stays above the two fast mutants, 1 in 22 of the
/// mutation workload's ops.
const LATENCY_PERCENTILE: f64 = 10.0;

fn op_latency(blocks: &[&Block]) -> f64 {
    percentile(&all_ops(blocks), LATENCY_PERCENTILE)
}

/// Work per second at the gated latency: the mean work per op over
/// [`op_latency`]. Total work over total time would move with every
/// slow phase of the host.
fn rate(blocks: &[&Block], work: fn(&Block) -> &Vec<f64>) -> f64 {
    let per_op: Vec<f64> = blocks
        .iter()
        .flat_map(|b| work(b).iter().copied())
        .collect();
    let mean = per_op.iter().sum::<f64>() / per_op.len() as f64;
    mean / op_latency(blocks) * 1e3
}

/// The end-to-end point values of a set of blocks, in `END_TO_END`
/// order.
fn e2e_point(blocks: &[&Block]) -> [f64; 5] {
    [
        median(&blocks.iter().map(|b| b.setup_s).collect::<Vec<_>>()),
        op_latency(blocks),
        rate(blocks, |b| &b.instructions),
        rate(blocks, |b| &b.curated),
        median(&blocks.iter().map(|b| b.peak_rss_mb).collect::<Vec<_>>()),
    ]
}

fn e2e_values(blocks: &[&Block]) -> Vec<Value> {
    let point = e2e_point(blocks);
    let per_block: Vec<[f64; 5]> = blocks.iter().map(|b| e2e_point(&[b])).collect();
    END_TO_END
        .iter()
        .enumerate()
        .map(|(i, m)| {
            if m.name == "op_ms_p10" {
                let ops = all_ops(blocks);
                return Value::new(m, point[i], ops.len(), "ops", spread_of(&ops));
            }
            let across: Vec<f64> = per_block.iter().map(|p| p[i]).collect();
            Value::new(m, point[i], blocks.len(), "blocks", spread_of(&across))
        })
        .collect()
}

fn sum_named(blocks: &[&Block], pick: fn(&Block) -> &Vec<(String, f64)>, name: &str) -> f64 {
    blocks
        .iter()
        .flat_map(|b| pick(b).iter())
        .filter(|(k, _)| k == name)
        .map(|(_, v)| v)
        .sum()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn layer_values(blocks: &[&Block]) -> Vec<Value> {
    let prefix_ops: f64 = blocks.iter().map(|b| b.prefix_ops).sum();
    let c = |name: &str| sum_named(blocks, |b| &b.counters, name);
    let per_op = |x: f64| ratio(x, prefix_ops);
    PER_LAYER
        .iter()
        .map(|m| {
            let samples: Vec<f64> = blocks
                .iter()
                .flat_map(|b| b.layer.iter())
                .filter(|(k, _)| k == m.name)
                .flat_map(|(_, v)| v.clone())
                .collect();
            if !samples.is_empty() {
                return Value::new(
                    m,
                    median(&samples),
                    samples.len(),
                    "samples",
                    spread_of(&samples),
                );
            }
            let counted =
                |value: f64| Value::new(m, value, prefix_ops as usize, "ops", (f64::NAN, f64::NAN));
            match m.name {
                "concolic.paths" => counted(per_op(c("paths"))),
                "concolic.cache_hit_rate" => {
                    counted(ratio(c("cache_hits"), c("cache_hits") + c("cache_misses")))
                }
                "concolic.family_hits" => counted(per_op(c("family_hits"))),
                "solver.solves" => counted(per_op(c("solves"))),
                "solver.nodes_visited" => counted(per_op(c("nodes_visited"))),
                "heap.restores" => counted(per_op(c("restores"))),
                "heap.dirty_words_per_restore" => counted(ratio(c("dirty_words"), c("restores"))),
                "jit.compiles" => counted(per_op(c("compile_misses"))),
                "jit.code_cache_hit_rate" => counted(ratio(
                    c("compile_hits"),
                    c("compile_hits") + c("compile_misses"),
                )),
                "core.corpus_hits" => counted(per_op(c("corpus_hits"))),
                "op_ms_p50" => {
                    let ops = all_ops(blocks);
                    Value::new(m, median(&ops), ops.len(), "ops", spread_of(&ops))
                }
                "op_ms_tail" => {
                    let ops = all_ops(blocks);
                    let t = tail(&ops);
                    let mut v = Value::new(m, t.value, t.n, "ops", (f64::NAN, f64::NAN));
                    v.note = format!("p{:.1}", t.percentile);
                    v
                }
                "host.mem_probe_ms" => {
                    let p: Vec<f64> = blocks
                        .iter()
                        .flat_map(|b| b.probes.iter().copied())
                        .collect();
                    Value::new(m, median(&p), p.len(), "samples", spread_of(&p))
                }
                "trace.overhead_pct" => {
                    let pick = |traced: bool| -> Vec<f64> {
                        blocks
                            .iter()
                            .flat_map(|b| b.ops_ms.iter().zip(&b.traced))
                            .filter(|(_, &t)| t == traced)
                            .map(|(&ms, _)| ms)
                            .collect()
                    };
                    let (on, off) = (pick(true), pick(false));
                    let mut v = Value::new(
                        m,
                        100.0 * (median(&on) / median(&off) - 1.0),
                        on.len() + off.len(),
                        "ops",
                        (f64::NAN, f64::NAN),
                    );
                    v.note = format!("{} traced against {} untraced ops", on.len(), off.len());
                    v
                }
                other => unreachable!("per-layer metric {other} has no source"),
            }
        })
        .collect()
}

/// Per traced op: the campaign's stage times, the self time of each
/// span, and both folded into one time per layer. A row span's self
/// time splits by the stages the campaign reported for it; whatever
/// they leave is the campaign loop's own, so the layers add up to the op.
fn trace_diagnostics(blocks: &[&Block]) -> Vec<Value> {
    let traced_ops = blocks
        .iter()
        .flat_map(|b| &b.traced)
        .filter(|&&t| t)
        .count() as f64;
    let traced_op_ms: f64 = blocks
        .iter()
        .flat_map(|b| b.ops_ms.iter().zip(&b.traced))
        .filter(|(_, &t)| t)
        .map(|(&ms, _)| ms)
        .sum();
    let stage = |name: &str| sum_named(blocks, |b| &b.stage_ms, name);
    let mut names: Vec<String> = blocks
        .iter()
        .flat_map(|b| b.self_ms.iter().map(|(k, _)| k.clone()))
        .collect();
    names.sort();
    names.dedup();
    let ms_value = |name: String, total: f64, note: String| Value {
        name,
        unit: "ms",
        value: ratio(total, traced_ops),
        n: traced_ops as usize,
        of: "ops",
        q1: f64::NAN,
        q3: f64::NAN,
        note,
    };
    let mut out = Vec::new();
    let stage_names: Vec<String> = blocks.first().map_or(Vec::new(), |b| {
        b.stage_ms.iter().map(|(k, _)| k.clone()).collect()
    });
    for name in &stage_names {
        out.push(ms_value(name.clone(), stage(name), "campaign stage".into()));
    }
    let mut layers: Vec<(String, f64)> = Vec::new();
    let mut add = |layer: &str, ms: f64| match layers.iter_mut().find(|(l, _)| l == layer) {
        Some((_, total)) => *total += ms,
        None => layers.push((layer.to_string(), ms)),
    };
    let mut rows_ms = 0.0;
    for name in names {
        let ms = sum_named(blocks, |b| &b.self_ms, &name);
        if ROW_SPANS.contains(&name.as_str()) {
            rows_ms += ms;
        } else {
            add(
                if name == "op" {
                    "perf"
                } else {
                    name.split('.').next().unwrap_or("perf")
                },
                ms,
            );
        }
        out.push(ms_value(
            format!("self.{name}_ms"),
            ms,
            "span self time".into(),
        ));
    }
    let explore = stage("concolic.explore_ms");
    let (walk, probe) = (
        stage("concolic.walk_run_ms"),
        stage("solver.probe_solve_ms"),
    );
    let staged: f64 = stage_names
        .iter()
        .filter(|n| !matches!(n.as_str(), "concolic.walk_run_ms" | "solver.probe_solve_ms"))
        .map(|n| stage(n))
        .sum();
    add("concolic", (explore - walk - probe).max(0.0));
    add("interp", walk);
    add("solver", probe);
    add("heap", stage("heap.materialize_ms"));
    add("jit", stage("jit.compile_ms") + stage("jit.hash_ms"));
    add("metajit", stage("metajit.meta_compile_ms"));
    add(
        "machine",
        stage("machine.decode_ms") + stage("machine.setup_ms") + stage("machine.simulate_ms"),
    );
    add(
        "difftest",
        stage("difftest.compare_ms") + stage("difftest.report_ms"),
    );
    add("core", stage("core.other_ms") + (rows_ms - staged).max(0.0));
    let attributed: f64 = layers.iter().map(|(_, ms)| ms).sum();
    for (layer, ms) in layers {
        out.push(ms_value(
            format!("layer.{layer}_ms"),
            ms,
            "attributed self time".into(),
        ));
    }
    out.push(Value {
        name: "trace.attributed_pct".into(),
        unit: "%",
        value: 100.0 * ratio(attributed, traced_op_ms),
        n: traced_ops as usize,
        of: "ops",
        q1: f64::NAN,
        q3: f64::NAN,
        note: "layer self times over the op latency".into(),
    });
    // Stages and layers a workload never reaches read zero; leave them out.
    out.retain(|v| v.value != 0.0);
    out
}

fn print_values(values: &[Value]) {
    for v in values {
        let q = if v.q1.is_nan() {
            String::from("-")
        } else {
            format!("{:.6} .. {:.6}", v.q1, v.q3)
        };
        println!(
            "  {:<34} {:>14.6} {:<6} n={:<7} {:<8} q1..q3 {:<28} {}",
            v.name, v.value, v.unit, v.n, v.of, q, v.note
        );
    }
}

/// A short revision and host tag for result lines: git when the
/// checkout is a repository, `unknown` otherwise.
fn provenance() -> (String, String) {
    let rev = Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|m| m.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown cpu".into());
    (rev, format!("nproc={nproc}; {cpu}"))
}

fn result_line(head: &str, workload: &str, block: Option<usize>, v: &Value) -> String {
    format!(
        "{{{head},\"workload\":{},\"block\":{},\"metric\":{},\"unit\":{},\"value\":{},\"n\":{},\"of\":{},\"q1\":{},\"q3\":{},\"note\":{}}}\n",
        json::quote(workload),
        block.map_or("null".into(), |b| b.to_string()),
        json::quote(&v.name),
        json::quote(v.unit),
        json::num(v.value),
        v.n,
        json::quote(v.of),
        json::num(v.q1),
        json::num(v.q3),
        json::quote(&v.note),
    )
}

/// Runs every block of the selected workloads, one worker at a time.
fn run_blocks(args: &RunArgs) -> Result<Vec<Vec<Block>>, String> {
    let rounds = if args.quick { 1 } else { BLOCKS };
    let slice = if args.quick {
        Duration::ZERO
    } else {
        Duration::from_secs_f64(args.seconds / rounds as f64)
    };
    if args.trace {
        std::fs::create_dir_all(WORK_DIR)
            .and_then(|()| std::fs::write(trace_path(), ""))
            .map_err(|e| format!("{}: {e}", trace_path().display()))?;
    }
    let mut blocks: Vec<Vec<Block>> = args.workloads.iter().map(|_| Vec::new()).collect();
    // Round-robin over the workloads in a seeded order per round, so a
    // slow host phase hits every workload instead of one.
    for round in 0..rounds {
        let mut order: Vec<usize> = (0..args.workloads.len()).collect();
        Rng::new(&[args.seed, u64::MAX, round as u64]).shuffle(&mut order);
        for i in order {
            blocks[i].push(spawn_worker(args, args.workloads[i], round, slice)?);
        }
    }
    let _ = std::fs::remove_dir(WORK_DIR);
    Ok(blocks)
}

/// Runs every block and prints the metrics; returns the exit status.
pub fn run(args: &RunArgs) -> i32 {
    let blocks = match run_blocks(args) {
        Ok(blocks) => blocks,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let run_id = format!(
        "{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis())
    );
    let head = args.out.as_ref().map(|_| {
        let (rev, host) = provenance();
        format!(
            "\"rev\":{},\"host\":{},\"seed\":{},\"run\":{},\"trace\":{}",
            json::quote(&rev),
            json::quote(&host),
            args.seed,
            json::quote(&run_id),
            args.trace
        )
    });
    let mut lines = String::new();
    let mut metrics = Vec::new();
    let (mut attempted, mut failed) = (0usize, 0usize);
    for (&w, wblocks) in args.workloads.iter().zip(&blocks) {
        let name = WORKLOADS[w].name;
        let refs: Vec<&Block> = wblocks.iter().collect();
        let w_attempted: usize = refs.iter().map(|b| b.attempted).sum();
        let w_failed: usize = refs.iter().map(|b| b.failed).sum();
        attempted += w_attempted;
        failed += w_failed;
        for e in refs.iter().flat_map(|b| &b.errors) {
            eprintln!("{name}: check failed: {e}");
        }
        println!(
            "{name}: {} block(s), {} ops, {w_failed} failed, seed {}{}",
            refs.len(),
            refs.iter().map(|b| b.ops_ms.len()).sum::<usize>(),
            args.seed,
            if args.trace { ", traced" } else { "" }
        );
        let values = if args.trace {
            layer_values(&refs)
        } else {
            e2e_values(&refs)
        };
        print_values(&values);
        let diagnostics = if args.trace {
            trace_diagnostics(&refs)
        } else {
            Vec::new()
        };
        if !diagnostics.is_empty() {
            println!("  per traced op:");
            print_values(&diagnostics);
        }
        if let Some(head) = &head {
            for v in values.iter().chain(&diagnostics) {
                lines.push_str(&result_line(head, name, None, v));
            }
            if !args.trace {
                for (b, block) in refs.iter().enumerate() {
                    for v in e2e_values(&[block]) {
                        lines.push_str(&result_line(head, name, Some(b), &v));
                    }
                }
            }
        }
        let prefix = if args.workloads.len() > 1 {
            format!("{name}/")
        } else {
            String::new()
        };
        for v in values {
            metrics.push(format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json::quote(&format!("{prefix}{}", v.name)),
                json::num(v.value),
                json::quote(v.unit)
            ));
        }
    }
    if args.trace {
        eprintln!("spans: {}", trace_path().display());
    }
    if let Some(path) = &args.out {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(lines.as_bytes()));
        if let Err(e) = appended {
            eprintln!("error: {}: {e}", path.display());
            return 1;
        }
    }
    let correct = failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    );
    i32::from(!correct)
}
