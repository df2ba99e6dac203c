//! One block: a fresh process that sets a workload up, runs its ops
//! back to back for a time slice and reports on one stdout line.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use igjit::{FaultInjector, MutantId, StageTimes};

use crate::json;
use crate::layers::layer_pass;
use crate::rng::Rng;
use crate::spec::{Workload as Spec, WORKLOADS};
use crate::trace::{self_times, Tracer};
use crate::workload::{Counters, Key, Workload, COUNTERS};

/// Where workers keep their files, relative to the working directory.
pub const WORK_DIR: &str = ".perf_work";

/// The traced run's spans, appended to by every worker of the run.
pub fn trace_path() -> PathBuf {
    Path::new(WORK_DIR).join("trace.jsonl")
}

pub struct WorkerArgs {
    pub key: Key,
    pub slice: Duration,
    pub trace: bool,
    pub quick: bool,
    pub inject: Option<MutantId>,
}

/// A pointer chase over 8 MiB, timed between ops of a traced run. It
/// does the same work every time, so its time moves only with the
/// host's memory system: it marks the slow phases other tenants cause.
struct MemProbe {
    next: Vec<u32>,
}

impl MemProbe {
    const WORDS: usize = 1 << 21;
    const STEPS: usize = 50_000;

    fn new(mut rng: Rng) -> MemProbe {
        // Sattolo's shuffle leaves one cycle through every word.
        let mut next: Vec<u32> = (0..Self::WORDS as u32).collect();
        for i in (1..next.len()).rev() {
            let j = rng.below(i);
            next.swap(i, j);
        }
        MemProbe { next }
    }

    fn run_ms(&self) -> f64 {
        let t = Instant::now();
        let mut at = 0u32;
        for _ in 0..Self::STEPS {
            at = self.next[at as usize];
        }
        black_box(at);
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".into())
}

/// Stage times of traced ops, by the name of the layer metric each
/// feeds.
fn stage_entries(s: &StageTimes) -> [(&'static str, Duration); 13] {
    [
        ("concolic.explore_ms", s.explore),
        ("concolic.walk_run_ms", s.walk_run),
        ("solver.probe_solve_ms", s.probe_solve),
        ("heap.materialize_ms", s.materialize),
        ("jit.compile_ms", s.compile),
        ("jit.hash_ms", s.hash),
        ("metajit.meta_compile_ms", s.meta_compile),
        ("machine.decode_ms", s.decode),
        ("machine.setup_ms", s.setup),
        ("machine.simulate_ms", s.simulate),
        ("difftest.compare_ms", s.compare),
        ("difftest.report_ms", s.report),
        ("core.other_ms", s.other + s.progress),
    ]
}

fn object(entries: impl IntoIterator<Item = (String, String)>) -> String {
    let fields: Vec<String> = entries
        .into_iter()
        .map(|(k, v)| format!("{}:{v}", json::quote(&k)))
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// Runs one block and returns its report line.
pub fn run(args: &WorkerArgs, started: Instant) -> Result<String, String> {
    let spec = &WORKLOADS[args.key.workload];
    let dir = Path::new(WORK_DIR).join(format!("w{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let result = measure(args, spec, &dir, started);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn measure(args: &WorkerArgs, spec: &Spec, dir: &Path, started: Instant) -> Result<String, String> {
    let min_ops = spec.min_ops;
    let key = args.key;
    let _injected = args.inject.map(FaultInjector::arm).transpose()?;
    let workload = Workload::set_up(key.workload, dir)?;
    let probe = args.trace.then(|| MemProbe::new(key.rng(u64::MAX)));
    let mut tr = Tracer::new(key.block);

    let mut attempted = 0usize;
    let mut errors: Vec<String> = Vec::new();
    let mut run_op = |op: usize, traced: bool, tr: &mut Tracer| {
        tr.start_op(op, traced);
        let first_span = tr.len();
        let t = Instant::now();
        let root = tr.open("op");
        let output = catch_unwind(AssertUnwindSafe(|| workload.run(&key, op, tr)));
        tr.close(root);
        tr.close_all();
        let op_ms = t.elapsed().as_secs_f64() * 1e3;
        attempted += 1;
        let checked = match output {
            Ok(Ok(out)) => workload.check(&out),
            Ok(Err(e)) => Err(e),
            Err(payload) => Err(format!("panicked: {}", panic_message(payload.as_ref()))),
        };
        if let Err(e) = &checked {
            errors.push(format!("op {op}: {e}"));
        }
        (op_ms, first_span, checked.ok())
    };

    // Warm-up ops are checked but not timed. They draw their inputs
    // from the ops that follow, so they add no inputs of their own.
    for op in 0..spec.warmup_ops {
        run_op(op, false, &mut tr);
    }
    let setup_s = started.elapsed().as_secs_f64();

    let mut ops_ms = Vec::new();
    let mut traced_flags = Vec::new();
    // Work per op, zero for a failed op.
    let (mut instructions, mut curated) = (Vec::new(), Vec::new());
    let mut prefix: Counters = Default::default();
    let mut prefix_ops = 0usize;
    let mut stages = StageTimes::default();
    let mut self_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut probes = Vec::new();
    let mut last_probe = Instant::now();
    let measuring = Instant::now();
    let mut op = 0;
    while op < min_ops || measuring.elapsed() < args.slice {
        // Every other op of a traced run records spans; the rest show
        // what recording costs.
        let traced = args.trace && op % 2 == 0;
        let (op_ms, first_span, checked) = run_op(op, traced, &mut tr);
        ops_ms.push(op_ms);
        traced_flags.push(traced);
        instructions.push(checked.as_ref().map_or(0.0, |c| c.instructions as f64));
        curated.push(checked.as_ref().map_or(0.0, |c| c.curated as f64));
        if let Some(c) = checked {
            if op < min_ops {
                for (sum, n) in prefix.iter_mut().zip(c.counters) {
                    *sum += n;
                }
                prefix_ops += 1;
            }
            if traced {
                stages.merge(&c.stages);
                for (name, ns) in self_times(&tr.spans()[first_span..]) {
                    *self_ns.entry(name).or_insert(0) += ns;
                }
            }
        }
        if let Some(p) = &probe {
            if last_probe.elapsed() >= Duration::from_millis(200) {
                probes.push(p.run_ms());
                last_probe = Instant::now();
            }
        }
        op += 1;
    }
    if let (Some(p), true) = (&probe, probes.is_empty()) {
        probes.push(p.run_ms());
    }
    let failed = errors.len();

    let layer = if args.trace {
        let samples = catch_unwind(AssertUnwindSafe(|| {
            layer_pass(key.rng(u64::MAX - 1), dir, args.quick)
        }))
        .map_err(|p| format!("layer pass panicked: {}", panic_message(p.as_ref())))??;
        let mut out = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(trace_path())
            .map_err(|e| format!("{}: {e}", trace_path().display()))?;
        tr.write(&mut out, WORKLOADS[key.workload].name, key.block)
            .map_err(|e| format!("{}: {e}", trace_path().display()))?;
        samples
    } else {
        BTreeMap::new()
    };

    let fields = [
        ("block", key.block.to_string()),
        ("setup_s", json::num(setup_s)),
        ("peak_rss_mb", json::num(peak_rss_mb())),
        ("attempted", attempted.to_string()),
        ("failed", failed.to_string()),
        (
            "errors",
            format!(
                "[{}]",
                errors
                    .iter()
                    .take(5)
                    .map(|e| json::quote(e))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ),
        ("ops_ms", json::num_list(&ops_ms)),
        (
            "traced",
            json::num_list(
                &traced_flags
                    .iter()
                    .map(|&t| f64::from(u8::from(t)))
                    .collect::<Vec<_>>(),
            ),
        ),
        ("instructions", json::num_list(&instructions)),
        ("curated", json::num_list(&curated)),
        ("prefix_ops", prefix_ops.to_string()),
        (
            "counters",
            object(
                COUNTERS
                    .iter()
                    .zip(prefix)
                    .map(|(k, v)| (k.to_string(), json::num(v))),
            ),
        ),
        (
            "self_ms",
            object(
                self_ns
                    .iter()
                    .map(|(k, &ns)| (k.to_string(), json::num(ns as f64 / 1e6))),
            ),
        ),
        (
            "stage_ms",
            object(
                stage_entries(&stages)
                    .map(|(k, d)| (k.to_string(), json::num(d.as_secs_f64() * 1e3))),
            ),
        ),
        (
            "layer",
            object(
                layer
                    .iter()
                    .map(|(k, v)| (k.to_string(), json::num_list(v))),
            ),
        ),
        ("mem_probe_ms", json::num_list(&probes)),
    ];
    Ok(object(fields.into_iter().map(|(k, v)| (k.to_string(), v))))
}
