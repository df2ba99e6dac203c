//! What the benchmark measures: its workloads and metrics, the single
//! source of truth. `perf describe` renders `BENCHMARK.json` from these
//! tables, and a test fails when the committed file drifts from them.

use crate::json;

/// Measured seconds per workload and run, split evenly over [`BLOCKS`].
pub const RUN_SECONDS: u64 = 25;

/// Worker processes per workload and run. Each block is one fresh
/// process, so every run sets up several times and a slow host phase
/// lands on a block, not on a whole workload.
pub const BLOCKS: usize = 4;

/// The command `BENCHMARK.json` names; a benchmark runner appends
/// `--workload W --seed N --seconds S --trace 0|1`.
pub const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "perf/Cargo.toml",
    "--",
    "run",
];

/// The directories holding the benchmark.
pub const PATHS: [&str; 1] = ["perf"];

/// One workload: a closed loop with one client, where the next op
/// starts when the previous one finishes.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Untimed ops each block runs first, so lazy statics and the
    /// allocator have settled before timing starts; they count towards
    /// `setup_s`.
    pub warmup_ops: usize,
    /// Ops every block runs however short its time slice; the per-op
    /// counters are taken over exactly these ops, so they repeat
    /// exactly for a given seed.
    pub min_ops: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sweep_cold",
        why: "The headline Table 2 sweep (704 instructions, five rows, two ISAs) on cold caches, \
              so every pipeline layer does real work.",
        warmup_ops: 1,
        min_ops: 2,
    },
    Workload {
        name: "sweep_warm",
        why: "A re-check after no compiler change: the sweep replays from a warm corpus file, \
              so the corpus codec dominates and explore, jit and machine idle.",
        warmup_ops: 1,
        min_ops: 4,
    },
    Workload {
        name: "mutation",
        why: "One armed mutant per op swept on a shared exploration cache: jit, machine and \
              difftest work while exploration is paid once in setup.",
        warmup_ops: 1,
        min_ops: 4,
    },
    Workload {
        name: "seq_fuzz",
        why: "Batches of 64 random 2-3 instruction sequences: every cache, the heap arena and \
              the corpus are bypassed and each run allocates afresh.",
        warmup_ops: 4,
        min_ops: 8,
    },
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression; `None` for the
    /// per-layer diagnostics, which are not gated.
    pub bound: Option<f64>,
    /// Which end-to-end metric on which workload this one should move.
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        moves: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        moves,
    }
}

use Better::{Higher, Lower};

/// Reported by every untraced run, for every workload.
pub const END_TO_END: [Metric; 5] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("op_ms_p10", "ms", Lower, 0.25),
    e2e("instr_per_s", "1/s", Higher, 0.25),
    e2e("curated_paths_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.1),
];

/// Reported by every traced run, for every workload. The times come
/// from the layer pass (the same seeded calls on every workload); the
/// counts are per-op means over each block's first `min_ops` ops.
#[rustfmt::skip]
pub const PER_LAYER: [Metric; 32] = [
    layer("core.campaign_new_ms",         "ms",    Lower,  "op_ms_p10 on sweep_warm"),
    layer("core.save_corpus_ms",          "ms",    Lower,  "op_ms_p10 on sweep_warm"),
    layer("core.row_native_ms",           "ms",    Lower,  "instr_per_s on sweep_cold and mutation"),
    layer("core.row_tier1_ms",            "ms",    Lower,  "instr_per_s on sweep_cold and mutation"),
    layer("core.row_tier2_ms",            "ms",    Lower,  "instr_per_s on sweep_cold and mutation"),
    layer("core.row_tier3_ms",            "ms",    Lower,  "instr_per_s on sweep_cold and mutation"),
    layer("core.row_meta_ms",             "ms",    Lower,  "instr_per_s on sweep_cold and mutation"),
    layer("corpus.load_ms",               "ms",    Lower,  "op_ms_p10 on sweep_warm only"),
    layer("corpus.save_ms",               "ms",    Lower,  "op_ms_p10 on sweep_warm only"),
    layer("corpus.file_mb",               "MB",    Lower,  "op_ms_p10 on sweep_warm only"),
    layer("concolic.explore_us",          "us",    Lower,  "op_ms_p10 on sweep_cold"),
    layer("concolic.explore_sequence_us", "us",    Lower,  "op_ms_p10 on seq_fuzz"),
    layer("solver.probe_models_us",       "us",    Lower,  "op_ms_p10 on sweep_cold"),
    layer("difftest.run_oracle_us",       "us",    Lower,  "op_ms_p10 on sweep_cold and mutation"),
    layer("difftest.run_compiled_us",     "us",    Lower,  "op_ms_p10 on seq_fuzz and mutation"),
    layer("difftest.compare_runs_us",     "us",    Lower,  "op_ms_p10 on all but sweep_warm"),
    layer("heap.seal_ns",                 "ns",    Lower,  "op_ms_p10 on sweep_cold and mutation"),
    layer("heap.restore_ns",              "ns",    Lower,  "op_ms_p10 on sweep_cold and mutation"),
    layer("concolic.paths",               "count", Higher, "nothing: pinned by the Table 2 rows"),
    layer("concolic.cache_hit_rate",      "ratio", Higher, "op_ms_p10 on sweep_cold"),
    layer("concolic.family_hits",         "count", Higher, "op_ms_p10 on sweep_cold"),
    layer("solver.solves",                "count", Lower,  "op_ms_p10 on sweep_cold"),
    layer("solver.nodes_visited",         "count", Lower,  "op_ms_p10 on sweep_cold"),
    layer("heap.restores",                "count", Lower,  "op_ms_p10 on sweep_cold and mutation"),
    layer("heap.dirty_words_per_restore", "words", Lower,  "op_ms_p10 on sweep_cold and mutation"),
    layer("jit.compiles",                 "count", Lower,  "op_ms_p10 on mutation, then sweep_cold"),
    layer("jit.code_cache_hit_rate",      "ratio", Higher, "op_ms_p10 on mutation, then sweep_cold"),
    layer("core.corpus_hits",             "count", Higher, "op_ms_p10 on sweep_warm"),
    layer("op_ms_p50",                    "ms",    Lower,  "nothing: too noisy on a shared host to gate"),
    layer("op_ms_tail",                   "ms",    Lower,  "nothing: too noisy on a shared host to gate"),
    layer("host.mem_probe_ms",            "ms",    Lower,  "nothing: marks slow host phases"),
    layer("trace.overhead_pct",           "%",     Lower,  "nothing: traced against untraced ops"),
];

pub fn workload(name: &str) -> Option<(usize, &'static Workload)> {
    WORKLOADS.iter().enumerate().find(|(_, w)| w.name == name)
}

fn metric_lines(metrics: &[Metric], with_bound: bool) -> String {
    let lines: Vec<String> = metrics
        .iter()
        .map(|m| {
            let bound = match (with_bound, m.bound) {
                (true, Some(b)) => format!(", \"bound\": {b}"),
                _ => String::new(),
            };
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
                json::quote(m.name),
                json::quote(m.unit),
                json::quote(m.better.name()),
            )
        })
        .collect();
    lines.join(",\n")
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let quoted = |items: &[&str]| {
        items
            .iter()
            .map(|s| json::quote(s))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json::quote(w.name),
                json::quote(w.why)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted(&COMMAND),
        quoted(&PATHS),
        RUN_SECONDS,
        workloads.join(",\n"),
        metric_lines(&END_TO_END, true),
        metric_lines(&PER_LAYER, false),
    )
}

/// A human table of every metric with what it should move.
pub fn describe_table() -> String {
    let mut out = String::from("workloads:\n");
    for w in &WORKLOADS {
        out.push_str(&format!("  {:<11} {}\n", w.name, w.why));
    }
    out.push_str("\nend-to-end metrics (untraced runs, every workload):\n");
    for m in &END_TO_END {
        out.push_str(&format!(
            "  {:<22} {:<6} {:<6} bound {:.0}%\n",
            m.name,
            m.unit,
            m.better.name(),
            100.0 * m.bound.unwrap_or(0.0)
        ));
    }
    out.push_str("\nper-layer metrics (traced runs, every workload):\n");
    for m in &PER_LAYER {
        out.push_str(&format!(
            "  {:<30} {:<6} {:<6} moves {}\n",
            m.name,
            m.unit,
            m.better.name(),
            m.moves
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_matches_the_tables() {
        let committed =
            json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let rendered = json::parse(&benchmark_json()).expect("rendered document parses");
        assert_eq!(
            committed, rendered,
            "BENCHMARK.json drifted from perf/src/spec.rs; regenerate it with `perf describe`"
        );
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        for n in names {
            assert!(
                n.len() <= 64 && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()),
                "{n}"
            );
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter() {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is gated");
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }
}
