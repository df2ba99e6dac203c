//! End to end through the built binary, on the smallest op counts
//! (`--quick`): every named metric comes out for every workload, the
//! checks pass on the pristine program and fail under an injected
//! fault, counts repeat for a seed, and `compare` applies its bounds.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Json;

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

fn perf(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("perf starts")
}

fn benchmark() -> Json {
    json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

fn names(section: &str) -> Vec<(String, String)> {
    benchmark()
        .get(section)
        .and_then(Json::as_array)
        .expect("section present")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// The JSON object on the last stdout line.
fn result(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    json::parse(stdout.lines().last().expect("a result line")).expect("the result line is JSON")
}

fn assert_every_metric(res: &Json, section: &str) {
    let metrics = res.get("metrics").expect("metrics");
    for (w, _) in names("workloads") {
        for (m, unit) in names(section) {
            let v = metrics
                .get(&format!("{w}/{m}"))
                .unwrap_or_else(|| panic!("{w}/{m} missing"));
            assert_eq!(
                v.get("unit").and_then(Json::as_str),
                Some(unit.as_str()),
                "{w}/{m}"
            );
            assert!(
                v.get("value")
                    .and_then(Json::as_f64)
                    .is_some_and(f64::is_finite),
                "{w}/{m}"
            );
        }
    }
}

#[test]
fn quick_run_reports_every_end_to_end_metric_and_passes_its_checks() {
    let dir = scratch("quick");
    let out = perf(
        &dir,
        &["run", "--quick", "--seed", "3", "--out", "results.jsonl"],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let res = result(&out);
    assert_eq!(res.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(res.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(res
        .get("attempted")
        .and_then(Json::as_f64)
        .is_some_and(|n| n >= 4.0));
    assert_every_metric(&res, "end_to_end");
    let lines = std::fs::read_to_string(dir.join("results.jsonl")).expect("results written");
    let first = json::parse(lines.lines().next().expect("a result line")).expect("JSON line");
    for key in [
        "rev", "host", "seed", "run", "workload", "block", "metric", "unit", "value", "n",
    ] {
        assert!(first.get(key).is_some(), "result lines carry {key}");
    }
}

#[test]
fn traced_run_reports_every_per_layer_metric_and_counts_repeat() {
    let counts = |dir: &Path| {
        let out = perf(dir, &["run", "--quick", "--trace", "--seed", "5"]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let res = result(&out);
        assert_eq!(res.get("correct"), Some(&Json::Bool(true)));
        assert_every_metric(&res, "per_layer");
        let metrics = res
            .get("metrics")
            .and_then(Json::as_object)
            .expect("metrics")
            .to_vec();
        metrics
            .into_iter()
            .filter(|(_, v)| {
                matches!(
                    v.get("unit").and_then(Json::as_str),
                    Some("count" | "ratio" | "words")
                )
            })
            .collect::<Vec<_>>()
    };
    let dir = scratch("traced");
    let first = counts(&dir);
    let spans = std::fs::read_to_string(dir.join(".perf_work/trace.jsonl")).expect("spans written");
    let span = json::parse(spans.lines().next().expect("a span")).expect("span is JSON");
    for key in [
        "id", "parent", "name", "workload", "op", "start_ns", "end_ns",
    ] {
        assert!(span.get(key).is_some(), "spans carry {key}");
    }
    assert!(!first.is_empty());
    assert_eq!(
        first,
        counts(&dir),
        "counts differ between two runs of one seed"
    );
}

#[test]
fn a_failed_check_exits_non_zero() {
    // Mutant 106 flips compiled comparisons, which changes Table 2.
    let dir = scratch("fault");
    let out = perf(
        &dir,
        &[
            "run",
            "--quick",
            "--workload",
            "sweep_cold",
            "--inject-mutant",
            "106",
        ],
    );
    assert_eq!(
        out.status.code(),
        Some(1),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let res = result(&out);
    assert_eq!(res.get("correct"), Some(&Json::Bool(false)));
    assert!(res
        .get("failed")
        .and_then(Json::as_f64)
        .is_some_and(|n| n >= 1.0));
    assert!(String::from_utf8_lossy(&out.stderr).contains("check failed"));
}

#[test]
fn compare_applies_the_pairs_rule_and_the_bounds() {
    let dir = scratch("compare");
    let write = |name: &str, values: &[f64]| {
        let lines: String = values
            .iter()
            .enumerate()
            .map(|(i, v)| {
                format!(
                    "{{\"rev\":\"r\",\"host\":\"h\",\"seed\":{i},\"run\":\"{name}{i}\",\"workload\":\"sweep_cold\",\
                     \"block\":null,\"metric\":\"op_ms_p10\",\"unit\":\"ms\",\"value\":{v},\"n\":100}}\n"
                )
            })
            .collect();
        std::fs::write(dir.join(name), lines).expect("write results");
    };
    let parent = [80.0, 81.0, 79.5, 80.5, 80.2, 79.8];
    write("a.jsonl", &parent);
    write("same.jsonl", &[80.3, 79.6, 80.9, 80.1, 79.9, 80.4]);
    // op_ms_p10 may worsen by a quarter before it regresses.
    write("slow.jsonl", &parent.map(|v| v * 1.4));
    write("fast.jsonl", &parent.map(|v| v * 0.8));
    let verdict = |change: &str| {
        let out = perf(&dir, &["compare", "a.jsonl", change]);
        let line = json::parse(String::from_utf8_lossy(&out.stdout).trim()).expect("one JSON line");
        (
            out.status.code(),
            line.get("verdict")
                .and_then(Json::as_str)
                .map(str::to_string),
        )
    };
    assert_eq!(verdict("same.jsonl"), (Some(0), Some("unchanged".into())));
    assert_eq!(verdict("slow.jsonl"), (Some(1), Some("regressed".into())));
    assert_eq!(verdict("fast.jsonl"), (Some(0), Some("improved".into())));
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    let dir = scratch("usage");
    for args in [
        &["run", "--workload", "nosuch"][..],
        &["run", "--seed", "x"],
        &["frobnicate"],
        &[],
    ] {
        let out = perf(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
