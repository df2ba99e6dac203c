//! Textual rendering of the evaluation artefacts (Tables 1–3,
//! Figures 5–7).

use std::time::Duration;

use crate::campaign::{CampaignReport, TimingSample};
use igjit_difftest::{CampaignRow, DefectCategory};

/// Renders the Table 2 header.
pub fn table2_header() -> String {
    format!(
        "{:<34} {:>8} {:>8} {:>8} {:>16}",
        "Compiler", "#Instr", "#Paths", "#Curated", "#Differences (%)"
    )
}

/// Renders one Table 2 row.
pub fn table2_row(report: &CampaignReport) -> String {
    let r = &report.row;
    format!(
        "{:<34} {:>8} {:>8} {:>8} {:>10} ({:.2}%)",
        r.label,
        r.tested_instructions,
        r.interpreter_paths,
        r.curated_paths,
        r.differences,
        r.difference_percent()
    )
}

/// Sums the Table 2 columns of several reports into one `Total` row.
pub fn table2_total(reports: &[CampaignReport]) -> CampaignRow {
    let mut total = CampaignRow { label: "Total".into(), ..Default::default() };
    for r in reports {
        total.tested_instructions += r.row.tested_instructions;
        total.interpreter_paths += r.row.interpreter_paths;
        total.curated_paths += r.row.curated_paths;
        total.differences += r.row.differences;
    }
    total
}

/// Renders the four Table 2 columns of a row as a JSON object.
pub fn table2_json(row: &CampaignRow) -> String {
    format!(
        "{{\"tested_instructions\":{},\"interpreter_paths\":{},\"curated_paths\":{},\"differences\":{}}}",
        row.tested_instructions, row.interpreter_paths, row.curated_paths, row.differences
    )
}

/// Renders the Table 3 defect-family summary over several reports.
///
/// Causes are de-duplicated by (category, instruction family): a
/// static-type-prediction gap on `+` is one defect cause even when
/// three compiler tiers exhibit it, matching how the paper counts "a
/// defect only once regardless of how many execution paths it lead to
/// a failure".
pub fn table3(reports: &[CampaignReport]) -> String {
    let mut all_causes: Vec<_> = reports
        .iter()
        .flat_map(|r| r.causes())
        .map(|mut c| {
            c.compiler = std::borrow::Cow::Borrowed("");
            c
        })
        .collect();
    all_causes.sort();
    all_causes.dedup();
    let mut out = String::new();
    out.push_str(&format!("{:<34} {:>8}\n", "Family", "# Cases"));
    let mut total = 0;
    for cat in DefectCategory::ALL {
        let n = all_causes.iter().filter(|c| c.category == cat).count();
        total += n;
        out.push_str(&format!("{:<34} {:>8}\n", cat.name(), n));
    }
    out.push_str(&format!("{:<34} {:>8}\n", "Total", total));
    out
}

/// Summary statistics of a series of numbers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stats {
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub median: f64,
    /// Sum.
    pub total: f64,
}

/// Computes summary statistics; `None` for empty input.
pub fn stats(values: impl IntoIterator<Item = f64>) -> Option<Stats> {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let total: f64 = v.iter().sum();
    Some(Stats {
        min: v[0],
        max: *v.last().unwrap(),
        mean: total / v.len() as f64,
        median: v[v.len() / 2],
        total,
    })
}

/// Figure 5-style summary: paths-per-instruction distribution.
pub fn figure5_summary(samples: &[TimingSample]) -> String {
    let render = |label: &str, pick: bool| -> String {
        let s = stats(
            samples
                .iter()
                .filter(|t| t.is_native == pick)
                .map(|t| t.paths as f64),
        );
        match s {
            Some(s) => format!(
                "{label:<14} min {:>5.1}  median {:>5.1}  mean {:>5.1}  max {:>5.1}",
                s.min, s.median, s.mean, s.max
            ),
            None => format!("{label:<14} (no samples)"),
        }
    };
    format!("{}\n{}", render("Bytecode", false), render("Native Method", true))
}

/// Figure 6-style summary: exploration time per instruction kind.
pub fn figure6_summary(samples: &[TimingSample]) -> String {
    let render = |label: &str, pick: bool| -> String {
        let s = stats(
            samples
                .iter()
                .filter(|t| t.is_native == pick)
                .map(|t| t.elapsed.as_secs_f64() * 1000.0),
        );
        match s {
            Some(s) => format!(
                "{label:<14} min {:>8.2}ms  median {:>8.2}ms  mean {:>8.2}ms  max {:>8.2}ms  total {:>9.1}ms",
                s.min, s.median, s.mean, s.max, s.total
            ),
            None => format!("{label:<14} (no samples)"),
        }
    };
    format!("{}\n{}", render("Bytecode", false), render("Native Method", true))
}

/// An ASCII log-scale histogram for figure-style dot plots.
pub fn ascii_histogram(values: &[f64], buckets: usize, width: usize) -> String {
    if values.is_empty() || buckets == 0 {
        return String::new();
    }
    let logs: Vec<f64> = values.iter().map(|v| v.max(1e-3).log10()).collect();
    let (lo, hi) = logs
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &x| (l.min(x), h.max(x)));
    let span = (hi - lo).max(1e-9);
    let mut counts = vec![0usize; buckets];
    for l in &logs {
        let b = (((l - lo) / span) * (buckets as f64 - 1.0)).round() as usize;
        counts[b.min(buckets - 1)] += 1;
    }
    let max = counts.iter().copied().max().unwrap_or(1).max(1);
    let mut out = String::new();
    for (i, &c) in counts.iter().enumerate() {
        let from = 10f64.powf(lo + span * i as f64 / buckets as f64);
        let bar = "#".repeat(c * width / max);
        out.push_str(&format!("{from:>10.2} | {bar} {c}\n"));
    }
    out
}

/// Wall-clock a run spent on its corpus file outside the rows:
/// attaching it (`Campaign::new`) and writing it back
/// (`Campaign::save_corpus`). A warm re-check's end-to-end cost is the
/// rows plus these two.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CorpusIo {
    /// Time to construct the campaign on the corpus file.
    pub load: Duration,
    /// Time `save_corpus` took (zero when the run skips the save).
    pub save: Duration,
}

/// The `"corpus_load_ms":…,"corpus_save_ms":…` JSON fields of a run
/// (`null` when no corpus was attached).
fn corpus_io_fields(io: Option<CorpusIo>) -> String {
    let ms = |d: Duration| format!("{:.3}", d.as_secs_f64() * 1000.0);
    let (load, save) = match io {
        Some(io) => (ms(io.load), ms(io.save)),
        None => ("null".to_string(), "null".to_string()),
    };
    format!("\"corpus_load_ms\":{load},\"corpus_save_ms\":{save}")
}

/// Renders the observability data of a full campaign run as a JSON
/// document: the corpus I/O times, the Table 2 totals, the aggregate
/// metrics and one entry per Table 2 row (its label, its four Table 2
/// columns and its metrics). The harness binaries write
/// this next to their textual reports; it is the one record a run
/// leaves.
pub fn metrics_json(reports: &[CampaignReport], corpus_io: Option<CorpusIo>) -> String {
    let total = crate::campaign::aggregate_metrics(reports);
    let mut out = format!(
        "{{\n  {},\n  \"table2\":{},\n  \"total\":",
        corpus_io_fields(corpus_io),
        table2_json(&table2_total(reports))
    );
    out.push_str(&total.to_json());
    out.push_str(",\n  \"rows\":[");
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\"label\":");
        out.push_str(&json_string(&r.row.label));
        out.push_str(",\"table2\":");
        out.push_str(&table2_json(&r.row));
        out.push_str(",\"metrics\":");
        out.push_str(&r.metrics.to_json());
        out.push('}');
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Escapes a string as a JSON literal (the small subset our labels
/// need: quotes, backslashes and control characters).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_io_fields_are_null_without_a_corpus() {
        assert_eq!(corpus_io_fields(None), "\"corpus_load_ms\":null,\"corpus_save_ms\":null");
        let io = CorpusIo { load: Duration::from_micros(2500), save: Duration::from_millis(1) };
        assert_eq!(
            corpus_io_fields(Some(io)),
            "\"corpus_load_ms\":2.500,\"corpus_save_ms\":1.000"
        );
        let doc = metrics_json(&[], Some(io));
        assert!(doc.starts_with("{\n  \"corpus_load_ms\":2.500,"), "{doc}");
        assert!(
            doc.contains(
                "\"table2\":{\"tested_instructions\":0,\"interpreter_paths\":0,\
                 \"curated_paths\":0,\"differences\":0}"
            ),
            "{doc}"
        );
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    }

    #[test]
    fn every_row_entry_carries_its_table2_columns() {
        let row = CampaignRow {
            label: "Meta-Compiled (tier 5)".into(),
            tested_instructions: 148,
            interpreter_paths: 512,
            curated_paths: 511,
            ..Default::default()
        };
        let report = CampaignReport {
            row,
            outcomes: Vec::new(),
            timings: Vec::new(),
            metrics: Default::default(),
        };
        let doc = metrics_json(&[report], None);
        assert!(
            doc.contains(
                "{\"label\":\"Meta-Compiled (tier 5)\",\"table2\":{\"tested_instructions\":148,\
                 \"interpreter_paths\":512,\"curated_paths\":511,\"differences\":0},\"metrics\":"
            ),
            "{doc}"
        );
    }

    #[test]
    fn stats_basics() {
        let s = stats([1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.total, 10.0);
        assert!(stats(std::iter::empty()).is_none());
    }

    #[test]
    fn figure_summaries_render() {
        let sample = |label: &str, is_native: bool, ms: u64, paths: usize| TimingSample {
            label: label.into(),
            is_native,
            elapsed: Duration::from_millis(ms),
            paths,
            stages: Default::default(),
            cache_hit: false,
            corpus_hit: None,
        };
        let samples = vec![sample("Add", false, 3, 7), sample("primitiveAdd", true, 9, 5)];
        let f5 = figure5_summary(&samples);
        assert!(f5.contains("Bytecode"));
        assert!(f5.contains("Native Method"));
        let f6 = figure6_summary(&samples);
        assert!(f6.contains("ms"));
    }

    #[test]
    fn histogram_renders_buckets() {
        let h = ascii_histogram(&[1.0, 10.0, 100.0, 100.0], 4, 20);
        assert_eq!(h.lines().count(), 4);
        assert!(h.contains('#'));
    }
}
