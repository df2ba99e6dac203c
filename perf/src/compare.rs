//! `perf compare A B`: the parent's result lines against the change's,
//! metric by metric and workload by workload.

use std::path::Path;

use crate::json::{self, Json};
use crate::spec::{Metric, END_TO_END, PER_LAYER};
use crate::stats::{pairs, quartiles, verdict, Verdict};

type Series = Vec<((String, String), Vec<f64>)>;

/// Every run's whole-run value per (workload, metric), in file order.
fn load(path: &Path) -> Result<Series, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut series: Series = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), n + 1))?;
        if v.get("block") != Some(&Json::Null) {
            continue;
        }
        let field = |k: &str| v.get(k).and_then(Json::as_str).map(str::to_string);
        let (Some(workload), Some(metric)) = (field("workload"), field("metric")) else {
            return Err(format!(
                "{}:{}: missing workload or metric",
                path.display(),
                n + 1
            ));
        };
        let Some(value) = v.get("value").and_then(Json::as_f64) else {
            continue;
        };
        let key = (workload, metric);
        match series.iter_mut().find(|(k, _)| *k == key) {
            Some((_, values)) => values.push(value),
            None => series.push((key, vec![value])),
        }
    }
    Ok(series)
}

fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// Prints one JSON line per metric and workload present in both files;
/// returns 1 when a gated metric regressed.
pub fn compare(parent_path: &Path, change_path: &Path) -> i32 {
    let (parent, change) = match (load(parent_path), load(change_path)) {
        (Ok(p), Ok(c)) => (p, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let mut tally = [0usize; 4];
    let mut gated_regression = false;
    for ((workload, name), a) in &parent {
        let Some(m) = metric(name) else { continue };
        let Some((_, b)) = change
            .iter()
            .find(|(k, _)| k.0 == *workload && k.1 == *name)
        else {
            eprintln!("{workload}/{name}: missing from {}", change_path.display());
            continue;
        };
        let v = verdict(a, b, m.better, m.bound);
        let p = pairs(a, b, m.better);
        tally[v as usize] += 1;
        gated_regression |= v == Verdict::Regressed && m.bound.is_some();
        let (a1, am, a3) = quartiles(a);
        let (b1, bm, b3) = quartiles(b);
        println!(
            "{{\"workload\":{},\"metric\":{},\"unit\":{},\"better\":{},\"bound\":{},\
             \"parent\":{{\"n\":{},\"median\":{},\"q1\":{},\"q3\":{}}},\
             \"change\":{{\"n\":{},\"median\":{},\"q1\":{},\"q3\":{}}},\
             \"pairs\":{},\"won\":{},\"lost\":{},\"verdict\":{}}}",
            json::quote(workload),
            json::quote(name),
            json::quote(m.unit),
            json::quote(m.better.name()),
            m.bound.map_or("null".into(), json::num),
            a.len(),
            json::num(am),
            json::num(a1),
            json::num(a3),
            b.len(),
            json::num(bm),
            json::num(b1),
            json::num(b3),
            p.n,
            p.won,
            p.lost,
            json::quote(v.name()),
        );
    }
    eprintln!(
        "{} improved, {} unchanged, {} unresolved, {} regressed",
        tally[Verdict::Improved as usize],
        tally[Verdict::Unchanged as usize],
        tally[Verdict::Unresolved as usize],
        tally[Verdict::Regressed as usize],
    );
    i32::from(gated_regression)
}
