//! Order statistics and the pairs rule that judges two sets of runs.

use crate::spec::Better;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle two for an even count); NaN when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile. The quartiles are those
/// of Python's `statistics.quantiles(values, n=4)` (the "exclusive"
/// method), so spreads read the same as in any script that checks them.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => return (f64::NAN, f64::NAN, f64::NAN),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), median(&v), q(3))
}

/// The `p`th percentile by nearest rank: the smallest sample with at
/// least `p`% of the samples at or below it; NaN when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    (q3 - q1) / med.abs()
}

/// A tail latency: the value, which percentile it is, and of how many
/// samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub n: usize,
}

/// The p99 when there are at least 1000 samples; otherwise the highest
/// percentile that leaves at least ten samples above it (nearest rank).
/// With ten samples or fewer nothing qualifies, and the maximum stands
/// in as the 100th percentile.
pub fn tail(values: &[f64]) -> Tail {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return Tail {
            value: f64::NAN,
            percentile: f64::NAN,
            n,
        };
    }
    let rank = if n >= 1000 {
        (n * 99).div_ceil(100)
    } else {
        n.saturating_sub(10).max(1)
    };
    let rank = if n <= 10 { n } else { rank };
    Tail {
        value: v[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        n,
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Unresolved,
    Regressed,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// Run `i` of the parent against run `i` of the change.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pairs {
    pub n: usize,
    /// Pairs the change reads better in; ties count for neither side.
    pub won: usize,
    pub lost: usize,
}

pub fn pairs(parent: &[f64], change: &[f64], better: Better) -> Pairs {
    let mut p = Pairs {
        n: 0,
        won: 0,
        lost: 0,
    };
    for (&a, &b) in parent.iter().zip(change) {
        p.n += 1;
        if is_better(b, a, better) {
            p.won += 1;
        } else if is_better(a, b, better) {
            p.lost += 1;
        }
    }
    p
}

fn is_better(x: f64, than: f64, better: Better) -> bool {
    match better {
        Better::Lower => x < than,
        Better::Higher => x > than,
    }
}

/// The pairs rule: the change wins at
/// least nine tenths of the pairs and the medians differ by more than
/// the parent's own interquartile distance.
fn wins(parent: &[f64], change: &[f64], better: Better) -> bool {
    let p = pairs(parent, change, better);
    let (q1, med_a, q3) = quartiles(parent);
    let med_b = median(change);
    p.n > 0
        && 10 * p.won >= 9 * p.n
        && is_better(med_b, med_a, better)
        && (med_b - med_a).abs() > q3 - q1
}

/// Judges a change against its parent. A gated metric (with a bound)
/// regresses when its median worsens by more than the bound; when
/// either side's spread exceeds the bound the comparison is unresolved
/// instead, unless every run of the change reads better than every run
/// of the parent. An ungated metric regresses only by the pairs rule
/// read the other way.
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: Option<f64>) -> Verdict {
    if wins(parent, change, better) {
        return Verdict::Improved;
    }
    let Some(bound) = bound else {
        return if wins(change, parent, better) {
            Verdict::Regressed
        } else {
            Verdict::Unchanged
        };
    };
    if spread(parent).max(spread(change)) > bound {
        let all_better = change
            .iter()
            .all(|&b| parent.iter().all(|&a| is_better(b, a, better)));
        return if all_better {
            Verdict::Unchanged
        } else {
            Verdict::Unresolved
        };
    }
    let (med_a, med_b) = (median(parent), median(change));
    let worse_by = match better {
        Better::Lower => (med_b - med_a) / med_a.abs(),
        Better::Higher => (med_a - med_b) / med_a.abs(),
    };
    if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert!((spread(&ten) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn nearest_rank_percentile() {
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&hundred, 10.0), 10.0);
        assert_eq!(percentile(&hundred, 50.0), 50.0);
        assert_eq!(percentile(&hundred, 100.0), 100.0);
        assert_eq!(percentile(&[5.0, 1.0, 3.0, 2.0, 4.0], 10.0), 1.0);
        assert_eq!(percentile(&[7.0], 10.0), 7.0);
        assert!(percentile(&[], 10.0).is_nan());
    }

    #[test]
    fn tail_percentile_rule() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.value, t.percentile, t.n), (1980.0, 99.0, 2000));
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.value, t.n), (190.0, 200));
        assert!((t.percentile - 95.0).abs() < 1e-12);
        // Exactly ten samples lie above the reported value.
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
        let t = tail(&[5.0, 1.0, 3.0]);
        assert_eq!((t.value, t.percentile), (5.0, 100.0));
    }

    #[test]
    fn pairs_rule_and_its_unresolved_case() {
        let parent = [
            100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 100.3, 99.9, 100.4,
        ];
        let faster: Vec<f64> = parent.iter().map(|x| x * 0.8).collect();
        let same: Vec<f64> = parent.iter().rev().copied().collect();
        let slower: Vec<f64> = parent.iter().map(|x| x * 1.3).collect();
        let lower = Better::Lower;
        assert_eq!(
            verdict(&parent, &faster, lower, Some(0.1)),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&parent, &same, lower, Some(0.1)),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&parent, &slower, lower, Some(0.1)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&parent, &slower, Better::Higher, Some(0.1)),
            Verdict::Improved
        );
        // Spread wider than the bound: slower is unresolved, not
        // regressed, and a change that reads better in every run still
        // counts as no worse.
        let wide = [
            60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0,
        ];
        let wide_slower: Vec<f64> = wide.iter().map(|x| x * 1.2).collect();
        assert_eq!(
            verdict(&wide, &wide_slower, lower, Some(0.1)),
            Verdict::Unresolved
        );
        let all_faster = [50.0; 10];
        assert_eq!(
            verdict(&wide, &all_faster, lower, Some(0.1)),
            Verdict::Improved
        );
        let all_slightly_faster = [59.0; 10];
        assert_eq!(
            verdict(&wide, &all_slightly_faster, lower, Some(0.1)),
            Verdict::Unchanged
        );
        let barely_faster = [59.0, 59.5, 58.0, 59.9, 59.1, 59.2, 58.5, 59.7, 58.8, 150.0];
        assert_eq!(
            verdict(&wide, &barely_faster, lower, Some(0.1)),
            Verdict::Unresolved
        );
        // Ungated metrics regress only by the pairs rule.
        assert_eq!(verdict(&parent, &slower, lower, None), Verdict::Regressed);
        assert_eq!(verdict(&parent, &same, lower, None), Verdict::Unchanged);
        let p = pairs(&parent, &same, lower);
        assert_eq!(p.n, 10);
        assert_eq!(p.won + p.lost, 10);
    }
}
