//! Phase attribution for the solver's hypothesis hot path: where a
//! `solve_under` microsecond actually goes — assert+propagate+unwind,
//! leaf search, model extraction.
//!
//! The solver's internals are deliberately unhooked (no timing code on
//! the hot path), so attribution is differential: each phase is
//! isolated by a workload that stops after it, and the phase cost is
//! the min-of-rounds difference between adjacent workloads:
//!
//! * **propagate** — a hypothesis interval propagation refutes
//!   (`x < -1` against `x ∈ [0, 100]`): classify + assert + propagate
//!   + trail unwind, no search, no model.
//! * **model-extract** — a hypothesis that is SAT with search already
//!   decided (every var kind-pinned, no `Or`, no integer splitting):
//!   subtracting the propagate baseline leaves leaf construction +
//!   `Model` assembly.
//! * **search** — a SAT hypothesis whose path condition carries `Or`
//!   disjuncts and an integer relation needing candidate enumeration:
//!   subtracting the model-extract workload leaves the backtracking
//!   walk itself.
//!
//! ```sh
//! cargo run --release -p igjit-bench --bin solver_profile -- [rounds]
//! ```
//!
//! `rounds` is a positive integer (default 12); anything else prints
//! usage and exits 2, as does an unknown `IGJIT_*` variable.

use std::time::{Duration, Instant};

use igjit_bench::outln;
use igjit_solver::{
    CmpOp, Constraint, Kind, LinExpr, PreparedConstraint, Session, VarId, VarSpec,
};

const VARS: usize = 8;
const SOLVES_PER_ROUND: usize = 2000;
const DEFAULT_ROUNDS: usize = 12;

fn v(i: usize) -> VarId {
    VarId(i as u32)
}

fn specs() -> Vec<VarSpec> {
    (0..VARS).map(|_| VarSpec::any()).collect()
}

/// Branchy path condition: `Or` kind tests plus an integer relation,
/// so SAT solves walk disjunct scopes and enumerate candidates.
fn branchy_path() -> Vec<Constraint> {
    vec![
        Constraint::kind_is(v(0), Kind::SmallInt),
        Constraint::kind_is(v(1), Kind::SmallInt),
        Constraint::Int(CmpOp::Ge, LinExpr::var(v(0)), LinExpr::constant(0)),
        Constraint::Int(CmpOp::Le, LinExpr::var(v(0)), LinExpr::constant(100)),
        Constraint::Int(
            CmpOp::Eq,
            LinExpr::var(v(0)).plus(&LinExpr::var(v(1))),
            LinExpr::constant(7),
        ),
        Constraint::Or(vec![
            Constraint::kind_is(v(2), Kind::SmallInt),
            Constraint::kind_is(v(2), Kind::Float),
        ]),
        Constraint::Or(vec![
            Constraint::kind_is(v(3), Kind::Array),
            Constraint::kind_is(v(3), Kind::SmallInt),
        ]),
    ]
}

/// Flat path condition: every var pinned, nothing to search.
fn flat_path() -> Vec<Constraint> {
    (0..VARS)
        .map(|i| Constraint::kind_is(v(i), Kind::SmallInt))
        .chain(std::iter::once(Constraint::Int(
            CmpOp::Ge,
            LinExpr::var(v(0)),
            LinExpr::constant(0),
        )))
        .collect()
}

fn session(path: &[Constraint]) -> Session {
    let mut s = Session::new();
    s.sync_vars(&specs());
    for c in path {
        s.assert(c.clone());
    }
    s
}

/// Min-of-rounds µs per solve of `hypothesis` against `path`.
fn measure(rounds: usize, path: &[Constraint], hypothesis: &Constraint) -> f64 {
    let prepared = PreparedConstraint::new(hypothesis.clone());
    let mut s = session(path);
    let mut best = Duration::MAX;
    for _ in 0..rounds {
        let t0 = Instant::now();
        for _ in 0..SOLVES_PER_ROUND {
            let _ = std::hint::black_box(s.solve_under_prepared(&prepared));
            s.clear_cached_model();
        }
        best = best.min(t0.elapsed());
    }
    best.as_secs_f64() * 1e6 / SOLVES_PER_ROUND as f64
}

/// The round count from the arguments after the program name: none
/// means [`DEFAULT_ROUNDS`], one must be a positive decimal integer.
fn parse_rounds(args: &[String]) -> Result<usize, String> {
    match args {
        [] => Ok(DEFAULT_ROUNDS),
        [arg] => match arg.parse::<usize>() {
            Ok(n) if n > 0 && arg.bytes().all(|b| b.is_ascii_digit()) => Ok(n),
            _ => Err(format!("rounds must be a positive integer, got {arg:?}")),
        },
        _ => Err(format!("expected at most one argument, got {}", args.len())),
    }
}

fn main() {
    let _mutant = igjit_bench::arm_mutant_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rounds = parse_rounds(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!("usage: solver_profile [rounds]  (a positive integer, default {DEFAULT_ROUNDS})");
        std::process::exit(2);
    });
    // Refuted by interval propagation against `x ∈ [0, 100]`.
    let refuted = Constraint::And(vec![
        Constraint::kind_is(v(0), Kind::SmallInt),
        Constraint::Int(CmpOp::Lt, LinExpr::var(v(0)), LinExpr::constant(-1)),
    ]);
    // SAT, adds nothing to decide.
    let sat = Constraint::kind_is(v(4), Kind::Float);

    outln!("solver_profile: {rounds} rounds x {SOLVES_PER_ROUND} solves, µs/solve (min of rounds)");
    outln!("{:<14} {:>10}", "phase", "µs");
    let propagate = measure(rounds, &branchy_path(), &refuted);
    let flat_sat = measure(rounds, &flat_path(), &sat);
    let branchy_sat = measure(rounds, &branchy_path(), &sat);
    let rows = [
        ("propagate", propagate),
        ("model-extract", (flat_sat - propagate).max(0.0)),
        ("search", (branchy_sat - flat_sat).max(0.0)),
        ("total (SAT)", branchy_sat),
    ];
    for (name, us) in rows {
        outln!("{name:<14} {us:>10.3}");
    }

    // Trail accounting over one batch.
    let mut s = session(&branchy_path());
    let p = PreparedConstraint::new(sat);
    for _ in 0..SOLVES_PER_ROUND {
        let _ = s.solve_under_prepared(&p);
        s.clear_cached_model();
    }
    let ts = s.trail_stats();
    outln!(
        "trail stats over {SOLVES_PER_ROUND} SAT solves: {} marks, {} ops undone, \
         pool {}/{} hit/miss",
        ts.trail_marks, ts.undone_ops, ts.pool_hits, ts.pool_misses
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<usize, String> {
        parse_rounds(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn rounds_must_be_one_positive_integer() {
        assert_eq!(parse(&[]), Ok(DEFAULT_ROUNDS));
        assert_eq!(parse(&["1"]), Ok(1));
        assert_eq!(parse(&["30"]), Ok(30));
        for bad in ["0", "abc", "-3", "+3", "", " 3", "3.0", "99999999999999999999999"] {
            assert!(parse(&[bad]).is_err(), "{bad:?} accepted");
        }
        assert!(parse(&["3", "4"]).is_err());
    }
}
