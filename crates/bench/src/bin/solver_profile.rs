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

use std::time::{Duration, Instant};

use igjit_solver::{
    CmpOp, Constraint, Kind, LinExpr, PreparedConstraint, Session, VarId, VarSpec,
};

const VARS: usize = 8;
const SOLVES_PER_ROUND: usize = 2000;

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

fn main() {
    let rounds: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(12);
    // Refuted by interval propagation against `x ∈ [0, 100]`.
    let refuted = Constraint::And(vec![
        Constraint::kind_is(v(0), Kind::SmallInt),
        Constraint::Int(CmpOp::Lt, LinExpr::var(v(0)), LinExpr::constant(-1)),
    ]);
    // SAT, adds nothing to decide.
    let sat = Constraint::kind_is(v(4), Kind::Float);

    println!("solver_profile: {rounds} rounds x {SOLVES_PER_ROUND} solves, µs/solve (min of rounds)");
    println!("{:<14} {:>10}", "phase", "µs");
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
        println!("{name:<14} {us:>10.3}");
    }

    // Trail accounting over one batch.
    let mut s = session(&branchy_path());
    let p = PreparedConstraint::new(sat);
    for _ in 0..SOLVES_PER_ROUND {
        let _ = s.solve_under_prepared(&p);
        s.clear_cached_model();
    }
    let ts = s.trail_stats();
    println!(
        "trail stats over {SOLVES_PER_ROUND} SAT solves: {} marks, {} ops undone, \
         pool {}/{} hit/miss",
        ts.trail_marks, ts.undone_ops, ts.pool_hits, ts.pool_misses
    );
}
