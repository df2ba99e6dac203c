//! Property tests of the incremental layer's determinism contract:
//! a `Session` driven by arbitrary push/assert/pop sequences and any of
//! its three solve entry points (`solve`, `solve_under`,
//! `solve_under_prepared`) must answer exactly what the from-scratch
//! `solve()` answers for the same in-scope constraints — same
//! SAT/UNSAT/error, and (because the campaign's reproducibility depends
//! on it) the *same model*. The session backtracks scopes on an undo
//! trail and replays prepared hypotheses from a normalization plan; the
//! scratch solver does neither, so it is the reference for both.
//!
//! Generated linear expressions include zero-coefficient terms: the
//! concolic tracer can record them (a symbolic value multiplied by a
//! concrete 0), and the propagator divides by every coefficient it
//! sees.

use igjit_solver::{
    check_model, solve, CmpOp, Constraint, Kind, LinExpr, PreparedConstraint, Problem, Session,
    SolveError, VarId, VarSpec,
};
use proptest::prelude::*;

const NVARS: usize = 4;

/// A generator for random constraints over NVARS variables (the same
/// shape as the soundness suite, including `ObjEq` — which exercises
/// the session's rebuild-on-aliasing path — plus raw linear
/// expressions whose terms may carry a zero coefficient).
fn arb_constraint() -> impl Strategy<Value = Constraint> {
    let var = (0u32..NVARS as u32).prop_map(VarId);
    let kind = prop_oneof![
        Just(Kind::SmallInt),
        Just(Kind::Float),
        Just(Kind::Array),
        Just(Kind::Nil),
    ];
    let cmp = prop_oneof![
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
    ];
    let lin = (var.clone(), -50i64..50)
        .prop_map(|(v, c)| LinExpr::var(v).offset(c));
    let lin2 = (var.clone(), var.clone(), -50i64..50)
        .prop_map(|(a, b, c)| LinExpr::var(a).plus(&LinExpr::var(b)).offset(c));
    // Built as a struct literal, like the tracer's scaled products, so
    // a zero coefficient survives into the constraint.
    let raw = (var.clone(), -1i64..=1, var.clone(), -2i64..=2, -50i64..50).prop_map(
        |(a, ca, b, cb, c)| LinExpr { constant: c, terms: vec![(ca, a), (cb, b)] },
    );
    prop_oneof![
        (var.clone(), kind.clone()).prop_map(|(v, k)| Constraint::kind_is(v, k)),
        (var.clone(), kind).prop_map(|(v, k)| Constraint::kind_is_not(v, k)),
        (cmp.clone(), lin.clone(), lin.clone()).prop_map(|(op, l, r)| Constraint::Int(op, l, r)),
        (cmp.clone(), lin2.clone(), -100i64..100)
            .prop_map(|(op, l, c)| Constraint::Int(op, l, LinExpr::constant(c))),
        (cmp, raw, -100i64..100)
            .prop_map(|(op, l, c)| Constraint::Int(op, l, LinExpr::constant(c))),
        (var.clone(), var.clone()).prop_map(|(a, b)| Constraint::ObjEq(a, b)),
        (var.clone(), var).prop_map(|(a, b)| Constraint::ObjNe(a, b)),
        (lin2.clone()).prop_map(Constraint::not_in_small_int_range),
        (lin2).prop_map(Constraint::in_small_int_range),
    ]
}

/// One step of a random session script.
#[derive(Clone, Debug)]
enum Step {
    PushAssert(Constraint),
    Assert(Constraint),
    Pop,
    SolveUnder(Constraint),
    SolveUnderPrepared(Constraint),
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        arb_constraint().prop_map(Step::PushAssert),
        arb_constraint().prop_map(Step::Assert),
        Just(Step::Pop),
        Just(Step::Pop),
        arb_constraint().prop_map(Step::SolveUnder),
        arb_constraint().prop_map(Step::SolveUnderPrepared),
    ]
}

fn session() -> Session {
    let mut s = Session::new();
    for _ in 0..NVARS {
        s.add_var(VarSpec::any());
    }
    s
}

/// Asserts that one session solve agrees with the scratch solver on
/// the session's current in-scope problem.
fn assert_agrees(s: &mut Session) {
    let problem = s.problem();
    let incremental = s.solve();
    let scratch = solve(&problem);
    prop_assert_eq!(
        &incremental,
        &scratch,
        "incremental and scratch answers diverge on {:?}",
        problem.constraints()
    );
    if let Ok(model) = &incremental {
        prop_assert!(
            check_model(&problem, model),
            "session model violates in-scope constraints {:?}",
            problem.constraints()
        );
    }
}

/// The scratch answer for the session's in-scope problem plus `h`.
fn scratch_under(s: &Session, h: &Constraint) -> (Problem, Result<igjit_solver::Model, SolveError>) {
    let mut problem = s.problem();
    problem.assert(h.clone());
    let answer = solve(&problem);
    (problem, answer)
}

/// `solve_under` (or its prepared form) on `h` agrees with the scratch
/// solver on the in-scope problem plus `h`, and leaves no scope behind.
fn assert_agrees_under(s: &mut Session, h: &Constraint, prepared: bool) {
    let (problem, scratch) = scratch_under(s, h);
    let depth = s.depth();
    let incremental = if prepared {
        s.solve_under_prepared(&PreparedConstraint::new(h.clone()))
    } else {
        s.solve_under(h)
    };
    prop_assert_eq!(
        &incremental,
        &scratch,
        "solve_under (prepared: {}) and scratch diverge on {:?}",
        prepared,
        problem.constraints()
    );
    prop_assert_eq!(s.depth(), depth);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Pushing constraints one scope at a time, then popping all the
    /// way back, agrees with from-scratch solving at every depth.
    #[test]
    fn prop_session_agrees_with_scratch_down_and_up(
        constraints in proptest::collection::vec(arb_constraint(), 1..8)
    ) {
        let mut s = session();
        for c in &constraints {
            s.push_assert(c.clone());
            assert_agrees(&mut s);
        }
        for _ in 0..constraints.len() {
            s.pop();
            assert_agrees(&mut s);
        }
        prop_assert_eq!(s.depth(), 0);
    }

    /// Arbitrary interleavings of push/assert/pop and hypothesis
    /// solves keep the session in lockstep with the scratch solver.
    #[test]
    fn prop_session_agrees_under_arbitrary_scripts(
        steps in proptest::collection::vec(arb_step(), 1..14)
    ) {
        let mut s = session();
        for step in steps {
            match step {
                Step::PushAssert(c) => s.push_assert(c),
                Step::Assert(c) => s.assert(c),
                Step::Pop => {
                    if s.depth() == 0 {
                        continue;
                    }
                    s.pop();
                }
                Step::SolveUnder(h) => assert_agrees_under(&mut s, &h, false),
                Step::SolveUnderPrepared(h) => assert_agrees_under(&mut s, &h, true),
            }
            assert_agrees(&mut s);
        }
    }

    /// The probe sweep shape: one shared path condition, then every
    /// hypothesis solved as a sibling scope, prepared and unprepared.
    #[test]
    fn prop_probe_sweep_matches_scratch(
        path in proptest::collection::vec(arb_constraint(), 1..5),
        hyps in proptest::collection::vec(arb_constraint(), 1..10)
    ) {
        let mut s = session();
        for c in &path {
            s.push_assert(c.clone());
        }
        for h in &hyps {
            assert_agrees_under(&mut s, h, true);
            assert_agrees_under(&mut s, h, false);
        }
        assert_agrees(&mut s);
    }

    /// Dirty-scope rebuilds: force an `ObjEq` into a scope (aliasing
    /// makes the engine rebuild from scratch at the next solve), then
    /// keep solving below and after popping it. The trail must unwind
    /// correctly across the rebuild boundary.
    #[test]
    fn prop_rebuild_boundary_matches_scratch(
        before in proptest::collection::vec(arb_constraint(), 0..4),
        after in proptest::collection::vec(arb_constraint(), 1..5)
    ) {
        let mut s = session();
        for c in &before {
            s.push_assert(c.clone());
        }
        s.push_assert(Constraint::ObjEq(VarId(0), VarId(1)));
        for h in &after {
            assert_agrees_under(&mut s, h, false);
        }
        prop_assert!(s.stats().rebuilds > 0,
                     "the ObjEq scope should have forced at least one rebuild");
        s.pop();
        assert_agrees(&mut s);
        for h in &after {
            assert_agrees_under(&mut s, h, true);
        }
    }

    /// The tree walk the explorer performs: solve a prefix, then for
    /// each suffix position push the negation of one step, solve, and
    /// pop — the session must match scratch at every node.
    #[test]
    fn prop_negation_walk_matches_scratch(
        path in proptest::collection::vec(arb_constraint(), 1..6)
    ) {
        let mut s = session();
        for c in &path {
            s.push_assert(c.clone());
        }
        assert_agrees(&mut s);
        for i in (0..path.len()).rev() {
            s.pop();
            s.push_assert(path[i].negated());
            assert_agrees(&mut s);
            s.pop();
            s.push_assert(path[i].clone());
        }
    }

    /// Variables added mid-session (the explorer's lazily growing
    /// frame) behave as if they had existed from the start.
    #[test]
    fn prop_late_variables_match_scratch(
        before in proptest::collection::vec(arb_constraint(), 0..4),
        after in proptest::collection::vec(arb_constraint(), 1..4)
    ) {
        let mut s = Session::new();
        for _ in 0..2 {
            s.add_var(VarSpec::any());
        }
        for c in &before {
            // Project early constraints onto the first two variables.
            let mut vs = Vec::new();
            c.vars(&mut vs);
            if vs.iter().all(|v| v.0 < 2) {
                s.push_assert(c.clone());
            }
        }
        for _ in 2..NVARS {
            s.add_var(VarSpec::any());
        }
        for c in &after {
            s.push_assert(c.clone());
            assert_agrees(&mut s);
        }
    }
}

/// Unsatisfiable prefixes stay unsatisfiable in deeper scopes (a
/// deterministic spot check of conflict propagation).
#[test]
fn unsat_prefix_poisons_descendants() {
    let mut s = Session::new();
    let x = s.add_var(VarSpec::any());
    s.push_assert(Constraint::Int(CmpOp::Lt, LinExpr::var(x), LinExpr::constant(0)));
    s.push_assert(Constraint::Int(CmpOp::Gt, LinExpr::var(x), LinExpr::constant(0)));
    assert_eq!(s.solve(), Err(SolveError::Unsat));
    s.push_assert(Constraint::kind_is(x, Kind::SmallInt));
    assert_eq!(s.solve(), Err(SolveError::Unsat));
    s.pop();
    s.pop();
    s.pop();
    assert!(s.solve().is_ok());
}

/// A zero-coefficient term reaching the prepared-hypothesis path used
/// to divide by zero in interval propagation; it must answer like the
/// plain assert path and the scratch solver.
#[test]
fn zero_coefficient_hypothesis_answers_like_scratch() {
    let h = Constraint::Int(
        CmpOp::Le,
        LinExpr { constant: 0, terms: vec![(0, VarId(0))] },
        LinExpr::constant(5),
    );
    let mut prepared = Session::new();
    prepared.add_var(VarSpec::any());
    let got = prepared.solve_under_prepared(&PreparedConstraint::new(h.clone()));
    let mut asserted = Session::new();
    asserted.add_var(VarSpec::any());
    asserted.assert(h.clone());
    assert_eq!(got, asserted.solve());
    let mut p = Problem::new();
    p.new_var(VarSpec::any());
    p.assert(h);
    assert_eq!(got, solve(&p));
}

/// A quadruple loop (push, assert, solve, pop) leaves the session at
/// depth 0 with its store bit-restored: a follow-up solve answers like
/// scratch, and the trail really unwound narrowings.
#[test]
fn quadruple_loop_restores_cleanly() {
    let mut s = Session::new();
    let x = s.add_var(VarSpec::any());
    let y = s.add_var(VarSpec::any());
    s.assert(Constraint::kind_is(x, Kind::SmallInt));
    s.assert(Constraint::Int(
        CmpOp::Eq,
        LinExpr::var(x).plus(&LinExpr::var(y)),
        LinExpr::constant(7),
    ));
    let hyps = [
        Constraint::kind_is(y, Kind::SmallInt),
        Constraint::kind_is(y, Kind::Float),
        Constraint::Int(CmpOp::Lt, LinExpr::var(x), LinExpr::constant(-100)),
        Constraint::kind_is(x, Kind::Array),
    ];
    for _ in 0..3 {
        for h in &hyps {
            s.push();
            s.assert(h.clone());
            assert_eq!(s.solve(), solve(&s.problem()), "diverged on {h:?}");
            s.pop();
        }
    }
    assert_eq!(s.depth(), 0);
    let ts = s.trail_stats();
    assert!(ts.trail_marks > 0);
    assert!(ts.undone_ops > 0, "narrowings should have been unwound");
    assert_eq!(s.solve(), solve(&s.problem()));
}
