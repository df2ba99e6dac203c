//! # igjit-solver — semantic VM constraint solving
//!
//! The concolic engine of the paper records *semantic* conditions
//! (§3.3) — `isSmallInteger(v)`, class-index tests, integer bounds —
//! rather than the raw pointer arithmetic the VM really performs. This
//! crate is the reproduction's constraint solver for exactly that
//! language:
//!
//! * **kind constraints** — each variable's runtime kind is drawn from
//!   a [`KindSet`] (SmallInteger, Float, Array, …); negation is set
//!   complement, which is what makes `isNotSmallInteger` meaningful
//!   where bit-level `(v & 1) != 1` would not be,
//! * **bounded linear integer arithmetic** — comparisons between
//!   [`LinExpr`]s over the integer attributes of variables (values,
//!   operand-stack sizes, slot counts), solved by interval propagation
//!   plus backtracking search,
//! * **float constraints** — comparisons solved over a candidate pool
//!   (enough for the type-check-dominated float paths of the VM),
//! * **object identity** — equality/distinctness between object
//!   variables, solved by aliasing.
//!
//! Mirroring §4.3 of the paper, the solver deliberately rejects
//! problems mentioning integers that need more than **56 bits** with
//! [`SolveError::PrecisionExceeded`], and offers **no bitwise theory**
//! at all — the VM model above it is expected to stay semantic.
//!
//! ## Example
//!
//! ```
//! use igjit_solver::*;
//!
//! let mut p = Problem::new();
//! let x = p.new_var(VarSpec::any());
//! let y = p.new_var(VarSpec::any());
//! // x and y are SmallIntegers whose sum overflows the 31-bit range.
//! p.assert(Constraint::kind_is(x, Kind::SmallInt));
//! p.assert(Constraint::kind_is(y, Kind::SmallInt));
//! let sum = LinExpr::var(x).plus(&LinExpr::var(y));
//! p.assert(Constraint::not_in_small_int_range(sum));
//! let model = solve(&p).unwrap();
//! let vx = model.int_value(x);
//! let vy = model.int_value(y);
//! assert!(vx + vy > igjit_solver::SMALL_INT_MAX || vx + vy < igjit_solver::SMALL_INT_MIN);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod constraint;
mod error;
mod model;
mod search;
mod session;

pub use constraint::{CmpOp, Constraint, FloatTerm, Kind, KindSet, LinExpr, VarId, VarSpec};
pub use error::SolveError;
pub use model::{Assignment, Model};
pub use search::{solve, solve_with_limits, Problem, SearchLimits, TrailStats};
pub use session::{PreparedConstraint, Session, SessionStats};

/// Checks that `model` satisfies every constraint of `problem` and
/// every variable's initial domain — the solver's soundness contract,
/// used by the property tests and available to callers that want to
/// validate a model they hold.
pub fn check_model(problem: &Problem, model: &Model) -> bool {
    for (i, spec) in problem.specs().iter().enumerate() {
        let v = VarId(i as u32);
        if !spec.kinds.contains(model.kind(v)) {
            return false;
        }
        let int = model.int_value(v);
        if int < spec.int_bounds.0 || int > spec.int_bounds.1 {
            return false;
        }
    }
    problem.constraints().iter().all(|c| constraint_holds(c, model))
}

fn constraint_holds(c: &Constraint, model: &Model) -> bool {
    match c {
        Constraint::Kind { var, allowed } => allowed.contains(model.kind(*var)),
        Constraint::Int(op, l, r) => {
            let lv = l.eval(|v| model.int_value(v));
            let rv = r.eval(|v| model.int_value(v));
            op.holds_int(lv, rv)
        }
        Constraint::Float(op, l, r) => {
            let get = |t: &FloatTerm| match t {
                FloatTerm::Var(v) => model.float_value(*v),
                FloatTerm::Const(c) => *c,
            };
            op.holds_float(get(l), get(r))
        }
        Constraint::ObjEq(a, b) => model.same_object(*a, *b),
        Constraint::ObjNe(a, b) => !model.same_object(*a, *b),
        Constraint::Or(cs) => cs.iter().any(|c| constraint_holds(c, model)),
        Constraint::And(cs) => cs.iter().all(|c| constraint_holds(c, model)),
    }
}

/// Largest SmallInteger of the 32-bit target (2^30 - 1).
pub const SMALL_INT_MAX: i64 = (1 << 30) - 1;
/// Smallest SmallInteger of the 32-bit target (-2^30).
pub const SMALL_INT_MIN: i64 = -(1 << 30);
/// The solver's integer precision in bits (§4.3: the paper's solver
/// handled at most 56-bit integers, restricting testing to 32-bit
/// compilations).
pub const PRECISION_BITS: u32 = 56;

/// Compile-time source fingerprint (see `igjit-corpus`).
pub mod srcid;
