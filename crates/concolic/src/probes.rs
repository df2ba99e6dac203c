//! Kind probing: extra models for under-constrained paths.
//!
//! Concolic exploration only generates inputs the *interpreter's*
//! branches constrain. An instruction whose interpreter forgot a type
//! check (Listing 5) records no constraint on that operand, so its
//! paths would only ever be exercised with the solver's default
//! (SmallInteger) inputs — and the missing check would stay invisible.
//!
//! Probing closes the gap: for each path we re-solve the recorded
//! path condition under additional kind hypotheses on the *input
//! frame* variables (receiver and shallow stack operands). Every
//! satisfiable hypothesis yields one more concrete frame that, by
//! construction, drives the interpreter down the *same* recorded path
//! with a differently-typed operand.

use crate::{AbstractState, ExploredPath};
use igjit_solver::{
    CmpOp, Constraint, Kind, KindSet, LinExpr, Model, PreparedConstraint, Session, VarId,
};

/// Kinds tried for each probed variable.
const PROBE_KINDS: [Kind; 3] = [Kind::Float, Kind::Array, Kind::ExternalAddress];

/// Probe budget used by the campaign driver (and by
/// [`ExplorationResult::attach_probe_models`] when the exploration
/// cache precomputes probe models).
///
/// [`ExplorationResult::attach_probe_models`]: crate::ExplorationResult::attach_probe_models
pub const DEFAULT_MAX_PROBES: usize = 16;

/// The kinds `var` may take under the path condition, by intersecting
/// every top-level (and conjunctive) kind constraint. A sound
/// over-approximation: the solver only ever narrows it further, so a
/// probe kind outside this set is certainly unsatisfiable and its
/// solve can be skipped. `Or` branches are ignored (they do not all
/// hold), keeping the estimate conservative.
fn static_kinds(constraints: &[Constraint], var: VarId) -> KindSet {
    fn narrow(c: &Constraint, var: VarId, acc: &mut KindSet) {
        match c {
            Constraint::Kind { var: v, allowed } if *v == var => {
                *acc = acc.intersect(*allowed);
            }
            Constraint::And(cs) => {
                for c in cs {
                    narrow(c, var, acc);
                }
            }
            _ => {}
        }
    }
    let mut acc = KindSet::ANY;
    for c in constraints {
        narrow(c, var, &mut acc);
    }
    acc
}

/// The candidate hypotheses for one exploration, built once and tried
/// against every curated path.
///
/// Hypothesis constraints depend only on the [`AbstractState`] (which
/// variables form the input frame, their shapes) — never on the path —
/// so a probe sweep over a few thousand paths can borrow the same
/// constraint trees instead of rebuilding ~a dozen of them per path.
/// Which hypotheses are *tried* still varies per path (a path whose
/// condition pins an operand's kind skips the contradicting probes);
/// that filter stays in [`probe_path`].
pub(crate) struct ProbePlan {
    /// Receiver plus up to three shallow stack operands, in probe order.
    probe_vars: Vec<VarId>,
    /// Per probe var: one hypothesis per entry of [`PROBE_KINDS`].
    kind_probes: Vec<[(Kind, PreparedConstraint); 3]>,
    /// Per probe var: the strictly-negative SmallInteger hypothesis.
    sign_probes: Vec<PreparedConstraint>,
    /// Boundary-value pairs over the two shallowest operands.
    pair_probes: Option<(VarId, VarId, [PreparedConstraint; 3])>,
}

impl ProbePlan {
    pub(crate) fn new(state: &AbstractState) -> ProbePlan {
        let mut probe_vars: Vec<VarId> = vec![state.receiver];
        probe_vars.extend(state.stack_vars.iter().take(3).copied());
        let kind_probes = probe_vars
            .iter()
            .map(|&var| {
                PROBE_KINDS.map(|kind| {
                    // When the variable has an element-count variable,
                    // give probe objects a couple of slots so unchecked
                    // body reads hit real (garbage) data instead of the
                    // heap's edge.
                    let hypothesis = match (kind, state.shape(var).size_var) {
                        (Kind::Array, Some(size_var)) => Constraint::And(vec![
                            Constraint::kind_is(var, kind),
                            Constraint::Int(
                                CmpOp::Ge,
                                LinExpr::var(size_var),
                                LinExpr::constant(2),
                            ),
                        ]),
                        _ => Constraint::kind_is(var, kind),
                    };
                    (kind, PreparedConstraint::new(hypothesis))
                })
            })
            .collect();
        let sign_probes = probe_vars
            .iter()
            .map(|&var| {
                PreparedConstraint::new(Constraint::And(vec![
                    Constraint::kind_is(var, Kind::SmallInt),
                    Constraint::Int(CmpOp::Lt, LinExpr::var(var), LinExpr::constant(-1)),
                ]))
            })
            .collect();
        let pair_probes = (state.stack_vars.len() >= 2).then(|| {
            let (top, below) = (state.stack_vars[0], state.stack_vars[1]);
            let pairs = [(-7i64, 3i64), (-7, -3), (7, -3)].map(|(rcvr_val, arg_val)| {
                PreparedConstraint::new(Constraint::And(vec![
                    Constraint::kind_is(below, Kind::SmallInt),
                    Constraint::kind_is(top, Kind::SmallInt),
                    Constraint::Int(
                        CmpOp::Eq,
                        LinExpr::var(below),
                        LinExpr::constant(rcvr_val),
                    ),
                    Constraint::Int(CmpOp::Eq, LinExpr::var(top), LinExpr::constant(arg_val)),
                ]))
            });
            (top, below, pairs)
        });
        ProbePlan { probe_vars, kind_probes, sign_probes, pair_probes }
    }
}

/// Probes one path through a caller-provided session whose current
/// scope holds no constraints yet. The path condition is asserted
/// into that scope, so batching callers wrap each call in push/pop
/// and pay variable sync and constraint normalization once per
/// exploration instead of once per path — returning, by the session
/// determinism contract, exactly what the fresh-session
/// [`probe_models`] returns.
///
/// Each hypothesis is a fresh search over the path condition plus the
/// hypothesis, so a probe model is a function of those constraints
/// alone, whatever the other hypotheses of the path are or the order
/// they are tried in.
pub(crate) fn probe_path(
    session: &mut Session,
    state: &AbstractState,
    plan: &ProbePlan,
    path: &ExploredPath,
    max_probes: usize,
) -> Vec<Model> {
    let mut models = vec![path.model.clone()];
    // The path condition is shared by every hypothesis: assert it once
    // in the enclosing scope, then push/pop one scope per hypothesis
    // so each solve reuses the path's propagation state.
    session.sync_vars(state.specs());
    for c in &path.constraints {
        session.assert(c.clone());
    }
    // Engine v8: the hypotheses are sibling scopes over the shared
    // path prefix, so each is one batched `solve_under` — observably
    // identical to push/assert/solve/pop (the solver's equivalence
    // tests pin this) but with one store clone per hypothesis instead
    // of two, which is most of the probe stage's former cost.
    let try_hypothesis =
        |session: &mut Session, models: &mut Vec<Model>, hypothesis: &PreparedConstraint| {
            if models.len() > max_probes {
                return;
            }
            if let Ok(m) = session.solve_under_prepared(hypothesis) {
                models.push(m);
            }
        };
    for (vi, &var) in plan.probe_vars.iter().enumerate() {
        // Skip kinds the path condition itself rules out: those
        // hypotheses are unsatisfiable before the solver ever runs.
        let allowed = static_kinds(&path.constraints, var);
        for (kind, hypothesis) in &plan.kind_probes[vi] {
            if path.model.kind(var) == *kind || !allowed.contains(*kind) {
                continue;
            }
            try_hypothesis(&mut *session, &mut models, hypothesis);
        }
        // Sign probe: a strictly negative SmallInteger value.
        if path.model.kind(var) == Kind::SmallInt && path.model.int_value(var) >= 0 {
            try_hypothesis(&mut *session, &mut models, &plan.sign_probes[vi]);
        }
    }
    // Boundary-value pair probes over the two shallowest operands
    // (receiver/argument of binary operations). Rounding and shift
    // defects need *combinations* — a negative dividend with an
    // inexact positive divisor, say — that no single linear
    // hypothesis can force, because the interpreter concretizes
    // division and shifts (§4.3: no such solver theory).
    if let Some((top, below, pairs)) = &plan.pair_probes {
        let pair_possible = static_kinds(&path.constraints, *top).contains(Kind::SmallInt)
            && static_kinds(&path.constraints, *below).contains(Kind::SmallInt);
        if pair_possible {
            for hypothesis in pairs {
                try_hypothesis(&mut *session, &mut models, hypothesis);
            }
        }
    }
    models
}

/// Generates the base model plus satisfiable probe variants for
/// `path`: kind hypotheses (a differently-typed operand on the same
/// path) and sign hypotheses (a negative SmallInteger operand — how
/// the `quo:` rounding and unsigned-shift defects surface, since the
/// concretized arithmetic records no sign constraints). The base model
/// is always first.
pub fn probe_models(state: &AbstractState, path: &ExploredPath, max_probes: usize) -> Vec<Model> {
    let mut session = Session::new();
    let plan = ProbePlan::new(state);
    probe_path(&mut session, state, &plan, path, max_probes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Explorer, InstrUnderTest, PathOutcome};
    use igjit_bytecode::instruction_catalog;
    use igjit_interp::{native_catalog, NativeMethodId};
    use igjit_solver::check_model;

    #[test]
    fn as_float_probes_produce_pointer_receivers() {
        // primitiveAsFloat's success path has no receiver constraint;
        // probing must produce at least one non-SmallInt receiver.
        let r = Explorer::new().explore(InstrUnderTest::Native(NativeMethodId(40)));
        let success = r
            .paths
            .iter()
            .find(|p| matches!(p.outcome, PathOutcome::Success))
            .expect("asFloat has a success path");
        let models = probe_models(&r.state, success, 8);
        assert!(models.len() > 1, "probes found");
        // The first probe var is the receiver... but for natives the
        // receiver lives on the operand stack; check any probed model
        // assigns a non-SmallInt kind somewhere in the input frame.
        let mut saw_non_int = false;
        for m in &models[1..] {
            for &v in std::iter::once(&r.state.receiver).chain(r.state.stack_vars.iter()) {
                if m.kind(v) != igjit_solver::Kind::SmallInt {
                    saw_non_int = true;
                }
            }
        }
        assert!(saw_non_int);
    }

    #[test]
    fn probes_respect_path_constraints() {
        // Every probe model satisfies its path's recorded condition and
        // the variables' domains, over every curated path of the
        // catalog: it drives the interpreter down the same path with a
        // differently-typed or -signed operand. The base model (index
        // 0) is the walk's own and is not a probe.
        let instrs = instruction_catalog()
            .into_iter()
            .map(|spec| InstrUnderTest::Bytecode(spec.instruction))
            .chain(native_catalog().into_iter().map(|spec| InstrUnderTest::Native(spec.id)));
        let mut checked = 0;
        for instr in instrs {
            let r = Explorer::new().explore(instr);
            for path in r.curated_paths() {
                let problem = r.state.problem_with(&path.constraints);
                let models = probe_models(&r.state, path, DEFAULT_MAX_PROBES);
                for (i, m) in models.iter().enumerate().skip(1) {
                    assert!(
                        check_model(&problem, m),
                        "{instr:?}: probe {i} violates {:?}: {m:?}",
                        path.constraints
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 0, "the catalog has probe models to check");
    }

    #[test]
    fn base_model_comes_first() {
        let r = Explorer::new().explore(InstrUnderTest::Native(NativeMethodId(40)));
        let p = &r.paths[0];
        let models = probe_models(&r.state, p, 4);
        assert_eq!(models[0], p.model);
    }
}
