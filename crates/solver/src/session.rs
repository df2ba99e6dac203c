//! Incremental solving: push/pop assertion scopes.
//!
//! Concolic exploration solves a *tree* of path conditions where every
//! child shares its whole prefix with its parent. A [`Session`] keeps
//! the engine's classification and interval-propagation state alive
//! across [`push`](Session::push)/[`pop`](Session::pop) scopes, so each
//! child costs one constraint assertion plus an incremental propagation
//! round instead of a full rebuild — the push/pop interface popularized
//! by Z3 and used by SMT-driven concolic engines like SAGE.
//!
//! Determinism contract: for any scope state, [`Session::solve`]
//! returns exactly what [`crate::solve`] returns for a [`Problem`]
//! holding the same variables and the same in-scope constraints in
//! assertion order. The campaign's row-for-row reproducibility depends
//! on this; the `session_equivalence` property test enforces it.

use crate::constraint::{Constraint, VarId, VarSpec};
use crate::error::SolveError;
use crate::model::Model;
use crate::search::{
    constraint_is_wide, solve_counted, spec_is_wide, Engine, EngineMark, NormPlan, SearchLimits,
    Store, TrailStats,
};
use crate::{check_model_parts, Problem};

/// Counters describing the work an incremental [`Session`] performed,
/// merged into the campaign metrics (`*.metrics.json`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Total `solve()` calls.
    pub solves: usize,
    /// Solves that produced a model.
    pub sat: usize,
    /// Solves that returned `Unsat`.
    pub unsat: usize,
    /// Search nodes visited across all solves.
    pub nodes_visited: usize,
    /// Solves answered from incrementally-maintained propagation state
    /// (no from-scratch rebuild).
    pub propagation_reuse: usize,
    /// Solves that had to rebuild from scratch (an `ObjEq` entered a
    /// scope, forcing re-aliasing).
    pub rebuilds: usize,
    /// Solves answered by revalidating the previous model
    /// (only with [`Session::set_reuse_models`]).
    pub model_reuse: usize,
    /// Total scopes pushed.
    pub pushes: usize,
    /// Deepest scope stack observed at a solve.
    pub max_depth: usize,
}

impl SessionStats {
    /// Accumulates `other` into `self` (sums; max for depth).
    pub fn merge(&mut self, other: &SessionStats) {
        self.solves += other.solves;
        self.sat += other.sat;
        self.unsat += other.unsat;
        self.nodes_visited += other.nodes_visited;
        self.propagation_reuse += other.propagation_reuse;
        self.rebuilds += other.rebuilds;
        self.model_reuse += other.model_reuse;
        self.pushes += other.pushes;
        self.max_depth = self.max_depth.max(other.max_depth);
    }
}

struct Scope {
    n_constraints: usize,
    saved_wide: usize,
    saved_dirty: bool,
    /// Engine checkpoint taken at push time; `None` while the session
    /// is dirty (the engine is stale and a rebuild decides anyway).
    saved: Option<Checkpoint>,
}

/// A cheap engine checkpoint: the classified-constraint lists are
/// append-only between scopes (sessions never union — aliasing forces
/// the dirty rebuild path), so restoring is a truncation plus
/// unwinding the interval store's undo log to `trail_mark` — pushing
/// costs O(1).
struct Checkpoint {
    mark: EngineMark,
    nvars: usize,
    /// Trail position at push.
    trail_mark: usize,
    conflict: bool,
}

/// A hypothesis pre-classified for repeated [`Session::solve_under`]
/// use: the constraint together with its normalization plan and
/// wide/aliasing flags, built once by the caller and replayed on every
/// solve. A probe sweep tries the same dozen hypotheses against
/// thousands of sibling paths; preparing them hoists the per-solve
/// constraint-tree walk (wideness check plus `assert_into`'s expression
/// normalization) out of the loop.
pub struct PreparedConstraint {
    constraint: Constraint,
    plan: NormPlan,
}

impl PreparedConstraint {
    /// Classifies and normalizes `c` once, for any number of
    /// [`Session::solve_under_prepared`] calls (on any session).
    pub fn new(c: Constraint) -> PreparedConstraint {
        PreparedConstraint { plan: NormPlan::build(&c), constraint: c }
    }

    /// The underlying hypothesis.
    pub fn constraint(&self) -> &Constraint {
        &self.constraint
    }
}

/// An incremental solver session with push/pop assertion scopes.
///
/// Variables are global to the session (they persist across `pop`);
/// constraints belong to the scope they were asserted in. Between
/// scopes the session keeps the classified constraints and the
/// interval store at their propagated fixpoint, so a child scope's
/// solve starts from its parent's propagation instead of from scratch.
pub struct Session {
    specs: Vec<VarSpec>,
    constraints: Vec<Constraint>,
    scopes: Vec<Scope>,
    engine: Engine,
    store: Store,
    /// A hard structural conflict was found while asserting (empty
    /// kind set, aliased-distinct pair, empty interval): solve is
    /// `Unsat` without searching.
    conflict: bool,
    /// A top-level `ObjEq` entered the current scope: aliasing cannot
    /// be asserted incrementally (union-find has no un-union), so
    /// solves rebuild from scratch until the scope pops.
    dirty: bool,
    /// In-scope constraints violating the 56-bit precision gate.
    wide: usize,
    /// Any variable spec violating the precision gate (permanent:
    /// variables are never popped).
    wide_specs: bool,
    limits: SearchLimits,
    last_model: Option<Model>,
    reuse_models: bool,
    /// Retired models ([`Session::recycle_model`]) whose buffers back
    /// the model-reuse fast path's returned copies.
    model_pool: Vec<Model>,
    stats: SessionStats,
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

impl Session {
    /// An empty session with default search limits.
    pub fn new() -> Session {
        Session::with_limits(SearchLimits::default())
    }

    /// An empty session with explicit search limits (applied per
    /// solve, like [`crate::solve_with_limits`]).
    pub fn with_limits(limits: SearchLimits) -> Session {
        let engine = Engine::new(0);
        let mut store = engine.init_store(&[]);
        store.record_trail();
        Session {
            specs: Vec::new(),
            constraints: Vec::new(),
            scopes: Vec::new(),
            engine,
            store,
            conflict: false,
            dirty: false,
            wide: 0,
            wide_specs: false,
            limits,
            last_model: None,
            reuse_models: false,
            model_pool: Vec::new(),
            stats: SessionStats::default(),
        }
    }

    /// The undo-trail and buffer-pool work counters.
    pub fn trail_stats(&self) -> TrailStats {
        self.engine.tstats
    }

    /// Donates a model the caller is done with: its buffer re-backs
    /// future model extractions and reuse-path copies, keeping the
    /// solve → inspect → discard cycle allocation-free once warm.
    pub fn recycle_model(&mut self, m: Model) {
        if self.model_pool.len() < 32 {
            self.model_pool.push(m);
        } else {
            self.engine.recycle_model(m);
        }
    }

    /// Opt into answering solves by revalidating the previous model
    /// against the in-scope constraints before searching.
    ///
    /// This is faster but intentionally **off** by default: a reused
    /// model can differ from the one a fresh search would pick, which
    /// would break the campaign's model-for-model reproducibility.
    pub fn set_reuse_models(&mut self, on: bool) {
        self.reuse_models = on;
    }

    /// Drops the model cached for [`Session::set_reuse_models`]
    /// revalidation. Callers that batch several independent problems
    /// through one session (scoped by push/pop) clear between batches
    /// so a model from one problem can never answer the next — keeping
    /// each batch's solves exactly what a fresh session would return.
    pub fn clear_cached_model(&mut self) {
        if let Some(m) = self.last_model.take() {
            self.recycle_model(m);
        }
    }

    /// Introduces a fresh variable. Variables are session-global: they
    /// survive `pop` (matching the explorer's ever-growing
    /// `AbstractState`).
    pub fn add_var(&mut self, spec: VarSpec) -> VarId {
        let id = VarId(self.specs.len() as u32);
        if spec_is_wide(&spec) {
            self.wide_specs = true;
        }
        self.specs.push(spec);
        id
    }

    /// Appends any variables of `specs` the session does not have yet
    /// (by index). The common caller keeps one growing spec list — the
    /// explorer's abstract state — and re-syncs before each solve.
    pub fn sync_vars(&mut self, specs: &[VarSpec]) {
        for spec in specs.iter().skip(self.specs.len()) {
            self.add_var(*spec);
        }
    }

    /// Number of variables.
    pub fn var_count(&self) -> usize {
        self.specs.len()
    }

    /// Current scope depth (0 = base scope).
    pub fn depth(&self) -> usize {
        self.scopes.len()
    }

    /// The in-scope constraints, in assertion order.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The work counters accumulated so far.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Opens a new assertion scope.
    pub fn push(&mut self) {
        self.stats.pushes += 1;
        let saved = if self.dirty {
            None
        } else {
            self.ensure_synced();
            self.engine.tstats.trail_marks += 1;
            Some(Checkpoint {
                mark: self.engine.mark(),
                nvars: self.engine.var_count(),
                trail_mark: self.store.trail_mark(),
                conflict: self.conflict,
            })
        };
        self.scopes.push(Scope {
            n_constraints: self.constraints.len(),
            saved_wide: self.wide,
            saved_dirty: self.dirty,
            saved,
        });
    }

    /// Asserts a constraint into the current scope.
    pub fn assert(&mut self, c: Constraint) {
        if constraint_is_wide(&c) {
            self.wide += 1;
        }
        let is_objeq = matches!(c, Constraint::ObjEq(..));
        self.constraints.push(c);
        if self.dirty {
            return;
        }
        if is_objeq {
            // Aliasing is a union-find pass; it cannot be undone by a
            // list truncation, so the engine goes stale until this
            // scope pops and solves rebuild from scratch.
            self.dirty = true;
            return;
        }
        if self.conflict {
            return;
        }
        self.ensure_synced();
        let c = self.constraints.last().expect("just pushed").clone();
        let first_new = self.engine.ineq_count();
        if self.engine.assert_into(&c, &mut self.store).is_err()
            || !self.engine.check_distinct_consistency()
            || !self.engine.propagate_new(&mut self.store, first_new)
        {
            self.conflict = true;
        }
    }

    /// `push()` followed by `assert(c)` — the explorer's per-branch step.
    pub fn push_assert(&mut self, c: Constraint) {
        self.push();
        self.assert(c);
    }

    /// Closes the innermost scope, retracting its constraints and
    /// restoring the engine checkpoint taken at `push`.
    ///
    /// # Panics
    /// Panics when no scope is open.
    pub fn pop(&mut self) {
        let scope = self.scopes.pop().expect("pop without matching push");
        self.constraints.truncate(scope.n_constraints);
        self.wide = scope.saved_wide;
        self.dirty = scope.saved_dirty;
        if let Some(cp) = scope.saved {
            self.engine.truncate_to(cp.mark);
            self.engine.truncate_vars(cp.nvars);
            // Unwind the scope's narrowings first (some touch the
            // variable suffix), then drop variables added inside it.
            self.engine.tstats.undone_ops += self.store.undo_to(cp.trail_mark);
            self.store.truncate(cp.nvars);
            self.conflict = cp.conflict;
        }
    }

    /// Solves the conjunction of all in-scope constraints over all
    /// session variables. Equivalent to [`crate::solve_with_limits`]
    /// on the same problem; incremental state only changes how fast
    /// the answer is found.
    pub fn solve(&mut self) -> Result<Model, SolveError> {
        self.stats.solves += 1;
        self.stats.max_depth = self.stats.max_depth.max(self.scopes.len());
        if self.wide > 0 || self.wide_specs {
            return Err(SolveError::PrecisionExceeded);
        }
        if self.reuse_models {
            let hit = match &self.last_model {
                Some(m) => {
                    m.len() == self.specs.len()
                        && check_model_parts(&self.specs, &self.constraints, m)
                }
                None => false,
            };
            if hit {
                self.stats.model_reuse += 1;
                self.stats.sat += 1;
                return Ok(self.pooled_copy_of_last());
            }
        }
        if self.dirty {
            self.stats.rebuilds += 1;
            let (result, nodes) = solve_counted(&self.specs, &self.constraints, self.limits);
            self.stats.nodes_visited += nodes;
            return self.record(result);
        }
        self.stats.propagation_reuse += 1;
        self.ensure_synced();
        if self.conflict {
            return self.record(Err(SolveError::Unsat));
        }
        let mark = self.engine.mark();
        self.engine.nodes_left = self.limits.max_nodes;
        self.engine.tstats.trail_marks += 1;
        let tm = self.store.trail_mark();
        let found = self.engine.search_in_place(&mut self.store);
        self.engine.tstats.undone_ops += self.store.undo_to(tm);
        let nodes = self.limits.max_nodes - self.engine.nodes_left;
        self.stats.nodes_visited += nodes;
        let result = match found {
            Some(model) => Ok(model),
            None => {
                if self.engine.nodes_left == 0 {
                    Err(SolveError::ResourceLimit)
                } else {
                    Err(SolveError::Unsat)
                }
            }
        };
        // The search appends Or-disjunct classifications and returns
        // early on success; restore the scope's classified lists.
        self.engine.truncate_to(mark);
        self.record(result)
    }

    /// Solves the in-scope constraints plus `c` without leaving a
    /// scope behind — observably identical (result, stats, cached
    /// model) to `push(); assert(c); solve(); pop()`, by mirroring
    /// `solve`'s exact branch order (wide gate → model-reuse
    /// revalidation → dirty rebuild → conflict → incremental search).
    ///
    /// The point is cost: the hypothesis is asserted straight into the
    /// live store and the search runs in place, with no scope
    /// bookkeeping. It is the batched sibling-scope primitive behind
    /// the kind-probe sweep, where each curated path tries ~a dozen
    /// sibling hypotheses over a shared prefix.
    pub fn solve_under(&mut self, c: &Constraint) -> Result<Model, SolveError> {
        // The hypothesis is borrowed — probe sweeps re-try the same
        // hypothesis across thousands of sibling paths, and taking it
        // by reference means the caller builds each constraint tree
        // once instead of once per solve.
        let (wide_c, is_objeq) = (constraint_is_wide(c), matches!(c, Constraint::ObjEq(..)));
        self.solve_under_inner(c, wide_c, is_objeq, None)
    }

    /// [`Session::solve_under`] with a caller-prepared hypothesis:
    /// identical results and stats, but the per-solve classification
    /// is replaced by replaying the prepared normalization plan.
    pub fn solve_under_prepared(&mut self, p: &PreparedConstraint) -> Result<Model, SolveError> {
        self.solve_under_inner(&p.constraint, p.plan.wide, p.plan.objeq, Some(&p.plan))
    }

    fn solve_under_inner(
        &mut self,
        c: &Constraint,
        wide_c: bool,
        is_objeq: bool,
        prepared: Option<&NormPlan>,
    ) -> Result<Model, SolveError> {
        self.stats.pushes += 1;
        self.stats.solves += 1;
        self.stats.max_depth = self.stats.max_depth.max(self.scopes.len() + 1);
        if self.wide + usize::from(wide_c) > 0 || self.wide_specs {
            return Err(SolveError::PrecisionExceeded);
        }
        if self.reuse_models {
            // Hypothesis first: it is one constraint and the usual
            // reason reuse fails (a kind-probe sweep asks for a
            // *different* kind than the cached model assigns), so
            // checking it before the full in-scope conjunction
            // short-circuits the common miss. Pure predicates —
            // the reordering cannot change whether reuse fires.
            let hit = match &self.last_model {
                Some(m) => {
                    m.len() == self.specs.len()
                        && check_model_parts(&self.specs, std::slice::from_ref(c), m)
                        && check_model_parts(&self.specs, &self.constraints, m)
                }
                None => false,
            };
            if hit {
                self.stats.model_reuse += 1;
                self.stats.sat += 1;
                return Ok(self.pooled_copy_of_last());
            }
        }
        if self.dirty || is_objeq {
            // Aliasing (or an already-stale engine) rebuilds from
            // scratch exactly as `solve` would with `c` in scope.
            self.stats.rebuilds += 1;
            self.constraints.push(c.clone());
            let (result, nodes) = solve_counted(&self.specs, &self.constraints, self.limits);
            self.constraints.pop();
            self.stats.nodes_visited += nodes;
            return self.record(result);
        }
        self.stats.propagation_reuse += 1;
        self.ensure_synced();
        if self.conflict {
            return self.record(Err(SolveError::Unsat));
        }
        let mark = self.engine.mark();
        let nvars = self.engine.var_count();
        let first_new = self.engine.ineq_count();
        // The hypothesis's narrowings (and whatever the winning search
        // branch leaves behind) unwind with the trail; the engine's
        // classified-list appendices with the truncation.
        self.engine.tstats.trail_marks += 1;
        let tm = self.store.trail_mark();
        let asserted = match prepared {
            Some(plan) => self.engine.apply_norm(plan, &mut self.store).is_ok(),
            None => self.engine.assert_into(c, &mut self.store).is_ok(),
        };
        let result = if !asserted
            || !self.engine.check_distinct_consistency()
            || !self.engine.propagate_new(&mut self.store, first_new)
        {
            Err(SolveError::Unsat)
        } else {
            self.engine.nodes_left = self.limits.max_nodes;
            let found = self.engine.search_in_place(&mut self.store);
            let nodes = self.limits.max_nodes - self.engine.nodes_left;
            self.stats.nodes_visited += nodes;
            match found {
                Some(model) => Ok(model),
                None if self.engine.nodes_left == 0 => Err(SolveError::ResourceLimit),
                None => Err(SolveError::Unsat),
            }
        };
        self.engine.tstats.undone_ops += self.store.undo_to(tm);
        self.engine.truncate_to(mark);
        self.engine.truncate_vars(nvars);
        self.record(result)
    }

    /// The current scope state as a one-shot [`Problem`] (for
    /// equivalence checks and model validation).
    pub fn problem(&self) -> Problem {
        let mut p = Problem::new();
        for spec in &self.specs {
            p.new_var(*spec);
        }
        for c in &self.constraints {
            p.assert(c.clone());
        }
        p
    }

    fn record(&mut self, result: Result<Model, SolveError>) -> Result<Model, SolveError> {
        match &result {
            Ok(m) => {
                self.stats.sat += 1;
                // The cached model only ever feeds the reuse path; skip
                // the per-solve clone when that path is off, and reuse
                // the previous cache's allocations when it is on (a
                // probe sweep records thousands of models here).
                if self.reuse_models {
                    match &mut self.last_model {
                        Some(slot) => {
                            self.engine.tstats.pool_hits += 1;
                            slot.clone_from(m);
                        }
                        None => {
                            let mut slot = self.pooled_model_slot();
                            slot.clone_from(m);
                            self.last_model = Some(slot);
                        }
                    }
                }
            }
            Err(SolveError::Unsat) => self.stats.unsat += 1,
            Err(_) => {}
        }
        result
    }

    /// A retired model from the recycle pool, or a fresh one — counted
    /// as a pool hit/miss either way.
    fn pooled_model_slot(&mut self) -> Model {
        match self.model_pool.pop() {
            Some(m) => {
                self.engine.tstats.pool_hits += 1;
                m
            }
            None => {
                self.engine.tstats.pool_misses += 1;
                Model::default()
            }
        }
    }

    /// A copy of the cached model drawn from the recycle pool
    /// (`clone_from` reuses the retired model's buffer, so a warm
    /// reuse hit allocates nothing).
    fn pooled_copy_of_last(&mut self) -> Model {
        let mut out = self.pooled_model_slot();
        let m = self.last_model.as_ref().expect("reuse hit was checked");
        out.clone_from(m);
        out
    }

    fn ensure_synced(&mut self) {
        for i in self.engine.var_count()..self.specs.len() {
            self.engine.add_var(&self.specs[i], &mut self.store);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{CmpOp, Kind, LinExpr};
    use crate::solve;

    fn le(v: VarId, c: i64) -> Constraint {
        Constraint::Int(CmpOp::Le, LinExpr::var(v), LinExpr::constant(c))
    }

    fn ge(v: VarId, c: i64) -> Constraint {
        Constraint::Int(CmpOp::Ge, LinExpr::var(v), LinExpr::constant(c))
    }

    #[test]
    fn push_pop_restores_satisfiability() {
        let mut s = Session::new();
        let x = s.add_var(VarSpec::any());
        s.assert(ge(x, 10));
        assert!(s.solve().is_ok());
        s.push_assert(le(x, 5)); // contradiction
        assert_eq!(s.solve(), Err(SolveError::Unsat));
        s.pop();
        let m = s.solve().unwrap();
        assert!(m.int_value(x) >= 10);
    }

    #[test]
    fn matches_scratch_solver_on_each_scope() {
        let mut s = Session::new();
        let x = s.add_var(VarSpec::counter(100));
        let y = s.add_var(VarSpec::counter(100));
        let steps =
            [ge(x, 3), le(y, 40), Constraint::Int(CmpOp::Lt, LinExpr::var(x), LinExpr::var(y))];
        for c in steps {
            s.push_assert(c);
            let incremental = s.solve();
            let scratch = solve(&s.problem());
            assert_eq!(incremental, scratch);
        }
        for _ in 0..3 {
            s.pop();
            assert_eq!(s.solve(), solve(&s.problem()));
        }
    }

    #[test]
    fn objeq_forces_rebuild_and_pops_clean(){
        let mut s = Session::new();
        let a = s.add_var(VarSpec::any());
        let b = s.add_var(VarSpec::any());
        s.assert(Constraint::kind_is(a, Kind::Array));
        s.push_assert(Constraint::ObjEq(a, b));
        let m = s.solve().unwrap();
        assert!(m.same_object(a, b));
        assert_eq!(s.stats().rebuilds, 1, "aliasing rebuilds from scratch");
        s.push_assert(Constraint::kind_is(b, Kind::Float));
        assert_eq!(s.solve(), Err(SolveError::Unsat), "aliased kinds conflict");
        s.pop();
        s.pop();
        let m = s.solve().unwrap();
        assert!(!m.same_object(a, b));
        assert!(s.stats().propagation_reuse >= 1);
    }

    #[test]
    fn vars_survive_pop() {
        let mut s = Session::new();
        let x = s.add_var(VarSpec::counter(10));
        s.push();
        let y = s.add_var(VarSpec::counter(10));
        s.assert(ge(y, 2));
        assert!(s.solve().is_ok());
        s.pop();
        // y still exists; its scope constraint is gone.
        let m = s.solve().unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m.int_value(y), 0);
        let _ = x;
    }

    #[test]
    fn precision_gate_is_scoped() {
        let mut s = Session::new();
        let x = s.add_var(VarSpec::any());
        s.push_assert(Constraint::Int(
            CmpOp::Lt,
            LinExpr::var(x),
            LinExpr::constant(1 << 60),
        ));
        assert_eq!(s.solve(), Err(SolveError::PrecisionExceeded));
        s.pop();
        assert!(s.solve().is_ok());
    }

    #[test]
    fn model_reuse_is_opt_in_and_validates() {
        let mut s = Session::new();
        let x = s.add_var(VarSpec::counter(100));
        s.set_reuse_models(true);
        s.assert(ge(x, 5));
        let m1 = s.solve().unwrap();
        // A weaker extra constraint the model already satisfies.
        s.push_assert(ge(x, 1));
        let m2 = s.solve().unwrap();
        assert_eq!(m1, m2);
        assert_eq!(s.stats().model_reuse, 1);
        // A constraint the cached model violates forces a real solve.
        s.push_assert(le(x, 2));
        assert_eq!(s.solve(), Err(SolveError::Unsat));
    }

    #[test]
    fn stats_track_reuse_and_depth() {
        let mut s = Session::new();
        let x = s.add_var(VarSpec::counter(100));
        s.assert(ge(x, 1));
        s.solve().unwrap();
        s.push_assert(ge(x, 2));
        s.push_assert(ge(x, 3));
        s.solve().unwrap();
        let st = s.stats();
        assert_eq!(st.solves, 2);
        assert_eq!(st.sat, 2);
        assert_eq!(st.propagation_reuse, 2);
        assert_eq!(st.rebuilds, 0);
        assert_eq!(st.pushes, 2);
        assert_eq!(st.max_depth, 2);
        assert!(st.nodes_visited >= 2);
    }

    /// Builds a pair of identically-configured sessions with a shared
    /// prefix, runs one hypothesis through `push_assert/solve/pop` on
    /// the first and through `solve_under` on the second, and asserts
    /// the results, the accumulated stats, and a follow-up solve all
    /// match exactly.
    fn assert_solve_under_equivalent(
        reuse_models: bool,
        prefix: &[Constraint],
        hypotheses: &[Constraint],
    ) {
        let build = |rm: bool| {
            let mut s = Session::new();
            s.set_reuse_models(rm);
            let _ = s.add_var(VarSpec::counter(100));
            let _ = s.add_var(VarSpec::any());
            let _ = s.add_var(VarSpec::any());
            s.push();
            for c in prefix {
                s.assert(c.clone());
            }
            s
        };
        let mut quad = build(reuse_models);
        let mut batched = build(reuse_models);
        for h in hypotheses {
            quad.push_assert(h.clone());
            let expected = quad.solve();
            quad.pop();
            let got = batched.solve_under(h);
            assert_eq!(expected, got, "rm={reuse_models} {h:?}");
            assert_eq!(quad.stats(), batched.stats(), "stats diverged: rm={reuse_models} {h:?}");
        }
        // The sessions must be left in indistinguishable states.
        assert_eq!(quad.solve(), batched.solve());
        quad.pop();
        batched.pop();
        assert_eq!(quad.solve(), batched.solve());
    }

    #[test]
    fn solve_under_matches_push_assert_solve_pop() {
        let mut s = Session::new();
        let x = s.add_var(VarSpec::counter(100));
        let y = s.add_var(VarSpec::any());
        drop(s);
        let prefix = [ge(x, 5), Constraint::kind_is(y, Kind::Array)];
        let hypotheses = [
            ge(x, 10),
            le(x, 2), // unsat against the prefix
            Constraint::kind_is(y, Kind::Float), // structural conflict
            Constraint::kind_is(y, Kind::Array), // redundant
            Constraint::ObjEq(x, y), // forces the rebuild path
            Constraint::Int(CmpOp::Lt, LinExpr::var(x), LinExpr::constant(1 << 60)), // wide
            ge(x, 7),
        ];
        for reuse_models in [false, true] {
            assert_solve_under_equivalent(reuse_models, &prefix, &hypotheses);
        }
    }

    #[test]
    fn solve_under_under_dirty_scope_rebuilds_identically() {
        // VarIds 1 and 2 are the `any()` variables of the shared
        // builder in `assert_solve_under_equivalent`.
        let (a, b) = (VarId(1), VarId(2));
        // An ObjEq in the prefix leaves the session dirty; every
        // hypothesis must rebuild exactly like the quadruple.
        let prefix = [Constraint::ObjEq(a, b), Constraint::kind_is(a, Kind::Array)];
        let hypotheses = [
            Constraint::kind_is(b, Kind::Array),
            Constraint::kind_is(b, Kind::Float), // unsat: aliased kinds
        ];
        for reuse_models in [false, true] {
            assert_solve_under_equivalent(reuse_models, &prefix, &hypotheses);
        }
    }

    #[test]
    fn conflict_detected_at_assert_time() {
        let mut s = Session::new();
        let v = s.add_var(VarSpec::any());
        s.assert(Constraint::kind_is(v, Kind::Float));
        s.push_assert(Constraint::kind_is(v, Kind::SmallInt));
        assert_eq!(s.solve(), Err(SolveError::Unsat));
        // The conflicting scope consumed no search nodes.
        assert_eq!(s.stats().nodes_visited, 0);
        s.pop();
        assert_eq!(s.solve().unwrap().kind(v), Kind::Float);
    }
}
