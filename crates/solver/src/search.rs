//! The solving engine: preprocessing, interval propagation and
//! backtracking search.
//!
//! The engine is an *owned* value (no borrow of the input `Problem`),
//! so [`crate::Session`] can checkpoint and restore it across
//! push/pop assertion scopes. One-shot solving builds a fresh engine
//! per call, exactly as before the incremental layer existed.

use crate::constraint::{CmpOp, Constraint, FloatTerm, Kind, KindSet, LinExpr, VarId, VarSpec};
use crate::error::SolveError;
use crate::model::{Assignment, Model};
use crate::PRECISION_BITS;

/// A constraint-satisfaction problem: variables plus asserted
/// constraints.
#[derive(Clone, Debug, Default)]
pub struct Problem {
    specs: Vec<VarSpec>,
    constraints: Vec<Constraint>,
}

impl Problem {
    /// An empty problem.
    pub fn new() -> Problem {
        Problem::default()
    }

    /// Introduces a fresh variable with the given initial domain.
    pub fn new_var(&mut self, spec: VarSpec) -> VarId {
        let id = VarId(self.specs.len() as u32);
        self.specs.push(spec);
        id
    }

    /// Asserts a constraint.
    pub fn assert(&mut self, constraint: Constraint) {
        self.constraints.push(constraint);
    }

    /// Number of variables.
    pub fn var_count(&self) -> usize {
        self.specs.len()
    }

    /// The asserted constraints, in assertion order.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The variable specs, in creation order.
    pub fn specs(&self) -> &[VarSpec] {
        &self.specs
    }
}

/// Resource limits for the backtracking search.
#[derive(Clone, Copy, Debug)]
pub struct SearchLimits {
    /// Maximum number of search nodes visited.
    pub max_nodes: usize,
}

impl Default for SearchLimits {
    fn default() -> Self {
        SearchLimits { max_nodes: 50_000 }
    }
}

/// Solves with default limits.
pub fn solve(problem: &Problem) -> Result<Model, SolveError> {
    solve_with_limits(problem, SearchLimits::default())
}

/// Solves with explicit limits.
pub fn solve_with_limits(problem: &Problem, limits: SearchLimits) -> Result<Model, SolveError> {
    solve_counted(&problem.specs, &problem.constraints, limits).0
}

/// Whether a constraint's constants exceed the 56-bit precision gate.
pub(crate) fn constraint_is_wide(c: &Constraint) -> bool {
    c.max_abs_constant() >= (1i64 << (PRECISION_BITS - 1))
}

/// Whether a spec's bounds exceed the 56-bit precision gate.
pub(crate) fn spec_is_wide(s: &VarSpec) -> bool {
    let cap: i64 = 1 << (PRECISION_BITS - 1);
    s.int_bounds.0.saturating_abs() >= cap || s.int_bounds.1.saturating_abs() >= cap
}

/// From-scratch solve over explicit specs/constraints, also reporting
/// the number of search nodes visited (for [`crate::SessionStats`]).
pub(crate) fn solve_counted(
    specs: &[VarSpec],
    constraints: &[Constraint],
    limits: SearchLimits,
) -> (Result<Model, SolveError>, usize) {
    if constraints.iter().any(constraint_is_wide) || specs.iter().any(spec_is_wide) {
        return (Err(SolveError::PrecisionExceeded), 0);
    }
    let mut engine = Engine::new(0);
    // Pass 1: aliasing (top-level `ObjEq` only).
    engine.grow_roots(specs.len());
    for c in constraints {
        if let Constraint::ObjEq(a, b) = c {
            engine.union(a.0, b.0);
        }
    }
    // Pass 2: build the initial store and classify constraints.
    let mut store = engine.init_store(specs);
    for c in constraints {
        if engine.assert_into(c, &mut store).is_err() {
            return (Err(SolveError::Unsat), 0);
        }
    }
    if !engine.check_distinct_consistency() {
        return (Err(SolveError::Unsat), 0);
    }
    // Pass 3: search.
    engine.nodes_left = limits.max_nodes;
    let result = engine.search(store);
    let nodes_used = limits.max_nodes - engine.nodes_left;
    let result = match result {
        Some(model) => Ok(model),
        None => {
            if engine.nodes_left == 0 {
                Err(SolveError::ResourceLimit)
            } else {
                Err(SolveError::Unsat)
            }
        }
    };
    (result, nodes_used)
}

// ---------------------------------------------------------------------------
// Normalization plans (prepared assertion replay)
// ---------------------------------------------------------------------------

/// One primitive effect of asserting a constraint into the engine.
#[derive(Clone, Debug)]
pub(crate) enum NormOp {
    Kind { var: VarId, allowed: KindSet },
    /// Push a normalized `expr <= 0` inequality.
    Ineq(LinExpr),
    /// Exclude a single value from a variable's domain (unit `Ne`).
    Exclude { var: VarId, value: i64 },
    /// Queue an `Ne` for the leaf check.
    Residual(Constraint),
    /// Queue a float comparison for leaf enumeration.
    FloatC(Constraint),
    /// Record a distinctness pair.
    Distinct(u32, u32),
    /// Queue an `Or` for branching.
    Or(Vec<Constraint>),
}

/// The cached result of classifying one constraint: its normalized
/// engine effects plus the per-assert flags the [`crate::Session`]
/// needs. Built once per [`crate::PreparedConstraint`]; replayed by
/// [`Engine::apply_norm`].
#[derive(Clone, Debug)]
pub(crate) struct NormPlan {
    /// The constraint violates the 56-bit precision gate.
    pub(crate) wide: bool,
    /// The constraint is a top-level `ObjEq` (forces the session's
    /// dirty rebuild path).
    pub(crate) objeq: bool,
    ops: Vec<NormOp>,
}

impl NormPlan {
    /// Normalizes `c` exactly as [`Engine::assert_into`] would on an
    /// alias-free engine.
    pub(crate) fn build(c: &Constraint) -> NormPlan {
        let mut plan = NormPlan {
            wide: constraint_is_wide(c),
            objeq: matches!(c, Constraint::ObjEq(..)),
            ops: Vec::new(),
        };
        plan.push_ops(c);
        plan
    }

    fn push_ops(&mut self, c: &Constraint) {
        match c {
            Constraint::Kind { var, allowed } => {
                self.ops.push(NormOp::Kind { var: *var, allowed: *allowed });
            }
            Constraint::Int(op, l, r) => {
                // Canonical like `Engine::rewrite_expr` on an alias-free
                // engine: merged terms, no zero coefficients (the
                // propagator divides by every coefficient it sees).
                let e = canonical(&l.minus(r));
                match op {
                    CmpOp::Le => self.ops.push(NormOp::Ineq(e)),
                    CmpOp::Lt => self.ops.push(NormOp::Ineq(e.offset(1))),
                    CmpOp::Ge => self.ops.push(NormOp::Ineq(e.negated())),
                    CmpOp::Gt => self.ops.push(NormOp::Ineq(e.negated().offset(1))),
                    CmpOp::Eq => {
                        self.ops.push(NormOp::Ineq(e.clone()));
                        self.ops.push(NormOp::Ineq(e.negated()));
                    }
                    CmpOp::Ne => {
                        if e.terms.len() == 1 && e.terms[0].0.abs() == 1 {
                            let (coeff, v) = e.terms[0];
                            self.ops.push(NormOp::Exclude {
                                var: v,
                                value: -e.constant * coeff.signum(),
                            });
                        }
                        self.ops.push(NormOp::Residual(Constraint::Int(
                            CmpOp::Ne,
                            l.clone(),
                            r.clone(),
                        )));
                    }
                }
            }
            Constraint::Float(..) => self.ops.push(NormOp::FloatC(c.clone())),
            Constraint::ObjEq(..) => {} // aliasing never reaches the incremental engine
            Constraint::ObjNe(a, b) => self.ops.push(NormOp::Distinct(a.0, b.0)),
            Constraint::And(cs) => {
                for c in cs {
                    self.push_ops(c);
                }
            }
            Constraint::Or(cs) => self.ops.push(NormOp::Or(cs.clone())),
        }
    }
}

/// `e` rebuilt term by term through [`LinExpr::plus`], which merges
/// repeated variables and drops zero coefficients — the form
/// [`Engine::rewrite_expr`] produces when no variable is aliased.
fn canonical(e: &LinExpr) -> LinExpr {
    e.terms.iter().fold(LinExpr::constant(e.constant), |acc, &(c, v)| {
        acc.plus(&LinExpr::scaled_var(c, v))
    })
}

// ---------------------------------------------------------------------------
// Internal solver
// ---------------------------------------------------------------------------

/// One recorded interval/kind narrowing, undone in reverse order by
/// [`Store::undo_to`]. The trail turns a hypothesis scope into
/// trail-mark → propagate → search → unwind, replacing the per-scope
/// [`Store`] clone the solver historically paid.
#[derive(Clone, Copy, Debug)]
enum TrailOp {
    /// `lo[var]` was raised; `old` is the previous lower bound.
    Lo { var: u32, old: i64 },
    /// `hi[var]` was lowered; `old` is the previous upper bound.
    Hi { var: u32, old: i64 },
    /// `kinds[var]` was intersected; `old` is the previous set.
    Kind { var: u32, old: KindSet },
    /// One value was pushed onto `excluded[var]`; undo pops it.
    Exclude { var: u32 },
}

/// Counters describing a session's undo-trail and buffer-pool work,
/// exposed through [`crate::Session::trail_stats`] and merged into the
/// campaign metrics. Kept apart from [`crate::SessionStats`], which
/// count solver answers rather than bookkeeping.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrailStats {
    /// Trail marks taken (hypothesis scopes, search branches and
    /// session pushes answered by an undo log instead of a clone).
    pub trail_marks: usize,
    /// Individual narrowings unwound across all scope exits.
    pub undone_ops: usize,
    /// Recycled-buffer reuses: leaf assignment vectors drawn from the
    /// retired-model pool and model copies re-backed by a pooled
    /// buffer.
    pub pool_hits: usize,
    /// The same paths when no retired buffer was available and a fresh
    /// allocation was taken instead.
    pub pool_misses: usize,
}

impl TrailStats {
    /// Accumulates `other` into `self` (plain sums).
    pub fn merge(&mut self, other: &TrailStats) {
        self.trail_marks += other.trail_marks;
        self.undone_ops += other.undone_ops;
        self.pool_hits += other.pool_hits;
        self.pool_misses += other.pool_misses;
    }

    /// The buffer-pool hit rate in [0, 1] (0 when no pooled path ran).
    pub fn pool_hit_rate(&self) -> f64 {
        let total = self.pool_hits + self.pool_misses;
        if total == 0 {
            0.0
        } else {
            self.pool_hits as f64 / total as f64
        }
    }
}

pub(crate) struct Store {
    kinds: Vec<KindSet>,
    lo: Vec<i64>,
    hi: Vec<i64>,
    excluded: Vec<Vec<i64>>,
    /// The undo log. Every mutation of the four vectors above goes
    /// through a recording helper that appends here when `trail_on`;
    /// [`Store::undo_to`] pops back to a mark in reverse. The buffer is
    /// recycled across solves (it only ever truncates), so the SAT
    /// fast path allocates nothing once warm.
    trail: Vec<TrailOp>,
    /// Whether mutations are recorded. On for a [`crate::Session`]'s
    /// store; off for the from-scratch solve, whose search copies the
    /// store per branch and pays one predictable branch per narrowing.
    trail_on: bool,
}

impl Clone for Store {
    fn clone(&self) -> Store {
        Store {
            kinds: self.kinds.clone(),
            lo: self.lo.clone(),
            hi: self.hi.clone(),
            excluded: self.excluded.clone(),
            // Clones are search children / checkpoint copies; they are
            // protected by being copies, never by the trail.
            trail: Vec::new(),
            trail_on: false,
        }
    }

    /// Buffer-reusing copy: `Vec::clone_from` keeps the destination's
    /// allocations, which is what makes [`Engine::clone_store`]'s
    /// recycling pool worthwhile.
    fn clone_from(&mut self, src: &Store) {
        self.kinds.clone_from(&src.kinds);
        self.lo.clone_from(&src.lo);
        self.hi.clone_from(&src.hi);
        self.excluded.clone_from(&src.excluded);
        self.trail.clear();
        self.trail_on = false;
    }
}

impl Store {
    /// Starts recording every mutation on the trail. A session calls
    /// this once, before any recorded mutation.
    pub(crate) fn record_trail(&mut self) {
        self.trail_on = true;
    }

    /// The current trail position; pass back to [`Store::undo_to`].
    pub(crate) fn trail_mark(&self) -> usize {
        self.trail.len()
    }

    /// Unwinds every narrowing recorded since `mark`, newest first,
    /// restoring the store to its exact state at the mark. Returns the
    /// number of operations undone.
    pub(crate) fn undo_to(&mut self, mark: usize) -> usize {
        let undone = self.trail.len() - mark;
        while self.trail.len() > mark {
            match self.trail.pop().expect("trail entry above mark") {
                TrailOp::Lo { var, old } => self.lo[var as usize] = old,
                TrailOp::Hi { var, old } => self.hi[var as usize] = old,
                TrailOp::Kind { var, old } => self.kinds[var as usize] = old,
                TrailOp::Exclude { var } => {
                    self.excluded[var as usize].pop();
                }
            }
        }
        undone
    }

    /// Drops variables added after a checkpoint (the trail-mode
    /// counterpart of swapping in the checkpoint's store copy). Undo
    /// to the scope's trail mark *first*: trail entries may touch the
    /// to-be-truncated suffix.
    pub(crate) fn truncate(&mut self, n: usize) {
        self.kinds.truncate(n);
        self.lo.truncate(n);
        self.hi.truncate(n);
        self.excluded.truncate(n);
    }

    /// `kinds[r] = ks`, recorded.
    #[inline]
    fn set_kind(&mut self, r: usize, ks: KindSet) {
        if self.trail_on {
            self.trail.push(TrailOp::Kind { var: r as u32, old: self.kinds[r] });
        }
        self.kinds[r] = ks;
    }

    /// `lo[i] = bound`, recorded.
    #[inline]
    fn set_lo(&mut self, i: usize, bound: i64) {
        if self.trail_on {
            self.trail.push(TrailOp::Lo { var: i as u32, old: self.lo[i] });
        }
        self.lo[i] = bound;
    }

    /// `hi[i] = bound`, recorded.
    #[inline]
    fn set_hi(&mut self, i: usize, bound: i64) {
        if self.trail_on {
            self.trail.push(TrailOp::Hi { var: i as u32, old: self.hi[i] });
        }
        self.hi[i] = bound;
    }

    /// `excluded[i].push(value)`, recorded.
    #[inline]
    fn push_excluded(&mut self, i: usize, value: i64) {
        if self.trail_on {
            self.trail.push(TrailOp::Exclude { var: i as u32 });
        }
        self.excluded[i].push(value);
    }
}

/// Snapshot of the engine's classified-constraint list lengths; the
/// search appends to these while branching `Or`s and — on success —
/// returns without truncating, so incremental callers restore them.
#[derive(Clone, Copy)]
pub(crate) struct EngineMark {
    inequalities: usize,
    residual: usize,
    ors: usize,
    floats: usize,
    distinct: usize,
}

#[derive(Clone)]
pub(crate) struct Engine {
    nvars: usize,
    root: Vec<u32>,
    distinct: Vec<(u32, u32)>,
    /// Linear inequalities, normalized to `expr <= 0`, with vars
    /// rewritten to alias roots.
    inequalities: Vec<LinExpr>,
    /// `Ne` constraints kept for the leaf check.
    residual: Vec<Constraint>,
    /// `Or` constraints to branch on (disjuncts unflattened).
    ors: Vec<Vec<Constraint>>,
    floats: Vec<Constraint>,
    pub(crate) nodes_left: usize,
    /// Retired [`Store`]s, recycled by [`Engine::clone_store`] so the
    /// search's per-branch copies reuse their buffers instead of
    /// re-allocating four vectors per node.
    pool: Vec<Store>,
    /// Monotone counter bumped by every mutation that could stale the
    /// memoized interesting-roots mask (constraint list changes,
    /// variable growth, aliasing).
    generation: u64,
    /// Generation [`Engine::refresh_interesting`] last computed at.
    interesting_gen: u64,
    /// Per-root flag: some in-engine constraint mentions the root, so
    /// the search must branch on it rather than pin it at the leaf.
    interesting: Vec<bool>,
    /// Trail-mode and pool work counters (see [`TrailStats`]).
    pub(crate) tstats: TrailStats,
    /// Scratch buffers for [`Engine::build_leaf`], recycled across
    /// solves so extracting a model does not allocate once warm.
    leaf_ints: Vec<i64>,
    leaf_kinds: Vec<Kind>,
    leaf_floats: Vec<f64>,
    /// Retired assignment buffers ([`crate::Session::recycle_model`]),
    /// reused by [`Engine::build_leaf`] for the models it returns.
    apool: Vec<Vec<Assignment>>,
}

impl Engine {
    pub(crate) fn new(nvars: usize) -> Engine {
        Engine {
            nvars,
            root: (0..nvars as u32).collect(),
            distinct: Vec::new(),
            inequalities: Vec::new(),
            residual: Vec::new(),
            ors: Vec::new(),
            floats: Vec::new(),
            nodes_left: 0,
            pool: Vec::new(),
            generation: 1,
            interesting_gen: 0,
            interesting: Vec::new(),
            tstats: TrailStats::default(),
            leaf_ints: Vec::new(),
            leaf_kinds: Vec::new(),
            leaf_floats: Vec::new(),
            apool: Vec::new(),
        }
    }

    /// A copy of `src` drawn from the recycling pool when possible
    /// (`clone_from` reuses the retired store's buffers).
    pub(crate) fn clone_store(&mut self, src: &Store) -> Store {
        match self.pool.pop() {
            Some(mut s) => {
                self.tstats.pool_hits += 1;
                s.clone_from(src);
                s
            }
            None => {
                self.tstats.pool_misses += 1;
                src.clone()
            }
        }
    }

    /// Retires a model's assignment buffer for [`Engine::build_leaf`]
    /// reuse (bounded, to cap idle memory).
    pub(crate) fn recycle_model(&mut self, m: Model) {
        if self.apool.len() < 32 {
            self.apool.push(m.into_assignments());
        }
    }

    /// Retires a store into the pool (bounded, to cap idle memory).
    pub(crate) fn recycle_store(&mut self, s: Store) {
        if self.pool.len() < 32 {
            self.pool.push(s);
        }
    }

    /// Number of classified inequalities (the [`Engine::propagate_new`]
    /// suffix cursor).
    pub(crate) fn ineq_count(&self) -> usize {
        self.inequalities.len()
    }

    pub(crate) fn var_count(&self) -> usize {
        self.nvars
    }

    fn grow_roots(&mut self, n: usize) {
        while self.nvars < n {
            self.root.push(self.nvars as u32);
            self.nvars += 1;
        }
    }

    /// Appends one variable to an engine *and* its live store (the
    /// incremental path; the one-shot path initializes in bulk).
    pub(crate) fn add_var(&mut self, spec: &VarSpec, store: &mut Store) {
        self.generation += 1;
        self.root.push(self.nvars as u32);
        self.nvars += 1;
        store.kinds.push(KindSet::ANY.intersect(spec.kinds));
        store.lo.push((i64::MIN / 4).max(spec.int_bounds.0));
        store.hi.push((i64::MAX / 4).min(spec.int_bounds.1));
        store.excluded.push(Vec::new());
    }

    pub(crate) fn init_store(&self, specs: &[VarSpec]) -> Store {
        let n = self.nvars;
        let mut store = Store {
            kinds: vec![KindSet::ANY; n],
            lo: vec![i64::MIN / 4; n],
            hi: vec![i64::MAX / 4; n],
            excluded: vec![Vec::new(); n],
            trail: Vec::new(),
            trail_on: false,
        };
        for (i, spec) in specs.iter().enumerate() {
            let r = self.find(i as u32) as usize;
            store.kinds[r] = store.kinds[r].intersect(spec.kinds);
            store.lo[r] = store.lo[r].max(spec.int_bounds.0);
            store.hi[r] = store.hi[r].min(spec.int_bounds.1);
        }
        store
    }

    pub(crate) fn mark(&self) -> EngineMark {
        EngineMark {
            inequalities: self.inequalities.len(),
            residual: self.residual.len(),
            ors: self.ors.len(),
            floats: self.floats.len(),
            distinct: self.distinct.len(),
        }
    }

    pub(crate) fn truncate_to(&mut self, mark: EngineMark) {
        self.generation += 1;
        self.inequalities.truncate(mark.inequalities);
        self.residual.truncate(mark.residual);
        self.ors.truncate(mark.ors);
        self.floats.truncate(mark.floats);
        self.distinct.truncate(mark.distinct);
    }

    /// Drops variables back to a count recorded before they were
    /// added. Sound because union-find roots always have smaller ids
    /// than their children, so the surviving prefix never references a
    /// truncated entry — and because sessions never union at all
    /// (aliasing goes through the from-scratch rebuild path).
    pub(crate) fn truncate_vars(&mut self, n: usize) {
        self.generation += 1;
        self.root.truncate(n);
        self.nvars = n;
    }

    fn find(&self, v: u32) -> u32 {
        let mut v = v;
        while self.root[v as usize] != v {
            v = self.root[v as usize];
        }
        v
    }

    fn union(&mut self, a: u32, b: u32) {
        self.generation += 1;
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Keep the smaller id as root for determinism.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.root[hi as usize] = lo;
        }
    }

    fn rewrite_expr(&self, e: &LinExpr) -> LinExpr {
        let mut out = LinExpr::constant(e.constant);
        for &(c, v) in &e.terms {
            out = out.plus(&LinExpr::scaled_var(c, VarId(self.find(v.0))));
        }
        out
    }

    pub(crate) fn check_distinct_consistency(&self) -> bool {
        self.distinct.iter().all(|&(a, b)| self.find(a) != self.find(b))
    }

    /// Asserts `c` into the store (kinds, inequalities) or queues it
    /// for branching/leaf checking. Returns Err only on hard
    /// structural unsatisfiability.
    pub(crate) fn assert_into(
        &mut self,
        c: &Constraint,
        store: &mut Store,
    ) -> Result<(), SolveError> {
        self.generation += 1;
        match c {
            Constraint::Kind { var, allowed } => {
                let r = self.find(var.0) as usize;
                store.set_kind(r, store.kinds[r].intersect(*allowed));
                if store.kinds[r].is_empty() {
                    return Err(SolveError::Unsat);
                }
            }
            Constraint::Int(op, l, r) => {
                let e = self.rewrite_expr(&l.minus(r));
                match op {
                    CmpOp::Le => self.inequalities.push(e),
                    CmpOp::Lt => self.inequalities.push(e.offset(1)),
                    CmpOp::Ge => self.inequalities.push(e.negated()),
                    CmpOp::Gt => self.inequalities.push(e.negated().offset(1)),
                    CmpOp::Eq => {
                        self.inequalities.push(e.clone());
                        self.inequalities.push(e.negated());
                    }
                    CmpOp::Ne => {
                        if e.terms.len() == 1 && e.terms[0].0.abs() == 1 {
                            let (coeff, v) = e.terms[0];
                            let excl = -e.constant * coeff.signum();
                            store.push_excluded(v.index(), excl);
                        }
                        self.residual.push(Constraint::Int(CmpOp::Ne, l.clone(), r.clone()));
                    }
                }
            }
            Constraint::Float(..) => self.floats.push(c.clone()),
            Constraint::ObjEq(..) => {} // handled in the aliasing pass
            Constraint::ObjNe(a, b) => self.distinct.push((a.0, b.0)),
            Constraint::And(cs) => {
                for c in cs {
                    self.assert_into(c, store)?;
                }
            }
            Constraint::Or(cs) => self.ors.push(cs.clone()),
        }
        Ok(())
    }

    /// Replays a pre-normalized assertion plan into the engine and
    /// store. Behaviorally identical to [`Engine::assert_into`] on the
    /// plan's source constraint **provided the engine has performed no
    /// aliasing** (every root is itself) — which holds for every
    /// [`crate::Session`], since sessions route `ObjEq` through the
    /// from-scratch rebuild path instead of unioning.
    pub(crate) fn apply_norm(&mut self, plan: &NormPlan, store: &mut Store) -> Result<(), SolveError> {
        self.generation += 1;
        for op in &plan.ops {
            match op {
                NormOp::Kind { var, allowed } => {
                    let r = self.find(var.0) as usize;
                    store.set_kind(r, store.kinds[r].intersect(*allowed));
                    if store.kinds[r].is_empty() {
                        return Err(SolveError::Unsat);
                    }
                }
                NormOp::Ineq(e) => self.inequalities.push(e.clone()),
                NormOp::Exclude { var, value } => store.push_excluded(var.index(), *value),
                NormOp::Residual(c) => self.residual.push(c.clone()),
                NormOp::FloatC(c) => self.floats.push(c.clone()),
                NormOp::Distinct(a, b) => self.distinct.push((*a, *b)),
                NormOp::Or(cs) => self.ors.push(cs.clone()),
            }
        }
        Ok(())
    }

    /// Interval propagation to fixpoint; returns false on an empty
    /// domain. For a store already at fixpoint with
    /// respect to `inequalities[..first_new]`: the first pass scans
    /// only the appended suffix — a pass over the older prefix would
    /// provably change nothing (its bounds are already tight, and
    /// asserts never touch `lo`/`hi` directly) — and any tightening
    /// falls back to full fixpoint passes. With `first_new == 0` this
    /// is exactly the historical full propagation.
    pub(crate) fn propagate_new(&self, store: &mut Store, first_new: usize) -> bool {
        let mut start = first_new;
        for _round in 0..64 {
            let mut changed = false;
            for e in &self.inequalities[start..] {
                // Pure-constant infeasibility.
                if e.terms.is_empty() {
                    if e.constant > 0 {
                        return false;
                    }
                    continue;
                }
                // e <= 0; tighten every variable's bound. The sum of
                // per-term minimum contributions is computed once and
                // each variable's rhs derived by subtracting its own
                // contribution: tightening term `v` always moves the
                // bound its own contribution does *not* read (a
                // positive coefficient reads `lo` but tightens `hi`,
                // and vice versa), so contributions never go stale
                // within one pass and this matches the quadratic
                // per-term rescan exactly.
                let mut total_min: i128 = 0;
                for &(c2, v2) in &e.terms {
                    let (lo, hi) = (store.lo[v2.index()] as i128, store.hi[v2.index()] as i128);
                    if lo > hi {
                        return false;
                    }
                    total_min += if c2 >= 0 { c2 as i128 * lo } else { c2 as i128 * hi };
                }
                for &(coeff, v) in &e.terms {
                    let i = v.index();
                    let (lo, hi) = (store.lo[i] as i128, store.hi[i] as i128);
                    let own_min = if coeff >= 0 { coeff as i128 * lo } else { coeff as i128 * hi };
                    // coeff*v <= -constant - sum(other terms' minima)
                    let rhs_hi = -(e.constant as i128) - (total_min - own_min);
                    if coeff > 0 {
                        // v <= floor(rhs_hi / coeff); unit coefficients
                        // (the common case) skip the 128-bit division.
                        let bound = if coeff == 1 { rhs_hi } else { rhs_hi.div_euclid(coeff as i128) };
                        let bound = bound.clamp(i64::MIN as i128, i64::MAX as i128) as i64;
                        if bound < store.hi[i] {
                            store.set_hi(i, bound);
                            changed = true;
                        }
                    } else {
                        // coeff < 0: v >= ceil(rhs_hi / coeff), and
                        // flooring by a negative divisor is exactly
                        // that ceiling.
                        let bound = if coeff == -1 {
                            -rhs_hi
                        } else {
                            rhs_hi.div_euclid(coeff as i128)
                        };
                        let bound = bound.clamp(i64::MIN as i128, i64::MAX as i128) as i64;
                        if bound > store.lo[i] {
                            store.set_lo(i, bound);
                            changed = true;
                        }
                    }
                    if store.lo[i] > store.hi[i] {
                        return false;
                    }
                }
            }
            if !changed {
                break;
            }
            start = 0;
        }
        true
    }

    /// Search from a freshly built store (the from-scratch solve): the
    /// root node propagates every inequality, and every branch works
    /// on its own copy of the store.
    pub(crate) fn search(&mut self, mut store: Store) -> Option<Model> {
        let pending_ors: Vec<usize> = (0..self.ors.len()).collect();
        let result = self.search_inner(&mut store, &pending_ors, 0);
        self.recycle_store(store);
        result
    }

    /// The incremental session's search, from a store already at its
    /// propagated fixpoint: it runs *in place* on the session's live
    /// store, recording every narrowing on its trail instead of
    /// isolating branches in cloned stores. The caller takes a trail
    /// mark before and unwinds to it after (success leaves the winning
    /// branch's narrowings on the store — the model was already
    /// extracted).
    ///
    /// Visits the same nodes in the same order as the copying search on
    /// the same input, by construction: each disjunct/candidate starts
    /// from the identical parent fixpoint, restored by `undo_to` where
    /// the copying search starts a fresh copy.
    pub(crate) fn search_in_place(&mut self, store: &mut Store) -> Option<Model> {
        let first_new = self.inequalities.len();
        let pending_ors: Vec<usize> = (0..self.ors.len()).collect();
        self.search_inner_in_place(store, &pending_ors, first_new)
    }

    fn search_inner(
        &mut self,
        store: &mut Store,
        pending_ors: &[usize],
        first_new: usize,
    ) -> Option<Model> {
        if self.nodes_left == 0 {
            return None;
        }
        self.nodes_left -= 1;
        if !self.propagate_new(store, first_new) {
            return None;
        }
        // Branch on the first pending Or. The disjunct list is moved
        // out (and restored on every exit) rather than cloned: the
        // recursion below never reads `ors[oi]` — pending indices only
        // ever point at other entries.
        if let Some((&oi, rest)) = pending_ors.split_first() {
            let disjuncts = std::mem::take(&mut self.ors[oi]);
            let mut result = None;
            for d in &disjuncts {
                let mut child = self.clone_store(store);
                let saved = self.mark();
                let ok = self.assert_into(d, &mut child).is_ok();
                // Newly nested Ors get appended; include them in pending.
                let mut new_pending: Vec<usize> = rest.to_vec();
                new_pending.extend(saved.ors..self.ors.len());
                let r = if ok && self.check_distinct_consistency() {
                    // The child store was cloned at this node's
                    // fixpoint; only the disjunct's inequalities are
                    // new to it.
                    self.search_inner(&mut child, &new_pending, saved.inequalities)
                } else {
                    None
                };
                self.recycle_store(child);
                if r.is_some() {
                    result = r;
                    break;
                }
                self.truncate_to(saved);
            }
            self.ors[oi] = disjuncts;
            return result;
        }
        // All Ors decided: assign integer variables.
        self.refresh_interesting(store.lo.len());
        let unassigned = (0..store.lo.len())
            .filter(|&i| self.find(i as u32) as usize == i)
            .find(|&i| store.lo[i] < store.hi[i] && self.interesting[i]);
        if let Some(i) = unassigned {
            let (lo, hi) = (store.lo[i], store.hi[i]);
            let mut candidates = vec![];
            if lo <= 0 && hi >= 0 {
                candidates.push(0);
            }
            if lo <= 1 && hi >= 1 {
                candidates.push(1);
            }
            candidates.push(lo);
            candidates.push(hi);
            candidates.push(lo.midpoint(hi));
            candidates.dedup();
            let mut tried = Vec::new();
            for v in candidates {
                let excluded = &store.excluded[i];
                let v = if excluded.contains(&v) {
                    // Nudge off an excluded value, staying in bounds.
                    let mut w = v;
                    while excluded.contains(&w) && w < hi {
                        w += 1;
                    }
                    if excluded.contains(&w) {
                        continue;
                    }
                    w
                } else {
                    v
                };
                if tried.contains(&v) {
                    continue;
                }
                tried.push(v);
                let mut child = self.clone_store(store);
                child.lo[i] = v;
                child.hi[i] = v;
                // The assignment moved `lo`/`hi` directly, which the
                // suffix trick cannot see: re-propagate everything.
                let r = self.search_inner(&mut child, &[], 0);
                self.recycle_store(child);
                if r.is_some() {
                    return r;
                }
            }
            return None;
        }
        // Leaf: pin remaining unbounded roots to their lower bound.
        let leaf = self.build_leaf(store)?;
        Some(leaf)
    }

    /// [`Engine::search_inner`] with trail-based backtracking: a
    /// branch is trail-mark → assert → recurse → unwind instead of a
    /// store clone per disjunct/candidate. Mirrors the copying search
    /// statement for statement (same node budget decrements, same
    /// branch order, same candidate selection), which is what makes a
    /// session answer exactly like the from-scratch solve; keep the two
    /// in sync when touching either.
    fn search_inner_in_place(
        &mut self,
        store: &mut Store,
        pending_ors: &[usize],
        first_new: usize,
    ) -> Option<Model> {
        if self.nodes_left == 0 {
            return None;
        }
        self.nodes_left -= 1;
        if !self.propagate_new(store, first_new) {
            return None;
        }
        if let Some((&oi, rest)) = pending_ors.split_first() {
            let disjuncts = std::mem::take(&mut self.ors[oi]);
            let mut result = None;
            for d in &disjuncts {
                let tm = store.trail_mark();
                self.tstats.trail_marks += 1;
                let saved = self.mark();
                let ok = self.assert_into(d, store).is_ok();
                let mut new_pending: Vec<usize> = rest.to_vec();
                new_pending.extend(saved.ors..self.ors.len());
                let r = if ok && self.check_distinct_consistency() {
                    self.search_inner_in_place(store, &new_pending, saved.inequalities)
                } else {
                    None
                };
                if r.is_some() {
                    // Success: like the copying search, return without
                    // restoring — the caller's top-level unwind does.
                    result = r;
                    break;
                }
                self.tstats.undone_ops += store.undo_to(tm);
                self.truncate_to(saved);
            }
            self.ors[oi] = disjuncts;
            return result;
        }
        // All Ors decided: assign integer variables.
        self.refresh_interesting(store.lo.len());
        let unassigned = (0..store.lo.len())
            .filter(|&i| self.find(i as u32) as usize == i)
            .find(|&i| store.lo[i] < store.hi[i] && self.interesting[i]);
        if let Some(i) = unassigned {
            let (lo, hi) = (store.lo[i], store.hi[i]);
            let mut candidates = vec![];
            if lo <= 0 && hi >= 0 {
                candidates.push(0);
            }
            if lo <= 1 && hi >= 1 {
                candidates.push(1);
            }
            candidates.push(lo);
            candidates.push(hi);
            candidates.push(lo.midpoint(hi));
            candidates.dedup();
            let mut tried = Vec::new();
            for v in candidates {
                // `excluded[i]` is back at the parent fixpoint here:
                // a failed candidate's narrowings were unwound below.
                let excluded = &store.excluded[i];
                let v = if excluded.contains(&v) {
                    let mut w = v;
                    while excluded.contains(&w) && w < hi {
                        w += 1;
                    }
                    if excluded.contains(&w) {
                        continue;
                    }
                    w
                } else {
                    v
                };
                if tried.contains(&v) {
                    continue;
                }
                tried.push(v);
                let tm = store.trail_mark();
                self.tstats.trail_marks += 1;
                store.set_lo(i, v);
                store.set_hi(i, v);
                let r = self.search_inner_in_place(store, &[], 0);
                if r.is_some() {
                    return r;
                }
                self.tstats.undone_ops += store.undo_to(tm);
            }
            return None;
        }
        let leaf = self.build_leaf(store)?;
        Some(leaf)
    }

    /// Recomputes the interesting-roots mask (a variable matters for
    /// search when a constraint mentions its root; all others can be
    /// pinned to their default at the leaf) unless the memoized one is
    /// still current. One pass over the constraint lists per engine
    /// mutation, instead of the historical per-node, per-variable scan.
    fn refresh_interesting(&mut self, n: usize) {
        if self.interesting_gen == self.generation && self.interesting.len() == n {
            return;
        }
        let mut mask = std::mem::take(&mut self.interesting);
        mask.clear();
        mask.resize(n, false);
        for e in &self.inequalities {
            for &(_, v) in &e.terms {
                let r = self.find(v.0) as usize;
                if r < n {
                    mask[r] = true;
                }
            }
        }
        let mut vs = Vec::new();
        for c in &self.residual {
            vs.clear();
            c.vars(&mut vs);
            for v in &vs {
                let r = self.find(v.0) as usize;
                if r < n {
                    mask[r] = true;
                }
            }
        }
        self.interesting = mask;
        self.interesting_gen = self.generation;
    }

    /// Extracts a model at a search leaf. The integer/kind/float
    /// working vectors are engine-owned scratch (recycled across
    /// solves) and the returned model's assignment buffer is drawn
    /// from the [`Engine::recycle_model`] pool, so a warm SAT solve
    /// allocates nothing here.
    fn build_leaf(&mut self, store: &Store) -> Option<Model> {
        let mut ints = std::mem::take(&mut self.leaf_ints);
        let mut kinds = std::mem::take(&mut self.leaf_kinds);
        let mut floats = std::mem::take(&mut self.leaf_floats);
        let result = self.build_leaf_into(store, &mut ints, &mut kinds, &mut floats);
        self.leaf_ints = ints;
        self.leaf_kinds = kinds;
        self.leaf_floats = floats;
        result
    }

    fn build_leaf_into(
        &mut self,
        store: &Store,
        ints: &mut Vec<i64>,
        kinds: &mut Vec<Kind>,
        float_vals: &mut Vec<f64>,
    ) -> Option<Model> {
        let n = store.lo.len();
        // Integer assignment: clamp a preferred default into bounds.
        ints.clear();
        ints.resize(n, 0i64);
        for (i, slot) in ints.iter_mut().enumerate() {
            let r = self.find(i as u32) as usize;
            let (lo, hi) = (store.lo[r], store.hi[r]);
            if lo > hi {
                return None;
            }
            let mut v = 0i64.clamp(lo, hi);
            let excluded = &store.excluded[r];
            if excluded.contains(&v) {
                let mut w = v;
                while excluded.contains(&w) && w < hi {
                    w += 1;
                }
                if excluded.contains(&w) {
                    w = v;
                    while excluded.contains(&w) && w > lo {
                        w -= 1;
                    }
                }
                if excluded.contains(&w) {
                    return None;
                }
                v = w;
            }
            *slot = v;
        }
        // Kind assignment per root; prefer the first kind in the set.
        kinds.clear();
        kinds.resize(n, Kind::SmallInt);
        for (i, slot) in kinds.iter_mut().enumerate() {
            let r = self.find(i as u32) as usize;
            *slot = store.kinds[r].first()?;
        }
        // Float assignment: enumerate candidates.
        if !self.solve_floats_into(float_vals) {
            return None;
        }
        // Residual Ne check.
        let eval_int = |v: VarId| ints[self.find(v.0) as usize];
        for c in &self.residual {
            if let Constraint::Int(CmpOp::Ne, l, r) = c {
                if l.eval(eval_int) == r.eval(eval_int) {
                    return None;
                }
            }
        }
        // Distinctness is structural; aliasing already validated.
        let mut assignments = match self.apool.pop() {
            Some(a) => {
                self.tstats.pool_hits += 1;
                a
            }
            None => {
                self.tstats.pool_misses += 1;
                Vec::new()
            }
        };
        assignments.clear();
        for (i, &kind) in kinds.iter().enumerate().take(n) {
            let r = self.find(i as u32);
            assignments.push(Assignment {
                kind,
                int: ints[r as usize],
                float: float_vals[r as usize],
                alias: r,
            });
        }
        Some(Model::new(assignments))
    }

    /// Fills `vals` with a satisfying float assignment (one value per
    /// variable). Returns false when the float constraints cannot be
    /// satisfied from the candidate pool.
    fn solve_floats_into(&self, vals: &mut Vec<f64>) -> bool {
        let n = self.nvars;
        vals.clear();
        vals.resize(n, 1.5f64);
        if self.floats.is_empty() {
            return true;
        }
        // Collect the float variables mentioned.
        let mut fvars: Vec<usize> = Vec::new();
        let mut pool: Vec<f64> = vec![0.0, 1.5, -2.5, 3.25, 100.25, -0.5];
        for c in &self.floats {
            if let Constraint::Float(_, l, r) = c {
                for t in [l, r] {
                    match t {
                        FloatTerm::Var(v) => {
                            let root = self.find(v.0) as usize;
                            if !fvars.contains(&root) {
                                fvars.push(root);
                            }
                        }
                        FloatTerm::Const(c) => {
                            for d in [-1.0, 0.0, 1.0] {
                                let cand = c + d;
                                if !pool.iter().any(|p| p == &cand) {
                                    pool.push(cand);
                                }
                            }
                        }
                    }
                }
            }
        }
        // Brute-force up to 4 variables over the pool.
        if fvars.len() > 4 {
            return false;
        }
        let check = |vals: &Vec<f64>| {
            self.floats.iter().all(|c| match c {
                Constraint::Float(op, l, r) => {
                    let get = |t: &FloatTerm| match t {
                        FloatTerm::Var(v) => vals[self.find(v.0) as usize],
                        FloatTerm::Const(c) => *c,
                    };
                    op.holds_float(get(l), get(r))
                }
                _ => true,
            })
        };
        fn assign(
            fvars: &[usize],
            pool: &[f64],
            vals: &mut Vec<f64>,
            check: &dyn Fn(&Vec<f64>) -> bool,
        ) -> bool {
            match fvars.split_first() {
                None => check(vals),
                Some((&v, rest)) => {
                    for &cand in pool {
                        vals[v] = cand;
                        if assign(rest, pool, vals, check) {
                            return true;
                        }
                    }
                    false
                }
            }
        }
        if assign(&fvars, &pool, vals, &check) {
            // Propagate root values to aliased members.
            let out: Vec<f64> = (0..n).map(|i| vals[self.find(i as u32) as usize]).collect();
            *vals = out;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SMALL_INT_MAX, SMALL_INT_MIN};

    #[test]
    fn trivial_problem_solves() {
        let p = Problem::new();
        let m = solve(&p).unwrap();
        assert!(m.is_empty());
    }

    #[test]
    fn single_kind_constraint() {
        let mut p = Problem::new();
        let v = p.new_var(VarSpec::any());
        p.assert(Constraint::kind_is(v, Kind::Float));
        let m = solve(&p).unwrap();
        assert_eq!(m.kind(v), Kind::Float);
    }

    #[test]
    fn contradictory_kinds_are_unsat() {
        let mut p = Problem::new();
        let v = p.new_var(VarSpec::any());
        p.assert(Constraint::kind_is(v, Kind::Float));
        p.assert(Constraint::kind_is(v, Kind::SmallInt));
        assert_eq!(solve(&p), Err(SolveError::Unsat));
    }

    #[test]
    fn integer_bounds_propagate() {
        let mut p = Problem::new();
        let x = p.new_var(VarSpec::any());
        p.assert(Constraint::Int(CmpOp::Ge, LinExpr::var(x), LinExpr::constant(10)));
        p.assert(Constraint::Int(CmpOp::Lt, LinExpr::var(x), LinExpr::constant(12)));
        let m = solve(&p).unwrap();
        assert!((10..12).contains(&m.int_value(x)));
    }

    #[test]
    fn overflow_pair_is_found() {
        // The classic bytecodePrimAdd overflow path of Table 1.
        let mut p = Problem::new();
        let x = p.new_var(VarSpec::any());
        let y = p.new_var(VarSpec::any());
        p.assert(Constraint::kind_is(x, Kind::SmallInt));
        p.assert(Constraint::kind_is(y, Kind::SmallInt));
        let sum = LinExpr::var(x).plus(&LinExpr::var(y));
        p.assert(Constraint::not_in_small_int_range(sum));
        let m = solve(&p).unwrap();
        let s = m.int_value(x) + m.int_value(y);
        assert!(!(SMALL_INT_MIN..=SMALL_INT_MAX).contains(&s), "sum {s} in range");
    }

    #[test]
    fn equality_pins_value() {
        let mut p = Problem::new();
        let x = p.new_var(VarSpec::any());
        p.assert(Constraint::Int(CmpOp::Eq, LinExpr::var(x), LinExpr::constant(-77)));
        let m = solve(&p).unwrap();
        assert_eq!(m.int_value(x), -77);
    }

    #[test]
    fn disequality_avoids_value() {
        let mut p = Problem::new();
        let x = p.new_var(VarSpec::counter(3));
        p.assert(Constraint::Int(CmpOp::Ne, LinExpr::var(x), LinExpr::constant(0)));
        let m = solve(&p).unwrap();
        assert_ne!(m.int_value(x), 0);
        assert!((0..=3).contains(&m.int_value(x)));
    }

    #[test]
    fn unsat_interval() {
        let mut p = Problem::new();
        let x = p.new_var(VarSpec::any());
        p.assert(Constraint::Int(CmpOp::Gt, LinExpr::var(x), LinExpr::constant(5)));
        p.assert(Constraint::Int(CmpOp::Lt, LinExpr::var(x), LinExpr::constant(5)));
        assert_eq!(solve(&p), Err(SolveError::Unsat));
    }

    #[test]
    fn or_branches_are_explored() {
        let mut p = Problem::new();
        let x = p.new_var(VarSpec::counter(100));
        // (x > 50) or (x == 7), but also x < 20 — forces the second branch.
        p.assert(Constraint::Or(vec![
            Constraint::Int(CmpOp::Gt, LinExpr::var(x), LinExpr::constant(50)),
            Constraint::Int(CmpOp::Eq, LinExpr::var(x), LinExpr::constant(7)),
        ]));
        p.assert(Constraint::Int(CmpOp::Lt, LinExpr::var(x), LinExpr::constant(20)));
        let m = solve(&p).unwrap();
        assert_eq!(m.int_value(x), 7);
    }

    #[test]
    fn object_identity_aliases() {
        let mut p = Problem::new();
        let a = p.new_var(VarSpec::any());
        let b = p.new_var(VarSpec::any());
        let c = p.new_var(VarSpec::any());
        p.assert(Constraint::ObjEq(a, b));
        p.assert(Constraint::ObjNe(a, c));
        p.assert(Constraint::kind_is(a, Kind::Array));
        let m = solve(&p).unwrap();
        assert!(m.same_object(a, b));
        assert!(!m.same_object(a, c));
        assert_eq!(m.kind(b), Kind::Array, "aliased vars share kind");
    }

    #[test]
    fn aliased_distinct_is_unsat() {
        let mut p = Problem::new();
        let a = p.new_var(VarSpec::any());
        let b = p.new_var(VarSpec::any());
        p.assert(Constraint::ObjEq(a, b));
        p.assert(Constraint::ObjNe(a, b));
        assert_eq!(solve(&p), Err(SolveError::Unsat));
    }

    #[test]
    fn float_comparison_solved_from_pool() {
        let mut p = Problem::new();
        let x = p.new_var(VarSpec::any());
        let y = p.new_var(VarSpec::any());
        p.assert(Constraint::kind_is(x, Kind::Float));
        p.assert(Constraint::kind_is(y, Kind::Float));
        p.assert(Constraint::Float(CmpOp::Lt, FloatTerm::Var(x), FloatTerm::Var(y)));
        p.assert(Constraint::Float(CmpOp::Gt, FloatTerm::Var(x), FloatTerm::Const(0.0)));
        let m = solve(&p).unwrap();
        assert!(m.float_value(x) < m.float_value(y));
        assert!(m.float_value(x) > 0.0);
    }

    #[test]
    fn precision_gate_rejects_wide_integers() {
        let mut p = Problem::new();
        let x = p.new_var(VarSpec::any());
        p.assert(Constraint::Int(CmpOp::Lt, LinExpr::var(x), LinExpr::constant(1 << 60)));
        assert_eq!(solve(&p), Err(SolveError::PrecisionExceeded));
    }

    #[test]
    fn kind_negation_prefers_float_over_object() {
        // Negating isSmallInteger(v) should produce a *typed* object,
        // not bit-twiddled garbage (§3.3 of the paper).
        let mut p = Problem::new();
        let v = p.new_var(VarSpec::any());
        p.assert(Constraint::kind_is_not(v, Kind::SmallInt));
        let m = solve(&p).unwrap();
        assert_ne!(m.kind(v), Kind::SmallInt);
    }

    #[test]
    fn counter_vars_start_at_zero() {
        let mut p = Problem::new();
        let size = p.new_var(VarSpec::counter(100));
        let m = solve(&p).unwrap();
        assert_eq!(m.int_value(size), 0, "unconstrained counters pick 0");
    }

    #[test]
    fn stack_growth_scenario() {
        // Fig. 2: negating operand_stack_size <= 1 yields size >= 2.
        let mut p = Problem::new();
        let size = p.new_var(VarSpec::counter(100));
        p.assert(
            Constraint::Int(CmpOp::Le, LinExpr::var(size), LinExpr::constant(1)).negated(),
        );
        let m = solve(&p).unwrap();
        assert!(m.int_value(size) >= 2);
    }

    #[test]
    fn three_var_linear_combination() {
        let mut p = Problem::new();
        let a = p.new_var(VarSpec::int_in(0, 10));
        let b = p.new_var(VarSpec::int_in(0, 10));
        let c = p.new_var(VarSpec::int_in(0, 10));
        // a + 2b - c == 9, a < b
        let lhs = LinExpr::var(a)
            .plus(&LinExpr::scaled_var(2, b))
            .minus(&LinExpr::var(c));
        p.assert(Constraint::Int(CmpOp::Eq, lhs, LinExpr::constant(9)));
        p.assert(Constraint::Int(CmpOp::Lt, LinExpr::var(a), LinExpr::var(b)));
        let m = solve(&p).unwrap();
        let (va, vb, vc) = (m.int_value(a), m.int_value(b), m.int_value(c));
        assert_eq!(va + 2 * vb - vc, 9);
        assert!(va < vb);
    }

    #[test]
    fn resource_limit_reported() {
        let mut p = Problem::new();
        // A chain of interlocking disjunctions to blow the node budget.
        let vars: Vec<_> = (0..12).map(|_| p.new_var(VarSpec::int_in(0, 1000))).collect();
        for w in vars.windows(2) {
            p.assert(Constraint::Or(vec![
                Constraint::Int(CmpOp::Lt, LinExpr::var(w[0]), LinExpr::var(w[1])),
                Constraint::Int(CmpOp::Gt, LinExpr::var(w[0]), LinExpr::var(w[1])),
            ]));
        }
        // Contradiction at the end so it must exhaust branches.
        p.assert(Constraint::Int(CmpOp::Lt, LinExpr::var(vars[0]), LinExpr::constant(0)));
        let r = solve_with_limits(&p, SearchLimits { max_nodes: 10 });
        assert!(matches!(r, Err(SolveError::ResourceLimit) | Err(SolveError::Unsat)));
    }
}
