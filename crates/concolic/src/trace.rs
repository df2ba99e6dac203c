//! The tracing `VmContext`: concrete execution + constraint recording.
//!
//! Every predicate the interpreter evaluates returns its **concrete**
//! truth value (so execution proceeds exactly as the plain interpreter
//! would) and records the corresponding **semantic constraint** (§3.3)
//! into the path condition — the positive form of whatever actually
//! held, so the explorer can negate any step later.
//!
//! Divergence discipline: the recorded path is always *what actually
//! happened* in this concrete run. When a model assigns something the
//! materializer cannot represent exactly (e.g. a negative external
//! address), the next run simply records the path it really took —
//! the standard concolic treatment of divergences.

use igjit_heap::{ClassIndex, ObjectFormat, ObjectMemory};
use igjit_interp::{AllocFault, CmpKind, Frame, MemFault, VmContext};
use igjit_solver::{CmpOp, Constraint, FloatTerm, KindSet, LinExpr, VarId};

use crate::state::{byte_kinds, kind_for_class, pointer_slot_kinds, AbstractState};
use crate::sym::{ExprId, Origin, SymFloat, SymInt, SymOop};

/// The concolic execution context (one per path execution).
pub struct ConcolicContext<'a> {
    mem: &'a mut ObjectMemory,
    state: &'a mut AbstractState,
    exprs: Vec<LinExpr>,
    path: Vec<Constraint>,
    /// Writes performed on abstract objects during this run, so later
    /// reads observe them instead of the (input) slot variables.
    slot_overlay: Vec<((VarId, i64), SymOop)>,
    /// Operand-stack depth at the start of the run. Instructions
    /// mutate the stack, so depth constraints must be expressed
    /// against the *original* `operand_stack_size` variable:
    /// `stack_size >= depth + 1 - (current_depth - initial_depth)`.
    initial_stack_depth: usize,
}

fn cmp_op(op: CmpKind) -> CmpOp {
    match op {
        CmpKind::Lt => CmpOp::Lt,
        CmpKind::Le => CmpOp::Le,
        CmpKind::Gt => CmpOp::Gt,
        CmpKind::Ge => CmpOp::Ge,
        CmpKind::Eq => CmpOp::Eq,
        CmpKind::Ne => CmpOp::Ne,
    }
}

impl<'a> ConcolicContext<'a> {
    /// Creates a context over a freshly materialized heap.
    /// `initial_stack_depth` is the materialized frame's operand-stack
    /// depth before any instruction ran.
    pub fn new(
        mem: &'a mut ObjectMemory,
        state: &'a mut AbstractState,
        initial_stack_depth: usize,
    ) -> ConcolicContext<'a> {
        ConcolicContext {
            mem,
            state,
            exprs: Vec::new(),
            path: Vec::new(),
            slot_overlay: Vec::new(),
            initial_stack_depth,
        }
    }

    /// Consumes the context, yielding the recorded path condition.
    pub fn take_path(self) -> Vec<Constraint> {
        self.path
    }

    /// A read-only view of the path recorded so far.
    pub fn path(&self) -> &[Constraint] {
        &self.path
    }

    fn intern(&mut self, e: LinExpr) -> ExprId {
        let id = ExprId(self.exprs.len() as u32);
        self.exprs.push(e);
        id
    }

    fn expr_of(&self, n: SymInt) -> LinExpr {
        match n.expr {
            Some(id) => self.exprs[id.0 as usize].clone(),
            None => LinExpr::constant(n.concrete),
        }
    }

    fn record(&mut self, c: Constraint) {
        if !self.path.contains(&c) {
            self.path.push(c);
        }
    }

    /// Records `c` when `truth` holds, its negation otherwise —
    /// always the form that was actually observed.
    fn record_observed(&mut self, truth: bool, c: Constraint) {
        let c = if truth { c } else { c.negated() };
        self.record(c);
    }

    /// Records an integer comparison unless it is variable-free.
    fn record_int_cmp(&mut self, truth: bool, op: CmpOp, l: LinExpr, r: LinExpr) {
        if l.terms.is_empty() && r.terms.is_empty() {
            return;
        }
        self.record_observed(truth, Constraint::Int(op, l, r));
    }

    fn kind_facts(&mut self, v: SymOop, allowed: KindSet, truth: bool) {
        if let Origin::Var(var) = v.origin {
            self.record_observed(truth, Constraint::Kind { var, allowed });
        }
    }

    /// Classifies the receiver of a slot access: is it a
    /// pointer-slot-bearing object, and what are its size/index exprs.
    fn slot_access(
        &mut self,
        v: SymOop,
        idx: SymInt,
    ) -> Result<(Option<VarId>, LinExpr), MemFault> {
        let var = v.as_var();
        let has_slots = self
            .mem
            .format_of(v.concrete)
            .map(|f| f.has_pointer_slots())
            .unwrap_or(false);
        if let Some(var) = var {
            self.record_observed(has_slots, Constraint::Kind { var, allowed: pointer_slot_kinds() });
        }
        if !has_slots {
            return Err(MemFault);
        }
        let size = self.mem.element_count(v.concrete).map_err(|_| MemFault)?;
        let size_expr = match var {
            Some(var) => LinExpr::var(self.state.size_var_of(var)),
            None => LinExpr::constant(i64::from(size)),
        };
        let idx_expr = self.expr_of(idx);
        let in_bounds = idx.concrete >= 0 && idx.concrete < i64::from(size);
        if idx.concrete < 0 {
            self.record_int_cmp(true, CmpOp::Lt, idx_expr.clone(), LinExpr::constant(0));
        } else {
            self.record_int_cmp(true, CmpOp::Ge, idx_expr.clone(), LinExpr::constant(0));
            // size > idx on success, size <= idx on bounds failure.
            self.record_int_cmp(in_bounds, CmpOp::Gt, size_expr, idx_expr.clone());
        }
        if !in_bounds {
            return Err(MemFault);
        }
        Ok((var, idx_expr))
    }

    /// Bounds bookkeeping for byte/word element accesses.
    fn element_access(
        &mut self,
        v: SymOop,
        idx: SymInt,
        want_bytes: bool,
    ) -> Result<(), MemFault> {
        let var = v.as_var();
        let fmt = self.mem.format_of(v.concrete).ok();
        let matches = match fmt {
            Some(f) if want_bytes => f.is_bytes(),
            Some(ObjectFormat::Words) if !want_bytes => true,
            _ => false,
        };
        if let Some(var) = var {
            let set = if want_bytes {
                byte_kinds()
            } else {
                KindSet::of(&[igjit_solver::Kind::WordArray])
            };
            self.record_observed(matches, Constraint::Kind { var, allowed: set });
        }
        if !matches {
            return Err(MemFault);
        }
        let size = self.mem.element_count(v.concrete).map_err(|_| MemFault)?;
        let size_expr = match var {
            Some(var) => LinExpr::var(self.state.size_var_of(var)),
            None => LinExpr::constant(i64::from(size)),
        };
        let idx_expr = self.expr_of(idx);
        let in_bounds = idx.concrete >= 0 && idx.concrete < i64::from(size);
        if idx.concrete < 0 {
            self.record_int_cmp(true, CmpOp::Lt, idx_expr, LinExpr::constant(0));
        } else {
            self.record_int_cmp(true, CmpOp::Ge, idx_expr.clone(), LinExpr::constant(0));
            self.record_int_cmp(in_bounds, CmpOp::Gt, size_expr, idx_expr);
        }
        if in_bounds {
            Ok(())
        } else {
            Err(MemFault)
        }
    }

    fn overlay_get(&self, var: VarId, idx: i64) -> Option<SymOop> {
        self.slot_overlay
            .iter()
            .rev()
            .find(|(k, _)| *k == (var, idx))
            .map(|(_, v)| *v)
    }
}

impl VmContext for ConcolicContext<'_> {
    type V = SymOop;
    type N = SymInt;
    type F = SymFloat;

    fn nil(&mut self) -> SymOop {
        SymOop::constant(self.mem.nil())
    }
    fn true_obj(&mut self) -> SymOop {
        SymOop::constant(self.mem.true_object())
    }
    fn false_obj(&mut self) -> SymOop {
        SymOop::constant(self.mem.false_object())
    }
    fn int_const(&mut self, v: i64) -> SymInt {
        SymInt { concrete: v, expr: None }
    }
    fn small_int_obj(&mut self, v: i64) -> SymOop {
        SymOop::constant(igjit_heap::Oop::from_small_int(v))
    }

    fn is_integer_object(&mut self, v: SymOop) -> bool {
        let truth = v.concrete.is_small_int();
        self.kind_facts(v, KindSet::only(igjit_solver::Kind::SmallInt), truth);
        truth
    }

    fn has_class(&mut self, v: SymOop, class: ClassIndex) -> bool {
        let truth = self.mem.class_index_of(v.concrete) == class;
        if let Some(kind) = kind_for_class(class) {
            self.kind_facts(v, KindSet::only(kind), truth);
        }
        truth
    }

    fn is_integer_value(&mut self, n: SymInt) -> bool {
        let truth = (igjit_solver::SMALL_INT_MIN..=igjit_solver::SMALL_INT_MAX)
            .contains(&n.concrete);
        if n.expr.is_some() {
            let e = self.expr_of(n);
            let c = if truth {
                Constraint::in_small_int_range(e)
            } else {
                Constraint::not_in_small_int_range(e)
            };
            self.record(c);
        }
        truth
    }

    fn int_cmp(&mut self, op: CmpKind, a: SymInt, b: SymInt) -> bool {
        let truth = op.holds_int(a.concrete, b.concrete);
        let (ea, eb) = (self.expr_of(a), self.expr_of(b));
        let solver_op = cmp_op(op);
        let op_held = if truth { solver_op } else { solver_op.negated() };
        self.record_int_cmp(true, op_held, ea, eb);
        truth
    }

    fn float_cmp(&mut self, op: CmpKind, a: SymFloat, b: SymFloat) -> bool {
        let truth = op.holds_float(a.concrete, b.concrete);
        let ta = a.term.unwrap_or(FloatTerm::Const(a.concrete));
        let tb = b.term.unwrap_or(FloatTerm::Const(b.concrete));
        if a.term.is_some() || b.term.is_some() {
            let solver_op = cmp_op(op);
            let op_held = if truth { solver_op } else { solver_op.negated() };
            self.record(Constraint::Float(op_held, ta, tb));
        }
        truth
    }

    fn value_identical(&mut self, a: SymOop, b: SymOop) -> bool {
        let truth = a.concrete == b.concrete;
        if let (Origin::Var(va), Origin::Var(vb)) = (a.origin, b.origin) {
            if va != vb {
                let c = if truth {
                    Constraint::ObjEq(va, vb)
                } else {
                    Constraint::ObjNe(va, vb)
                };
                self.record(c);
            }
        }
        truth
    }

    fn integer_value_of(&mut self, v: SymOop) -> SymInt {
        let concrete = v.concrete.small_int_value();
        let expr = match v.origin {
            // The int attribute of an input variable *is* its untagged
            // value (when its kind is SmallInt; otherwise this run
            // diverges, which is recorded faithfully).
            Origin::Var(var) => Some(self.intern(LinExpr::var(var))),
            Origin::DerivedInt(e) => Some(e),
            _ => None,
        };
        SymInt { concrete, expr }
    }

    fn integer_object_of(&mut self, n: SymInt) -> SymOop {
        let concrete = igjit_heap::Oop::try_from_small_int(n.concrete)
            .unwrap_or_else(|| igjit_heap::Oop::from_small_int(n.concrete.clamp(
                igjit_heap::SMALL_INT_MIN,
                igjit_heap::SMALL_INT_MAX,
            )));
        let origin = match n.expr {
            Some(e) => Origin::DerivedInt(e),
            None => Origin::Const,
        };
        SymOop { concrete, origin }
    }

    fn float_value_of(&mut self, v: SymOop) -> SymFloat {
        let concrete = self.mem.float_value_unchecked(v.concrete).unwrap_or(f64::NAN);
        let term = match v.origin {
            Origin::Var(var) => Some(FloatTerm::Var(var)),
            Origin::DerivedFloat(t) => Some(t),
            _ => None,
        };
        SymFloat { concrete, term }
    }

    fn new_float(&mut self, f: SymFloat) -> Result<SymOop, AllocFault> {
        let oop = self.mem.instantiate_float(f.concrete).map_err(|_| AllocFault)?;
        let origin = match f.term {
            Some(t) => Origin::DerivedFloat(t),
            None => Origin::Const,
        };
        Ok(SymOop { concrete: oop, origin })
    }

    fn int_to_float(&mut self, n: SymInt) -> SymFloat {
        // Int→float conversion has no solver theory; concretized.
        SymFloat { concrete: n.concrete as f64, term: None }
    }

    fn float_to_int(&mut self, f: SymFloat) -> SymInt {
        SymInt { concrete: f.concrete.trunc() as i64, expr: None }
    }

    fn float_fits_small_int(&mut self, f: SymFloat) -> bool {
        f.concrete.is_finite()
            && f.concrete.trunc() >= igjit_heap::SMALL_INT_MIN as f64
            && f.concrete.trunc() <= igjit_heap::SMALL_INT_MAX as f64
    }

    fn int_add(&mut self, a: SymInt, b: SymInt) -> SymInt {
        let concrete = a.concrete + b.concrete;
        let expr = if a.expr.is_some() || b.expr.is_some() {
            let e = self.expr_of(a).plus(&self.expr_of(b));
            Some(self.intern(e))
        } else {
            None
        };
        SymInt { concrete, expr }
    }

    fn int_sub(&mut self, a: SymInt, b: SymInt) -> SymInt {
        let concrete = a.concrete - b.concrete;
        let expr = if a.expr.is_some() || b.expr.is_some() {
            let e = self.expr_of(a).minus(&self.expr_of(b));
            Some(self.intern(e))
        } else {
            None
        };
        SymInt { concrete, expr }
    }

    fn int_mul(&mut self, a: SymInt, b: SymInt) -> SymInt {
        let concrete = a.concrete.saturating_mul(b.concrete);
        // Linear only when one side is a constant. Zero terms are
        // dropped (scaling by a concrete 0 leaves none): the solver's
        // propagator divides by every coefficient it sees.
        let scale = |e: LinExpr, k: i64| LinExpr {
            constant: e.constant * k,
            terms: e.terms.iter().map(|&(c, v)| (c * k, v)).filter(|t| t.0 != 0).collect(),
        };
        let expr = match (a.expr, b.expr) {
            (Some(_), None) => {
                let scaled = scale(self.expr_of(a), b.concrete);
                Some(self.intern(scaled))
            }
            (None, Some(_)) => {
                let scaled = scale(self.expr_of(b), a.concrete);
                Some(self.intern(scaled))
            }
            _ => None, // nonlinear: concretized
        };
        SymInt { concrete, expr }
    }

    fn int_div_floor(&mut self, a: SymInt, b: SymInt) -> SymInt {
        // Floored (Smalltalk `//`), matching the concrete context.
        let q = a.concrete / b.concrete;
        let q = if a.concrete % b.concrete != 0 && (a.concrete ^ b.concrete) < 0 {
            q - 1
        } else {
            q
        };
        SymInt { concrete: q, expr: None }
    }
    fn int_div_trunc(&mut self, a: SymInt, b: SymInt) -> SymInt {
        SymInt { concrete: a.concrete / b.concrete, expr: None }
    }
    fn int_mod_floor(&mut self, a: SymInt, b: SymInt) -> SymInt {
        let r = a.concrete % b.concrete;
        let r = if r != 0 && (r ^ b.concrete) < 0 { r + b.concrete } else { r };
        SymInt { concrete: r, expr: None }
    }
    fn int_bit_and(&mut self, a: SymInt, b: SymInt) -> SymInt {
        // No bitwise theory (§4.3): concretized.
        SymInt { concrete: a.concrete & b.concrete, expr: None }
    }
    fn int_bit_or(&mut self, a: SymInt, b: SymInt) -> SymInt {
        SymInt { concrete: a.concrete | b.concrete, expr: None }
    }
    fn int_bit_xor(&mut self, a: SymInt, b: SymInt) -> SymInt {
        SymInt { concrete: a.concrete ^ b.concrete, expr: None }
    }
    fn int_shift(&mut self, a: SymInt, b: SymInt) -> SymInt {
        let concrete = if b.concrete >= 0 {
            a.concrete.checked_shl(b.concrete.min(62) as u32).unwrap_or(0)
        } else {
            a.concrete >> (-b.concrete).min(62)
        };
        SymInt { concrete, expr: None }
    }

    fn float_add(&mut self, a: SymFloat, b: SymFloat) -> SymFloat {
        SymFloat { concrete: a.concrete + b.concrete, term: None }
    }
    fn float_sub(&mut self, a: SymFloat, b: SymFloat) -> SymFloat {
        SymFloat { concrete: a.concrete - b.concrete, term: None }
    }
    fn float_mul(&mut self, a: SymFloat, b: SymFloat) -> SymFloat {
        SymFloat { concrete: a.concrete * b.concrete, term: None }
    }
    fn float_div(&mut self, a: SymFloat, b: SymFloat) -> SymFloat {
        SymFloat { concrete: a.concrete / b.concrete, term: None }
    }
    fn float_fraction_part(&mut self, f: SymFloat) -> SymFloat {
        SymFloat { concrete: f.concrete.fract(), term: None }
    }
    fn float_exponent(&mut self, f: SymFloat) -> SymInt {
        let e = if f.concrete == 0.0 || !f.concrete.is_finite() {
            0
        } else {
            f.concrete.abs().log2().floor() as i64
        };
        SymInt { concrete: e, expr: None }
    }
    fn int_bits_to_f32(&mut self, bits: SymInt) -> SymFloat {
        SymFloat { concrete: f64::from(f32::from_bits(bits.concrete as u32)), term: None }
    }
    fn int_bits_to_f64(&mut self, lo: SymInt, hi: SymInt) -> SymFloat {
        let bits = (lo.concrete as u32 as u64) | ((hi.concrete as u32 as u64) << 32);
        SymFloat { concrete: f64::from_bits(bits), term: None }
    }
    fn float_to_bits(&mut self, f: SymFloat, single: bool) -> (SymInt, SymInt) {
        let (lo, hi) = if single {
            (i64::from((f.concrete as f32).to_bits()), 0)
        } else {
            let bits = f.concrete.to_bits();
            (i64::from(bits as u32), i64::from((bits >> 32) as u32))
        };
        (SymInt { concrete: lo, expr: None }, SymInt { concrete: hi, expr: None })
    }

    fn slot_count(&mut self, v: SymOop) -> Result<SymInt, MemFault> {
        let has_slots = self
            .mem
            .format_of(v.concrete)
            .map(|f| f.has_pointer_slots() || f == ObjectFormat::ZeroSized)
            .unwrap_or(false);
        if let Some(var) = v.as_var() {
            let set = pointer_slot_kinds().union(KindSet::of(&[
                igjit_solver::Kind::Nil,
                igjit_solver::Kind::True,
                igjit_solver::Kind::False,
            ]));
            self.record_observed(has_slots, Constraint::Kind { var, allowed: set });
        }
        if !has_slots {
            return Err(MemFault);
        }
        let size = self.mem.element_count(v.concrete).map_err(|_| MemFault)?;
        let expr = v
            .as_var()
            .map(|var| {
                let sv = self.state.size_var_of(var);
                self.intern(LinExpr::var(sv))
            });
        Ok(SymInt { concrete: i64::from(size), expr })
    }

    fn byte_count(&mut self, v: SymOop) -> Result<SymInt, MemFault> {
        let is_bytes = self.mem.format_of(v.concrete).map(|f| f.is_bytes()).unwrap_or(false);
        if let Some(var) = v.as_var() {
            self.record_observed(is_bytes, Constraint::Kind { var, allowed: byte_kinds() });
        }
        if !is_bytes {
            return Err(MemFault);
        }
        let size = self.mem.byte_count(v.concrete).map_err(|_| MemFault)?;
        let expr = v.as_var().map(|var| {
            let sv = self.state.size_var_of(var);
            self.intern(LinExpr::var(sv))
        });
        Ok(SymInt { concrete: i64::from(size), expr })
    }

    fn element_count(&mut self, v: SymOop) -> Result<SymInt, MemFault> {
        let size = self.mem.element_count(v.concrete).map_err(|_| MemFault)?;
        let expr = v.as_var().map(|var| {
            let sv = self.state.size_var_of(var);
            self.intern(LinExpr::var(sv))
        });
        Ok(SymInt { concrete: i64::from(size), expr })
    }

    fn fetch_slot(&mut self, v: SymOop, idx: SymInt) -> Result<SymOop, MemFault> {
        let (var, _idx_expr) = self.slot_access(v, idx)?;
        let concrete = self
            .mem
            .fetch_pointer(v.concrete, idx.concrete as u32)
            .map_err(|_| MemFault)?;
        if let Some(var) = var {
            if let Some(written) = self.overlay_get(var, idx.concrete) {
                return Ok(written);
            }
            if let Some(slot_var) = self.state.slot_var_of(var, idx.concrete) {
                return Ok(SymOop::var(concrete, slot_var));
            }
        }
        Ok(SymOop::constant(concrete))
    }

    fn store_slot(&mut self, v: SymOop, idx: SymInt, value: SymOop) -> Result<(), MemFault> {
        let (var, _idx_expr) = self.slot_access(v, idx)?;
        self.mem
            .store_pointer(v.concrete, idx.concrete as u32, value.concrete)
            .map_err(|_| MemFault)?;
        if let Some(var) = var {
            self.slot_overlay.push(((var, idx.concrete), value));
        }
        Ok(())
    }

    fn fetch_byte(&mut self, v: SymOop, idx: SymInt) -> Result<SymInt, MemFault> {
        self.element_access(v, idx, true)?;
        let b = self
            .mem
            .fetch_byte(v.concrete, idx.concrete as u32)
            .map_err(|_| MemFault)?;
        Ok(SymInt { concrete: i64::from(b), expr: None })
    }

    fn store_byte(&mut self, v: SymOop, idx: SymInt, value: SymInt) -> Result<(), MemFault> {
        self.element_access(v, idx, true)?;
        self.mem
            .store_byte(v.concrete, idx.concrete as u32, value.concrete as u8)
            .map_err(|_| MemFault)
    }

    fn fetch_word(&mut self, v: SymOop, idx: SymInt) -> Result<SymInt, MemFault> {
        self.element_access(v, idx, false)?;
        let w = self
            .mem
            .fetch_word(v.concrete, idx.concrete as u32)
            .map_err(|_| MemFault)?;
        Ok(SymInt { concrete: i64::from(w), expr: None })
    }

    fn store_word(&mut self, v: SymOop, idx: SymInt, value: SymInt) -> Result<(), MemFault> {
        self.element_access(v, idx, false)?;
        self.mem
            .store_word(v.concrete, idx.concrete as u32, value.concrete as u32)
            .map_err(|_| MemFault)
    }

    fn identity_hash(&mut self, v: SymOop) -> Result<SymInt, MemFault> {
        if v.concrete.is_small_int() {
            return Ok(SymInt { concrete: v.concrete.small_int_value(), expr: None });
        }
        let h = self.mem.identity_hash(v.concrete).map_err(|_| MemFault)?;
        Ok(SymInt { concrete: i64::from(h), expr: None })
    }

    fn class_index_as_int(&mut self, v: SymOop) -> SymInt {
        let idx = self.mem.class_index_of(v.concrete);
        // Pin the kind so the recorded path is replayable.
        if let (Some(var), Some(kind)) = (v.as_var(), kind_for_class(idx)) {
            self.record(Constraint::Kind { var, allowed: KindSet::only(kind) });
        }
        SymInt { concrete: i64::from(idx.value()), expr: None }
    }

    fn allocate(
        &mut self,
        class: ClassIndex,
        format: ObjectFormat,
        count: SymInt,
    ) -> Result<SymOop, AllocFault> {
        let count = u32::try_from(count.concrete).map_err(|_| AllocFault)?;
        if count > 1 << 20 {
            return Err(AllocFault);
        }
        let oop = self.mem.allocate(class, format, count).map_err(|_| AllocFault)?;
        Ok(SymOop::constant(oop))
    }

    fn external_address_of(&mut self, v: SymOop) -> Result<SymInt, MemFault> {
        let addr = self.mem.external_address_of(v.concrete).map_err(|_| MemFault)?;
        let expr = v.as_var().map(|var| self.intern(LinExpr::var(var)));
        Ok(SymInt { concrete: i64::from(addr), expr })
    }

    fn new_external_address(&mut self, addr: SymInt) -> Result<SymOop, AllocFault> {
        let a = u32::try_from(addr.concrete).map_err(|_| AllocFault)?;
        let oop = self.mem.instantiate_external_address(a).map_err(|_| AllocFault)?;
        Ok(SymOop::constant(oop))
    }

    fn ext_read(&mut self, addr: SymInt, width: u32, signed: bool) -> Result<SymInt, MemFault> {
        let len = self.mem.external().len() as i64;
        let e = self.expr_of(addr);
        let nonneg = addr.concrete >= 0;
        let fits = addr.concrete + i64::from(width) <= len;
        if addr.concrete < 0 {
            self.record_int_cmp(true, CmpOp::Lt, e, LinExpr::constant(0));
            return Err(MemFault);
        }
        self.record_int_cmp(nonneg, CmpOp::Ge, e.clone(), LinExpr::constant(0));
        self.record_int_cmp(fits, CmpOp::Le, e.offset(i64::from(width)), LinExpr::constant(len));
        if !fits {
            return Err(MemFault);
        }
        let raw = if signed {
            self.mem
                .external()
                .read_int(addr.concrete as u32, width)
                .map(i64::from)
                .map_err(|_| MemFault)?
        } else {
            self.mem
                .external()
                .read_uint(addr.concrete as u32, width)
                .map(i64::from)
                .map_err(|_| MemFault)?
        };
        Ok(SymInt { concrete: raw, expr: None })
    }

    fn ext_write(&mut self, addr: SymInt, width: u32, value: SymInt) -> Result<(), MemFault> {
        let len = self.mem.external().len() as i64;
        let e = self.expr_of(addr);
        let nonneg = addr.concrete >= 0;
        let fits = addr.concrete + i64::from(width) <= len;
        if addr.concrete < 0 {
            self.record_int_cmp(true, CmpOp::Lt, e, LinExpr::constant(0));
            return Err(MemFault);
        }
        self.record_int_cmp(nonneg, CmpOp::Ge, e.clone(), LinExpr::constant(0));
        self.record_int_cmp(fits, CmpOp::Le, e.offset(i64::from(width)), LinExpr::constant(len));
        if !fits {
            return Err(MemFault);
        }
        self.mem
            .external_mut()
            .write_uint(addr.concrete as u32, width, value.concrete as u32)
            .map_err(|_| MemFault)
    }

    fn stack_value(&mut self, frame: &Frame<SymOop>, depth: usize) -> Result<SymOop, MemFault> {
        let available = frame.depth() > depth;
        // Express the requirement against the ORIGINAL stack size: the
        // run may have pushed/popped since materialization.
        let delta = frame.depth() as i64 - self.initial_stack_depth as i64;
        let orig_needed = depth as i64 + 1 - delta;
        if orig_needed > 0 {
            // Make sure the variable exists so growth can materialize it.
            self.state.stack_var_at((orig_needed - 1) as usize);
            let size = LinExpr::var(self.state.stack_size);
            let need = LinExpr::constant(orig_needed);
            self.record_int_cmp(available, CmpOp::Ge, size, need);
        }
        if available {
            Ok(frame.stack_at_depth(depth))
        } else {
            Err(MemFault)
        }
    }

    fn temp(&mut self, frame: &Frame<SymOop>, index: usize) -> Result<SymOop, MemFault> {
        let available = frame.temps.len() > index;
        self.state.temp_var_at(index);
        let count = LinExpr::var(self.state.temp_count);
        let need = LinExpr::constant(index as i64 + 1);
        self.record_int_cmp(available, CmpOp::Ge, count, need);
        if available {
            Ok(frame.temps[index])
        } else {
            Err(MemFault)
        }
    }

    fn set_temp(
        &mut self,
        frame: &mut Frame<SymOop>,
        index: usize,
        value: SymOop,
    ) -> Result<(), MemFault> {
        let available = frame.temps.len() > index;
        self.state.temp_var_at(index);
        let count = LinExpr::var(self.state.temp_count);
        let need = LinExpr::constant(index as i64 + 1);
        self.record_int_cmp(available, CmpOp::Ge, count, need);
        if available {
            frame.temps[index] = value;
            Ok(())
        } else {
            Err(MemFault)
        }
    }

    fn literal(&mut self, frame: &Frame<SymOop>, index: usize) -> Result<SymOop, MemFault> {
        let available = frame.method.literals.len() > index;
        self.state.literal_var_at(index);
        let count = LinExpr::var(self.state.literal_count);
        let need = LinExpr::constant(index as i64 + 1);
        self.record_int_cmp(available, CmpOp::Ge, count, need);
        if available {
            Ok(frame.method.literals[index])
        } else {
            Err(MemFault)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igjit_interp::MethodInfo;

    #[test]
    fn predicates_record_positive_facts() {
        let mut mem = ObjectMemory::new();
        let mut state = AbstractState::new();
        let rcvr = state.receiver;
        let oop = igjit_heap::Oop::from_small_int(5);
        let mut ctx = ConcolicContext::new(&mut mem, &mut state, 0);
        let v = SymOop::var(oop, rcvr);
        assert!(ctx.is_integer_object(v));
        assert_eq!(
            ctx.path(),
            &[Constraint::Kind { var: rcvr, allowed: KindSet::only(igjit_solver::Kind::SmallInt) }]
        );
    }

    #[test]
    fn negative_predicates_record_complements() {
        let mut mem = ObjectMemory::new();
        let arr = mem.instantiate_array(&[]).unwrap();
        let mut state = AbstractState::new();
        let rcvr = state.receiver;
        let mut ctx = ConcolicContext::new(&mut mem, &mut state, 0);
        let v = SymOop::var(arr, rcvr);
        assert!(!ctx.is_integer_object(v));
        match &ctx.path()[0] {
            Constraint::Kind { var, allowed } => {
                assert_eq!(*var, rcvr);
                assert!(!allowed.contains(igjit_solver::Kind::SmallInt));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stack_access_records_size_constraints() {
        let mut mem = ObjectMemory::new();
        let nil = mem.nil();
        let mut state = AbstractState::new();
        let size_var = state.stack_size;
        let mut ctx = ConcolicContext::new(&mut mem, &mut state, 0);
        let frame: Frame<SymOop> = Frame::new(SymOop::constant(nil), MethodInfo::empty());
        assert!(ctx.stack_value(&frame, 0).is_err());
        // operand_stack_size < 1, i.e. the Fig. 2 first column.
        match &ctx.path()[0] {
            Constraint::Int(CmpOp::Lt, l, r) => {
                assert_eq!(l.terms[0].1, size_var);
                assert_eq!(r.constant, 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn arithmetic_builds_linear_expressions() {
        let mut mem = ObjectMemory::new();
        let mut state = AbstractState::new();
        let a_var = state.stack_var_at(0).unwrap();
        let b_var = state.stack_var_at(1).unwrap();
        let mut ctx = ConcolicContext::new(&mut mem, &mut state, 0);
        let a = ctx.integer_value_of(SymOop::var(igjit_heap::Oop::from_small_int(3), a_var));
        let b = ctx.integer_value_of(SymOop::var(igjit_heap::Oop::from_small_int(4), b_var));
        let sum = ctx.int_add(a, b);
        assert_eq!(sum.concrete, 7);
        assert!(ctx.is_integer_value(sum));
        // The recorded constraint mentions both variables.
        let mut vars = Vec::new();
        for c in ctx.path() {
            c.vars(&mut vars);
        }
        assert!(vars.contains(&a_var));
        assert!(vars.contains(&b_var));
    }

    #[test]
    fn duplicate_constraints_are_not_recorded_twice() {
        let mut mem = ObjectMemory::new();
        let mut state = AbstractState::new();
        let rcvr = state.receiver;
        let oop = igjit_heap::Oop::from_small_int(5);
        let mut ctx = ConcolicContext::new(&mut mem, &mut state, 0);
        let v = SymOop::var(oop, rcvr);
        ctx.is_integer_object(v);
        ctx.is_integer_object(v);
        assert_eq!(ctx.path().len(), 1);
    }

    #[test]
    fn slot_fetch_records_kind_and_bounds() {
        let mut mem = ObjectMemory::new();
        let arr = mem.instantiate_array(&[igjit_heap::Oop::from_small_int(9)]).unwrap();
        let mut state = AbstractState::new();
        let rcvr = state.receiver;
        let mut ctx = ConcolicContext::new(&mut mem, &mut state, 0);
        let v = SymOop::var(arr, rcvr);
        let idx = ctx.int_const(0);
        let got = ctx.fetch_slot(v, idx).unwrap();
        assert_eq!(got.concrete.small_int_value(), 9);
        assert!(got.as_var().is_some(), "fetched slots are tracked as input vars");
        // OOB records the negated bound and faults.
        let idx5 = ctx.int_const(5);
        assert!(ctx.fetch_slot(v, idx5).is_err());
    }

    #[test]
    fn store_overlay_shadows_slot_vars() {
        let mut mem = ObjectMemory::new();
        let arr = mem.instantiate_array(&[igjit_heap::Oop::from_small_int(1)]).unwrap();
        let mut state = AbstractState::new();
        let rcvr = state.receiver;
        let mut ctx = ConcolicContext::new(&mut mem, &mut state, 0);
        let v = SymOop::var(arr, rcvr);
        let idx = ctx.int_const(0);
        let newval = SymOop::constant(igjit_heap::Oop::from_small_int(42));
        ctx.store_slot(v, idx, newval).unwrap();
        let got = ctx.fetch_slot(v, idx).unwrap();
        assert_eq!(got, newval, "reads observe this run's writes, not slot vars");
    }
}
