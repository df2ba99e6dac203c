//! Frame materialization: from a solver model to a concrete VM frame.
//!
//! This is the "abstract frame construction" arrow of Fig. 2 and the
//! *concrete input VM frame* box of Fig. 1: every input variable is
//! turned into a real tagged value or heap object in a **fresh**
//! object memory. Materialization is deterministic — the same model
//! over the same state always produces the same heap layout — which is
//! what lets the differential tester rebuild bit-identical input
//! frames for the interpreter run and for each compiled run.

use igjit_heap::fxhash::FxHashMap;

use igjit_heap::{ClassIndex, ObjectFormat, ObjectMemory, Oop, Snapshot};
use igjit_interp::{Frame, MethodInfo};
use igjit_solver::{Kind, Model, VarId};

use crate::state::{AbstractState, MAX_FRAME_ELEMS, MAX_OBJ_ELEMS};
use crate::sym::SymOop;

/// A model assignment the materializer could not realize faithfully
/// (e.g. a SmallInteger witness outside the 31-bit tagged range).
///
/// The materializer substitutes a deterministic in-range fallback so
/// the run can proceed, but records the event so the differential
/// harness can report the path as a test error instead of silently
/// testing an input the solver never promised.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WitnessError {
    /// The input variable whose assignment was unrealizable.
    pub var: VarId,
    /// The out-of-range integer witness from the model.
    pub value: i64,
    /// What went wrong.
    pub reason: &'static str,
}

impl std::fmt::Display for WitnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?} = {}: {}", self.var, self.value, self.reason)
    }
}

/// The product of materialization: the symbolic frame handed to the
/// tracing context, plus the variable→oop mapping used for output
/// snapshots.
#[derive(Clone, Debug)]
pub struct MaterializedFrame {
    /// The input frame (values carry their input-variable origins).
    pub frame: Frame<SymOop>,
    /// Concrete oop chosen for each variable that denotes a VM value.
    pub var_oops: FxHashMap<VarId, Oop>,
    /// Model assignments that could not be realized faithfully.
    pub witness_errors: Vec<WitnessError>,
}

/// A materialized frame together with its heap, sealed right after
/// construction so the differential harness can run engine after
/// engine on the *same* memory, rolling back to the sealed image
/// between runs instead of re-materializing from the model.
#[derive(Clone, Debug)]
pub struct BaseImage {
    /// The heap holding the materialized objects, sealed.
    pub mem: ObjectMemory,
    /// Token for rolling `mem` back to its just-materialized state.
    pub snapshot: Snapshot,
    /// The input frame (values carry their input-variable origins).
    pub frame: Frame<SymOop>,
    /// Concrete oop chosen for each variable that denotes a VM value.
    pub var_oops: FxHashMap<VarId, Oop>,
    /// Model assignments that could not be realized faithfully.
    pub witness_errors: Vec<WitnessError>,
}

/// Materializes `model` once into a fresh heap and seals it. The
/// result replaces the rebuild-per-engine idiom: each engine runs on
/// `mem` and then `mem.restore(&snapshot)` rewinds only the words the
/// run actually dirtied.
pub fn materialize_base(state: &AbstractState, model: &Model) -> BaseImage {
    let mut mem = ObjectMemory::new();
    let mat = materialize_shared(state, model, &mut mem);
    let snapshot = mem.seal();
    BaseImage {
        mem,
        snapshot,
        frame: mat.frame,
        var_oops: mat.var_oops,
        witness_errors: mat.witness_errors,
    }
}

struct Materializer<'a> {
    state: &'a AbstractState,
    model: &'a Model,
    mem: &'a mut ObjectMemory,
    /// Memo keyed by alias root so `ObjEq` variables share one object.
    memo: FxHashMap<u32, Oop>,
    var_oops: FxHashMap<VarId, Oop>,
    witness_errors: Vec<WitnessError>,
}

impl Materializer<'_> {
    fn value_of(&mut self, var: VarId, depth: u32) -> Oop {
        let a = self.model.assignment(var);
        if let Some(&oop) = self.memo.get(&a.alias) {
            self.var_oops.insert(var, oop);
            return oop;
        }
        let oop = self.build(var, depth);
        self.memo.insert(a.alias, oop);
        self.var_oops.insert(var, oop);
        oop
    }

    fn build(&mut self, var: VarId, depth: u32) -> Oop {
        let a = self.model.assignment(var);
        let nil = self.mem.nil();
        if depth > 4 {
            return nil; // bounded object-graph depth
        }
        match a.kind {
            Kind::SmallInt => match Oop::try_from_small_int(a.int) {
                Some(oop) => oop,
                None => {
                    // Out-of-range witness: fall back to the nearest
                    // representable value (deterministic) and report it
                    // rather than panicking in `from_small_int`.
                    self.witness_errors.push(WitnessError {
                        var,
                        value: a.int,
                        reason: "SmallInteger witness outside the 31-bit tagged range",
                    });
                    Oop::from_small_int(
                        a.int.clamp(igjit_heap::SMALL_INT_MIN, igjit_heap::SMALL_INT_MAX),
                    )
                }
            },
            Kind::Float => self.mem.instantiate_float(a.float).unwrap_or(nil),
            Kind::Nil => nil,
            Kind::True => self.mem.true_object(),
            Kind::False => self.mem.false_object(),
            Kind::ExternalAddress => {
                let addr = a.int.clamp(0, i64::from(u32::MAX)) as u32;
                self.mem.instantiate_external_address(addr).unwrap_or(nil)
            }
            Kind::Array | Kind::Object | Kind::CompiledMethod | Kind::Context
            | Kind::Association => {
                let (class, format) = match a.kind {
                    Kind::Array => (ClassIndex::ARRAY, ObjectFormat::Indexable),
                    Kind::Object => (ClassIndex::OBJECT, ObjectFormat::Fixed),
                    Kind::CompiledMethod => {
                        (ClassIndex::COMPILED_METHOD, ObjectFormat::CompiledMethod)
                    }
                    Kind::Context => (ClassIndex::CONTEXT, ObjectFormat::Fixed),
                    _ => (ClassIndex::ASSOCIATION, ObjectFormat::Fixed),
                };
                let size = self.size_of(var);
                let Ok(oop) = self.mem.allocate(class, format, size) else {
                    return nil;
                };
                // Two-phase: publish the object before filling slots so
                // cyclic shapes terminate.
                self.memo.insert(a.alias, oop);
                let slots: Vec<(u32, VarId)> = self
                    .state
                    .shape(var)
                    .slots
                    .iter()
                    .enumerate()
                    .filter_map(|(i, sv)| sv.map(|sv| (i as u32, sv)))
                    .collect();
                for (i, slot_var) in slots {
                    if i < size {
                        let v = self.value_of(slot_var, depth + 1);
                        let _ = self.mem.store_pointer(oop, i, v);
                    }
                }
                oop
            }
            Kind::ByteArray | Kind::String | Kind::Symbol => {
                let class = match a.kind {
                    Kind::ByteArray => ClassIndex::BYTE_ARRAY,
                    Kind::String => ClassIndex::STRING,
                    _ => ClassIndex::SYMBOL,
                };
                let size = self.size_of(var);
                self.mem
                    .instantiate_bytes(class, &vec![0u8; size as usize])
                    .unwrap_or(nil)
            }
            Kind::WordArray => {
                let size = self.size_of(var);
                self.mem
                    .allocate(ClassIndex::WORD_ARRAY, ObjectFormat::Words, size)
                    .unwrap_or(nil)
            }
        }
    }

    fn size_of(&mut self, var: VarId) -> u32 {
        match self.state.shape(var).size_var {
            Some(sv) => self.model.int_value(sv).clamp(0, MAX_OBJ_ELEMS) as u32,
            None => 0,
        }
    }
}

/// The frame's stack, temp and literal element counts under `model`.
fn frame_counts(state: &AbstractState, model: &Model) -> [usize; 3] {
    [state.stack_size, state.temp_count, state.literal_count]
        .map(|v| model.int_value(v).clamp(0, MAX_FRAME_ELEMS) as usize)
}

/// Whether `model`'s frame counters exceed the slots `state` has
/// registered (constraint negation can push them past), so that
/// materializing must first create the missing variables.
fn exceeds_registered_slots(state: &AbstractState, model: &Model) -> bool {
    let [stack, temps, literals] = frame_counts(state, model);
    stack > state.stack_vars.len()
        || temps > state.temp_vars.len()
        || literals > state.literal_vars.len()
}

/// Materializes a fresh concrete frame from `model` into `mem`,
/// registering any frame variables the model's counters need first.
pub fn materialize_frame(
    state: &mut AbstractState,
    model: &Model,
    mem: &mut ObjectMemory,
) -> MaterializedFrame {
    let [stack, temps, literals] = frame_counts(state, model);
    for d in 0..stack {
        state.stack_var_at(d);
    }
    for i in 0..temps {
        state.temp_var_at(i);
    }
    for i in 0..literals {
        state.literal_var_at(i);
    }
    build_frame(state, model, mem)
}

/// [`materialize_frame`] over a state it leaves untouched: the result
/// is the same as materializing on a clone of `state`, and the clone is
/// made only when the model's frame counters exceed the slots `state`
/// has registered.
pub fn materialize_shared(
    state: &AbstractState,
    model: &Model,
    mem: &mut ObjectMemory,
) -> MaterializedFrame {
    if exceeds_registered_slots(state, model) {
        return materialize_frame(&mut state.clone(), model, mem);
    }
    build_frame(state, model, mem)
}

/// Materializes the frame over a state that already registers every
/// frame variable the model's counters name.
fn build_frame(state: &AbstractState, model: &Model, mem: &mut ObjectMemory) -> MaterializedFrame {
    let [stack_size, temp_count, literal_count] = frame_counts(state, model);
    let vars = state.var_count();
    let mut m = Materializer {
        state,
        model,
        mem,
        memo: FxHashMap::with_capacity_and_hasher(vars, Default::default()),
        var_oops: FxHashMap::with_capacity_and_hasher(vars, Default::default()),
        witness_errors: Vec::new(),
    };

    let receiver_var = state.receiver;
    let receiver = SymOop::var(m.value_of(receiver_var, 0), receiver_var);

    let mut stack = Vec::with_capacity(stack_size);
    for d in (0..stack_size).rev() {
        let var = state.stack_vars[d];
        stack.push(SymOop::var(m.value_of(var, 0), var));
    }
    let mut temps = Vec::with_capacity(temp_count);
    for &var in &state.temp_vars[..temp_count] {
        temps.push(SymOop::var(m.value_of(var, 0), var));
    }
    let mut literals = Vec::with_capacity(literal_count);
    for &var in &state.literal_vars[..literal_count] {
        literals.push(SymOop::var(m.value_of(var, 0), var));
    }

    let var_oops = m.var_oops;
    let witness_errors = m.witness_errors;
    let mut frame = Frame::new(
        receiver,
        MethodInfo { literals, num_args: 0, num_temps: temp_count as u8 },
    );
    frame.temps = temps;
    frame.stack = stack;
    MaterializedFrame { frame, var_oops, witness_errors }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igjit_solver::{solve, Constraint, Kind};

    #[test]
    fn empty_model_gives_empty_frame() {
        let mut state = AbstractState::new();
        let p = state.problem_with(&[]);
        let model = solve(&p).unwrap();
        let mut mem = ObjectMemory::new();
        let mat = materialize_frame(&mut state, &model, &mut mem);
        assert_eq!(mat.frame.depth(), 0);
        assert_eq!(mat.frame.temps.len(), 0);
        assert!(mat.frame.receiver.concrete.is_small_int(), "default kind is SmallInt");
    }

    #[test]
    fn stack_size_constraint_grows_the_stack() {
        let mut state = AbstractState::new();
        let c = Constraint::Int(
            igjit_solver::CmpOp::Ge,
            igjit_solver::LinExpr::var(state.stack_size),
            igjit_solver::LinExpr::constant(2),
        );
        let p = state.problem_with(std::slice::from_ref(&c));
        let model = solve(&p).unwrap();
        let mut mem = ObjectMemory::new();
        let mat = materialize_frame(&mut state, &model, &mut mem);
        assert!(mat.frame.depth() >= 2);
        // Depth-0 (top) value corresponds to stack var 0.
        assert_eq!(mat.frame.stack_at_depth(0).as_var(), Some(state.stack_vars[0]));
    }

    #[test]
    fn kinds_materialize_to_matching_classes() {
        let state = AbstractState::new();
        let rcvr = state.receiver;
        for (kind, class) in [
            (Kind::Float, ClassIndex::FLOAT),
            (Kind::Array, ClassIndex::ARRAY),
            (Kind::ByteArray, ClassIndex::BYTE_ARRAY),
            (Kind::ExternalAddress, ClassIndex::EXTERNAL_ADDRESS),
            (Kind::Nil, ClassIndex::UNDEFINED_OBJECT),
        ] {
            let mut s = state.clone();
            let p = s.problem_with(&[Constraint::kind_is(rcvr, kind)]);
            let model = solve(&p).unwrap();
            let mut mem = ObjectMemory::new();
            let mat = materialize_frame(&mut s, &model, &mut mem);
            assert_eq!(mem.class_index_of(mat.frame.receiver.concrete), class, "{kind:?}");
        }
    }

    #[test]
    fn object_sizes_come_from_size_vars() {
        let mut state = AbstractState::new();
        let rcvr = state.receiver;
        let size_var = state.size_var_of(rcvr);
        let cs = vec![
            Constraint::kind_is(rcvr, Kind::Array),
            Constraint::Int(
                igjit_solver::CmpOp::Ge,
                igjit_solver::LinExpr::var(size_var),
                igjit_solver::LinExpr::constant(3),
            ),
        ];
        let p = state.problem_with(&cs);
        let model = solve(&p).unwrap();
        let mut mem = ObjectMemory::new();
        let mat = materialize_frame(&mut state, &model, &mut mem);
        assert!(mem.slot_count(mat.frame.receiver.concrete).unwrap() >= 3);
    }

    #[test]
    fn aliased_vars_share_one_object() {
        let mut state = AbstractState::new();
        let a = state.stack_var_at(0).unwrap();
        let b = state.stack_var_at(1).unwrap();
        let cs = vec![
            Constraint::Int(
                igjit_solver::CmpOp::Ge,
                igjit_solver::LinExpr::var(state.stack_size),
                igjit_solver::LinExpr::constant(2),
            ),
            Constraint::kind_is(a, Kind::Array),
            Constraint::ObjEq(a, b),
        ];
        let p = state.problem_with(&cs);
        let model = solve(&p).unwrap();
        let mut mem = ObjectMemory::new();
        let mat = materialize_frame(&mut state, &model, &mut mem);
        assert_eq!(
            mat.frame.stack_at_depth(0).concrete,
            mat.frame.stack_at_depth(1).concrete
        );
    }

    #[test]
    fn out_of_range_witness_is_reported_not_fatal() {
        // An adversarial model that assigns the receiver an integer
        // outside the 31-bit tagged range. Materialization must not
        // panic (the old `from_small_int` path aborted the whole
        // campaign worker); it degrades to a clamped value plus a
        // reported witness error.
        let mut state = AbstractState::new();
        let rcvr = state.receiver;
        let bad = igjit_solver::Assignment {
            kind: Kind::SmallInt,
            int: igjit_heap::SMALL_INT_MAX + 1,
            float: 0.0,
            alias: 0,
        };
        let mut assignments = Vec::new();
        for i in 0..=rcvr.index() {
            assignments.push(if i == rcvr.index() {
                bad
            } else {
                igjit_solver::Assignment {
                    kind: Kind::SmallInt,
                    int: 0,
                    float: 0.0,
                    alias: 1 + i as u32,
                }
            });
        }
        let model = igjit_solver::Model::from_assignments(assignments);
        let mut mem = ObjectMemory::new();
        let mat = materialize_frame(&mut state, &model, &mut mem);
        assert_eq!(mat.witness_errors.len(), 1);
        assert_eq!(mat.witness_errors[0].var, rcvr);
        assert_eq!(mat.witness_errors[0].value, igjit_heap::SMALL_INT_MAX + 1);
        assert_eq!(
            mat.frame.receiver.concrete,
            Oop::from_small_int(igjit_heap::SMALL_INT_MAX),
            "fallback is the nearest representable value"
        );
    }

    #[test]
    fn counters_past_the_registered_slots_take_the_grow_path() {
        // A hand-built model asking for more stack, temp and literal
        // slots than a fresh state registers: the shared entry point
        // must grow a copy, and build what `materialize_frame` builds
        // on a clone.
        let state = AbstractState::new();
        let mut assignments = vec![
            igjit_solver::Assignment { kind: Kind::SmallInt, int: 0, float: 0.0, alias: 0 };
            state.var_count()
        ];
        for (i, a) in assignments.iter_mut().enumerate() {
            a.alias = i as u32;
        }
        for (var, count) in [(state.stack_size, 3), (state.temp_count, 2), (state.literal_count, 1)]
        {
            assignments[var.index()].int = count;
        }
        let model = igjit_solver::Model::from_assignments(assignments);
        assert!(exceeds_registered_slots(&state, &model));

        let mut shared_mem = ObjectMemory::new();
        let shared = materialize_shared(&state, &model, &mut shared_mem);
        let mut grown = state.clone();
        let mut cloned_mem = ObjectMemory::new();
        let cloned = materialize_frame(&mut grown, &model, &mut cloned_mem);
        assert_eq!(
            (shared.frame.depth(), shared.frame.temps.len(), shared.frame.method.literals.len()),
            (3, 2, 1)
        );
        assert!(grown.var_count() > state.var_count(), "the clone grew");
        assert!(!exceeds_registered_slots(&grown, &model));
        assert_eq!(shared.frame, cloned.frame);
        assert_eq!(shared.var_oops, cloned.var_oops);
        assert!(shared_mem == cloned_mem);
    }

    #[test]
    fn materialization_is_deterministic() {
        let state = AbstractState::new();
        let rcvr = state.receiver;
        let cs = vec![Constraint::kind_is(rcvr, Kind::Array)];
        let p = state.problem_with(&cs);
        let model = solve(&p).unwrap();
        let mut mem1 = ObjectMemory::new();
        let mut s1 = state.clone();
        let f1 = materialize_frame(&mut s1, &model, &mut mem1);
        let mut mem2 = ObjectMemory::new();
        let mut s2 = state.clone();
        let f2 = materialize_frame(&mut s2, &model, &mut mem2);
        assert_eq!(f1.frame.receiver.concrete, f2.frame.receiver.concrete);
    }
}
