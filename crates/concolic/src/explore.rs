//! The concolic explorer: path enumeration by constraint negation.
//!
//! Implements §2.3 / Fig. 2 of the paper with the paper's one
//! deviation from textbook concolic testing: exploration does **not**
//! stop at failing paths — every exit condition (§3.4) is a result the
//! differential tester wants.

use std::time::{Duration, Instant};

use igjit_bytecode::{Instruction, SpecialSelector};
use igjit_heap::{ObjectMemory, Oop};
use igjit_interp::{
    run_native, step, NativeMethodId, NativeOutcome, Selector, StepOutcome,
};
use igjit_solver::{Constraint, Model, Session, SessionStats, SolveError, TrailStats, VarId};

use crate::materialize::{materialize_frame, MaterializedFrame};
use crate::pathkey::{PathIndex, PathKey};
use crate::state::AbstractState;
use crate::sym::SymOop;

/// Why an exploration request was rejected before any path ran.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExploreError {
    /// [`Explorer::explore_sequence`] was handed no instructions.
    EmptySequence,
}

impl std::fmt::Display for ExploreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExploreError::EmptySequence => {
                write!(f, "cannot explore an empty instruction sequence")
            }
        }
    }
}

impl std::error::Error for ExploreError {}

/// What instruction is being explored.
///
/// `Hash`/`Eq` make it usable as an [`crate::ExplorationCache`] key:
/// one exploration per instruction is shared by every compiler target.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum InstrUnderTest {
    /// A bytecode instruction, driven through [`igjit_interp::step`].
    Bytecode(Instruction),
    /// A native method, driven through [`igjit_interp::run_native`].
    Native(NativeMethodId),
}

/// A message-send exit, with enough payload to compare against the
/// compiled code's trampoline call.
#[derive(Clone, PartialEq, Debug)]
pub struct SendRecord {
    /// The special selector, if the send came from an optimised
    /// bytecode; `None` for literal-selector sends.
    pub special: Option<SpecialSelector>,
    /// `true` for the `mustBeBoolean` error send.
    pub must_be_boolean: bool,
    /// The literal selector oop for generic sends.
    pub literal_selector: Option<Oop>,
    /// Receiver of the send.
    pub receiver: Oop,
    /// Arguments of the send.
    pub args: Vec<Oop>,
}

/// How one explored path finished (§3.4 exit conditions with their
/// payloads).
#[derive(Clone, PartialEq, Debug)]
pub enum PathOutcome {
    /// Bytecode ran to completion / native method returned.
    Success,
    /// The instruction took a jump (bytecode only).
    Jump {
        /// Displacement in bytes.
        displacement: i32,
    },
    /// Native-method operand validation failed.
    Failure,
    /// Execution left for a message send.
    MessageSend(SendRecord),
    /// The method returned.
    MethodReturn {
        /// The returned value.
        value: Oop,
    },
    /// The generated frame was too small.
    InvalidFrame,
    /// Out-of-bounds object access.
    InvalidMemoryAccess,
    /// Unsupported VM feature (curated out, §5.2).
    Unsupported {
        /// What is missing.
        reason: &'static str,
    },
}

impl PathOutcome {
    /// Maps to the paper's exit-condition lattice (None for
    /// unsupported paths, which the curation step removes).
    pub fn exit_condition(&self) -> Option<igjit_interp::ExitCondition> {
        use igjit_interp::ExitCondition as E;
        Some(match self {
            PathOutcome::Success | PathOutcome::Jump { .. } => E::Success,
            PathOutcome::Failure => E::Failure,
            PathOutcome::MessageSend(_) => E::MessageSend,
            PathOutcome::MethodReturn { .. } => E::MethodReturn,
            PathOutcome::InvalidFrame => E::InvalidFrame,
            PathOutcome::InvalidMemoryAccess => E::InvalidMemoryAccess,
            PathOutcome::Unsupported { .. } => return None,
        })
    }

    /// Whether the path ends in an expected failure (§3.4: an invalid
    /// frame or memory access), which the differential step does not
    /// compare.
    pub fn is_expected_failure(&self) -> bool {
        matches!(self, PathOutcome::InvalidFrame | PathOutcome::InvalidMemoryAccess)
    }
}

/// Snapshot of one input object after the instruction ran (for
/// side-effect comparison).
#[derive(Clone, PartialEq, Debug)]
pub struct ObjectDump {
    /// The input variable this object materialized.
    pub var: igjit_solver::VarId,
    /// Its oop in the exploration heap.
    pub oop: Oop,
    /// Pointer slots after execution (empty for non-pointer formats).
    pub slots: Vec<Oop>,
    /// Bytes after execution (empty for non-byte formats).
    pub bytes: Vec<u8>,
}

/// One fully-explored execution path of an instruction.
#[derive(Clone, Debug)]
pub struct ExploredPath {
    /// The instruction.
    pub instruction: InstrUnderTest,
    /// The recorded path condition (input constraints).
    pub constraints: Vec<Constraint>,
    /// The solver model the concrete frame was built from.
    pub model: Model,
    /// The §3.4 exit (with payloads).
    pub outcome: PathOutcome,
    /// Operand stack after execution (oracle output).
    pub output_stack: Vec<Oop>,
    /// Temps after execution.
    pub output_temps: Vec<Oop>,
    /// Post-state of every materialized input object.
    pub object_dumps: Vec<ObjectDump>,
}

/// Why a discovered path was excluded by curation (§5.2).
#[derive(Clone, PartialEq, Debug)]
pub enum CurationReason {
    /// The constraint solver failed on this prefix.
    SolverError(SolveError),
    /// The path reaches an unsupported VM feature.
    Unsupported(&'static str),
    /// The per-instruction iteration budget ran out first.
    Budget,
}

/// The result of exploring one instruction.
#[derive(Clone, Debug)]
pub struct ExplorationResult {
    /// All distinct paths found (including unsupported ones).
    pub paths: Vec<ExploredPath>,
    /// Curation records for the prefixes that produced no usable path.
    pub curated_out: Vec<CurationReason>,
    /// The final abstract state (shape registry), needed to
    /// re-materialize any path's frame elsewhere.
    pub state: AbstractState,
    /// Number of solver/execute iterations spent.
    pub iterations: usize,
    /// Work counters of the incremental solver session that drove the
    /// negation-tree walk.
    pub solver: SessionStats,
    /// Undo-trail and buffer-pool counters of the same sessions (marks,
    /// clones avoided, pool traffic) — bookkeeping, kept apart from the
    /// answer counters in [`ExplorationResult::solver`].
    pub trail: TrailStats,
    /// Precomputed kind-probe models, aligned index-for-index with
    /// [`ExplorationResult::curated_paths`]. Empty unless
    /// [`ExplorationResult::attach_probe_models`] ran (the exploration
    /// cache calls it when probing is enabled), in which case each
    /// entry starts with the path's base model; an expected-failure
    /// path gets its base model only. Probing is a pure
    /// function of the exploration, so attaching it to the shared
    /// result lets every compiler target reuse one probe pass.
    pub probe_models: Vec<Vec<Model>>,
    /// Time spent materializing frames and concretely executing the
    /// instruction inside the negation walk — a sub-slice of the
    /// campaign's `explore` stage, attributed separately so the stage
    /// table shows where the walk's wall time actually goes.
    pub walk_run: Duration,
    /// Time spent solving kind-probe hypotheses
    /// ([`ExplorationResult::attach_probe_models`]) — the other
    /// instrumented sub-slice of the `explore` stage.
    pub probe_solve: Duration,
}

impl ExplorationResult {
    /// Paths that survive curation: solver-representable and
    /// supported by the prototype.
    pub fn curated_paths(&self) -> Vec<&ExploredPath> {
        self.paths
            .iter()
            .filter(|p| !matches!(p.outcome, PathOutcome::Unsupported { .. }))
            .collect()
    }

    /// Runs kind probing once for every curated path that is not an
    /// expected failure and stores the resulting models in
    /// [`ExplorationResult::probe_models`]. The
    /// probe solver's work counters are folded into
    /// [`ExplorationResult::solver`], so a campaign charging this
    /// exploration charges its probing too.
    /// One solver session serves every path: variables are synced and
    /// hypotheses prepared once, each path's condition lives in its own
    /// push/pop scope, and the cached model is cleared between paths so
    /// no path's reuse can see another's model — keeping the models per
    /// path exactly those of a fresh per-path session.
    pub fn attach_probe_models(&mut self, max_probes: usize) {
        let probe_t = Instant::now();
        let mut all = Vec::new();
        let mut session = Session::new();
        session.set_reuse_models(true);
        session.sync_vars(self.state.specs());
        let plan = crate::probes::ProbePlan::new(&self.state);
        for path in self.curated_paths() {
            if path.outcome.is_expected_failure() {
                // Every model of the path fails the same way, and the
                // campaign stops such a path at its base model, so its
                // probes would never run
                // (`tests/testability_is_per_path.rs`).
                all.push(vec![path.model.clone()]);
                continue;
            }
            session.push();
            let models =
                crate::probes::probe_path(&mut session, &self.state, &plan, path, max_probes);
            session.pop();
            session.clear_cached_model();
            all.push(models);
        }
        self.probe_models = all;
        self.solver.merge(&session.stats());
        self.trail.merge(&session.trail_stats());
        self.probe_solve += probe_t.elapsed();
    }
}

/// The concolic explorer. Create one per instruction exploration.
#[derive(Clone, Debug)]
pub struct Explorer {
    /// Max solve/run iterations per instruction.
    pub max_iterations: usize,
    /// Max recorded path length considered for negation.
    pub max_path_len: usize,
}

impl Default for Explorer {
    fn default() -> Self {
        Explorer::new()
    }
}

impl Explorer {
    /// An explorer with default budgets.
    pub fn new() -> Explorer {
        Explorer {
            max_iterations: 192,
            max_path_len: 48,
        }
    }

    /// Explores every reachable execution path of `instr`. A bytecode
    /// is explored as the one-instruction sequence `[instr]` (see
    /// [`Explorer::explore_sequence`]); a native method runs its own
    /// primitive.
    pub fn explore(&self, instr: InstrUnderTest) -> ExplorationResult {
        match instr {
            InstrUnderTest::Bytecode(i) => {
                self.explore_impl(instr, |ctx, frame| run_sequence(ctx, frame, &[i]))
            }
            InstrUnderTest::Native(id) => self.explore_impl(instr, |ctx, frame| {
                convert_native(run_native(ctx, frame, id))
            }),
        }
    }

    /// Explores a straight-line bytecode **sequence** (the paper's
    /// future-work extension): instructions execute in order; a send,
    /// return, taken jump or failure anywhere terminates the path with
    /// that exit, and running off the end is a success.
    ///
    /// The recorded path condition covers the whole sequence, so one
    /// negation loop explores the cross product of the instructions'
    /// branch structures.
    pub fn explore_sequence(
        &self,
        instrs: &[Instruction],
    ) -> Result<ExplorationResult, ExploreError> {
        let Some(&tag) = instrs.last() else {
            return Err(ExploreError::EmptySequence);
        };
        let tag = InstrUnderTest::Bytecode(tag);
        Ok(self.explore_impl(tag, |ctx, frame| run_sequence(ctx, frame, instrs)))
    }

    fn explore_impl<F>(&self, instr: InstrUnderTest, exec: F) -> ExplorationResult
    where
        F: Fn(
                &mut crate::trace::ConcolicContext<'_>,
                &mut igjit_interp::Frame<SymOop>,
            ) -> PathOutcome,
    {
        let mut walk = NegationWalk {
            explorer: self,
            instr,
            exec: &exec,
            state: AbstractState::new(),
            session: Session::new(),
            visited: PathIndex::default(),
            paths: Vec::new(),
            curated_out: Vec::new(),
            iterations: 0,
            budget_noted: false,
            scratch: None,
            run_time: Duration::ZERO,
        };
        walk.visit(0);
        ExplorationResult {
            paths: walk.paths,
            curated_out: walk.curated_out,
            state: walk.state,
            iterations: walk.iterations,
            solver: walk.session.stats(),
            trail: walk.session.trail_stats(),
            probe_models: Vec::new(),
            walk_run: walk.run_time,
            probe_solve: Duration::ZERO,
        }
    }
}

/// The negation-tree walk, as a depth-first recursion over an
/// incremental solver [`Session`]: each tree edge pushes one scope
/// (the negated branch step), so a child's solve reuses its whole
/// prefix's classification and propagation state instead of rebuilding
/// the `Problem` from scratch.
///
/// Children are visited in *descending* suffix position — exactly the
/// order the previous LIFO-worklist implementation popped them in — so
/// path discovery order, the iteration budget cut-off, and therefore
/// every downstream table are unchanged.
struct NegationWalk<'e, F> {
    explorer: &'e Explorer,
    instr: InstrUnderTest,
    exec: &'e F,
    state: AbstractState,
    session: Session,
    /// The recorded paths, indexed by their [`PathKey`] for dedup.
    visited: PathIndex,
    paths: Vec<ExploredPath>,
    curated_out: Vec<CurationReason>,
    iterations: usize,
    budget_noted: bool,
    /// Scratch heap reused across visits (reset to fresh each time)
    /// so the walk does not pay an arena allocation per node.
    scratch: Option<ObjectMemory>,
    /// Cumulative frame-materialization + concrete-execution time
    /// (the `walk_run` sub-slice of the `explore` stage).
    run_time: Duration,
}

impl<F> NegationWalk<'_, F>
where
    F: Fn(&mut crate::trace::ConcolicContext<'_>, &mut igjit_interp::Frame<SymOop>) -> PathOutcome,
{
    /// Visits the node whose path condition is currently in scope in
    /// the session; `depth` is the number of prefix steps already
    /// negated (children only negate suffix positions `>= depth`).
    fn visit(&mut self, depth: usize) {
        if self.iterations >= self.explorer.max_iterations {
            if !self.budget_noted {
                self.budget_noted = true;
                self.curated_out.push(CurationReason::Budget);
            }
            return;
        }
        self.iterations += 1;

        self.session.sync_vars(self.state.specs());
        let model = match self.session.solve() {
            Ok(m) => m,
            Err(SolveError::Unsat) => return,
            Err(e) => {
                self.curated_out.push(CurationReason::SolverError(e));
                return;
            }
        };

        let run_t = Instant::now();
        let mut mem = match self.scratch.take() {
            Some(mut m) => {
                m.reset();
                m
            }
            None => ObjectMemory::new(),
        };
        let MaterializedFrame { mut frame, var_oops, .. } =
            materialize_frame(&mut self.state, &model, &mut mem);
        let (outcome, mut path) = {
            let mut ctx =
                crate::trace::ConcolicContext::new(&mut mem, &mut self.state, frame.depth());
            let outcome = (self.exec)(&mut ctx, &mut frame);
            (outcome, ctx.take_path())
        };
        self.run_time += run_t.elapsed();
        path.truncate(self.explorer.max_path_len);

        let key = PathKey::new(&path, &outcome);
        let hash = key.hash_u64();
        if self.visited.contains(&self.paths, hash, key) {
            self.session.recycle_model(model);
            self.scratch = Some(mem);
            return;
        }
        // Snapshot outputs for the oracle.
        let (output_stack, output_temps, object_dumps) =
            snapshot_outputs(&frame, &mem, &var_oops);
        self.scratch = Some(mem);
        if let PathOutcome::Unsupported { reason } = outcome {
            self.curated_out.push(CurationReason::Unsupported(reason));
        }
        // Stored paths live as long as the exploration: drop the
        // recorder's growth slack.
        path.shrink_to_fit();
        let index = self.paths.len();
        self.visited.insert(hash, index);
        self.paths.push(ExploredPath {
            instruction: self.instr,
            constraints: path,
            model,
            outcome,
            output_stack,
            output_temps,
            object_dumps,
        });
        // Children: negate each not-yet-negated suffix step of the
        // path just recorded. The recorded path extends the in-scope
        // prefix (the model satisfied it and branch outcomes are
        // deterministic), so the prefix scopes stay put; extend with
        // the new suffix, then peel it back one step at a time,
        // negating as we go.
        // Execution may have grown the abstract state (lazy slot and
        // size variables); sync before asserting constraints on them.
        self.session.sync_vars(self.state.specs());
        let len = self.paths[index].constraints.len();
        for step in self.paths[index].constraints.iter().skip(depth) {
            self.session.push_assert(step.clone());
        }
        for i in (depth..len).rev() {
            self.session.pop(); // retract `path[i]`…
            let negated = self.paths[index].constraints[i].negated();
            self.session.push_assert(negated); // …negate it…
            self.visit(i + 1); // …and explore that subtree.
            self.session.pop();
        }
    }
}

/// Snapshots a frame's oracle outputs: operand stack, temps and the
/// post-state of every live materialized input object.
fn snapshot_outputs(
    frame: &igjit_interp::Frame<SymOop>,
    mem: &ObjectMemory,
    var_oops: &igjit_heap::fxhash::FxHashMap<VarId, Oop>,
) -> (Vec<Oop>, Vec<Oop>, Vec<ObjectDump>) {
    let output_stack: Vec<Oop> = frame.stack.iter().map(|s| s.concrete).collect();
    let output_temps: Vec<Oop> = frame.temps.iter().map(|s| s.concrete).collect();
    let mut object_dumps = Vec::new();
    for (&var, &oop) in var_oops {
        if !mem.is_live_object(oop) {
            continue;
        }
        let slots = match mem.format_of(oop) {
            Ok(f) if f.has_pointer_slots() => {
                let n = mem.element_count(oop).unwrap_or(0);
                (0..n).filter_map(|i| mem.fetch_pointer(oop, i).ok()).collect()
            }
            _ => Vec::new(),
        };
        let bytes = match mem.format_of(oop) {
            Ok(f) if f.is_bytes() => {
                let n = mem.byte_count(oop).unwrap_or(0);
                (0..n).filter_map(|i| mem.fetch_byte(oop, i).ok()).collect()
            }
            _ => Vec::new(),
        };
        object_dumps.push(ObjectDump { var, oop, slots, bytes });
    }
    object_dumps.sort_by_key(|d| d.var);
    (output_stack, output_temps, object_dumps)
}

/// Runs `instrs` in order on the concolic context: the first exit that
/// is not a fall-through ends the path with that outcome, and running
/// off the end is a success.
fn run_sequence(
    ctx: &mut crate::trace::ConcolicContext<'_>,
    frame: &mut igjit_interp::Frame<SymOop>,
    instrs: &[Instruction],
) -> PathOutcome {
    for &instr in instrs {
        match step(ctx, frame, instr) {
            StepOutcome::Continue => {}
            other => return convert_step(other),
        }
    }
    PathOutcome::Success
}

fn convert_step(outcome: StepOutcome<SymOop>) -> PathOutcome {
    match outcome {
        StepOutcome::Continue => PathOutcome::Success,
        StepOutcome::Jump { displacement } => PathOutcome::Jump { displacement },
        StepOutcome::MethodReturn { value } => {
            PathOutcome::MethodReturn { value: value.concrete }
        }
        StepOutcome::MessageSend { selector, receiver, args } => {
            let (special, must_be_boolean, literal_selector) = match selector {
                Selector::Special(s) => (Some(s), false, None),
                Selector::MustBeBoolean => (None, true, None),
                Selector::Literal(v) => (None, false, Some(v.concrete)),
            };
            PathOutcome::MessageSend(SendRecord {
                special,
                must_be_boolean,
                literal_selector,
                receiver: receiver.concrete,
                args: args.iter().map(|a| a.concrete).collect(),
            })
        }
        StepOutcome::InvalidFrame => PathOutcome::InvalidFrame,
        StepOutcome::InvalidMemoryAccess => PathOutcome::InvalidMemoryAccess,
        StepOutcome::Unsupported { reason } => PathOutcome::Unsupported { reason },
    }
}

fn convert_native(outcome: NativeOutcome<SymOop>) -> PathOutcome {
    match outcome {
        NativeOutcome::Success { .. } => PathOutcome::Success,
        NativeOutcome::Failure => PathOutcome::Failure,
        NativeOutcome::InvalidFrame => PathOutcome::InvalidFrame,
        NativeOutcome::InvalidMemoryAccess => PathOutcome::InvalidMemoryAccess,
        NativeOutcome::Unsupported { reason } => PathOutcome::Unsupported { reason },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igjit_interp::ExitCondition;
    use igjit_solver::solve;

    fn explore_bytecode(i: Instruction) -> ExplorationResult {
        Explorer::new().explore(InstrUnderTest::Bytecode(i))
    }

    fn exits(r: &ExplorationResult) -> Vec<ExitCondition> {
        r.paths.iter().filter_map(|p| p.outcome.exit_condition()).collect()
    }

    #[test]
    fn add_bytecode_reproduces_table_1() {
        let r = explore_bytecode(Instruction::Add);
        let ex = exits(&r);
        // Fig. 2 / Table 1: invalid frame (empty stack), int+int
        // success, overflow send, type-mismatch sends.
        assert!(ex.contains(&ExitCondition::InvalidFrame), "{ex:?}");
        assert!(ex.contains(&ExitCondition::Success), "{ex:?}");
        assert!(ex.contains(&ExitCondition::MessageSend), "{ex:?}");
        assert!(r.paths.len() >= 5, "only {} paths", r.paths.len());

        // At least one send path must be the overflow case: two
        // SmallInteger inputs whose sum leaves the range.
        let has_overflow = r.paths.iter().any(|p| {
            matches!(p.outcome, PathOutcome::MessageSend(ref s)
                if s.special == Some(SpecialSelector::Plus)
                && s.receiver.is_small_int() && s.args[0].is_small_int()
                && igjit_heap::Oop::try_from_small_int(
                    s.receiver.small_int_value() + s.args[0].small_int_value()
                ).is_none())
        });
        assert!(has_overflow, "no overflow path found");
    }

    #[test]
    fn add_bytecode_finds_the_float_fast_path() {
        let r = explore_bytecode(Instruction::Add);
        let has_float_success = r.paths.iter().any(|p| {
            matches!(p.outcome, PathOutcome::Success)
                && p.output_stack.last().is_some_and(|v| v.is_pointer())
        });
        assert!(has_float_success, "float+float inlined path not explored");
    }

    #[test]
    fn push_receiver_variable_grows_the_receiver() {
        let r = explore_bytecode(Instruction::PushReceiverVariable(1));
        let ex = exits(&r);
        assert!(ex.contains(&ExitCondition::InvalidMemoryAccess), "{ex:?}");
        assert!(ex.contains(&ExitCondition::Success), "{ex:?}");
        // The success path must have a receiver with >= 2 slots.
        let ok = r.paths.iter().find(|p| matches!(p.outcome, PathOutcome::Success)).unwrap();
        let rcvr_dump = ok
            .object_dumps
            .iter()
            .find(|d| d.var == r.state.receiver)
            .expect("receiver dumped");
        assert!(rcvr_dump.slots.len() >= 2, "{:?}", rcvr_dump.slots);
    }

    #[test]
    fn pop_explores_empty_and_nonempty_stacks() {
        let r = explore_bytecode(Instruction::Pop);
        let ex = exits(&r);
        assert!(ex.contains(&ExitCondition::InvalidFrame));
        assert!(ex.contains(&ExitCondition::Success));
        assert_eq!(r.paths.len(), 2, "pop has exactly two paths");
    }

    #[test]
    fn push_constant_has_single_path() {
        let r = explore_bytecode(Instruction::PushTrue);
        assert_eq!(r.paths.len(), 1);
        assert!(matches!(r.paths[0].outcome, PathOutcome::Success));
        assert_eq!(r.paths[0].output_stack.len(), 1);
    }

    #[test]
    fn conditional_jump_explores_all_three_ways() {
        let r = explore_bytecode(Instruction::ShortJumpTrue(4));
        let has_jump = r.paths.iter().any(|p| matches!(p.outcome, PathOutcome::Jump { .. }));
        let has_continue = r.paths.iter().any(|p| matches!(p.outcome, PathOutcome::Success));
        let has_mbb = r.paths.iter().any(|p| {
            matches!(p.outcome, PathOutcome::MessageSend(ref s) if s.must_be_boolean)
        });
        assert!(has_jump, "jump-taken path missing");
        assert!(has_continue, "fall-through path missing");
        assert!(has_mbb, "mustBeBoolean path missing");
    }

    #[test]
    fn push_this_context_is_curated_out() {
        let r = explore_bytecode(Instruction::PushThisContext);
        assert!(matches!(r.paths[0].outcome, PathOutcome::Unsupported { .. }));
        assert!(r.curated_paths().is_empty());
        assert!(matches!(r.curated_out[0], CurationReason::Unsupported(_)));
    }

    #[test]
    fn native_add_explores_failure_and_success() {
        let r = Explorer::new().explore(InstrUnderTest::Native(NativeMethodId(1)));
        let ex = exits(&r);
        assert!(ex.contains(&ExitCondition::InvalidFrame));
        assert!(ex.contains(&ExitCondition::Success));
        assert!(ex.contains(&ExitCondition::Failure), "type-check failure paths");
        assert!(r.paths.len() >= 4, "{}", r.paths.len());
    }

    #[test]
    fn native_as_float_records_no_type_check() {
        // The Listing 5 defect: exploration finds no Failure path for
        // the receiver type, because the interpreter never checks it.
        let r = Explorer::new().explore(InstrUnderTest::Native(NativeMethodId(40)));
        let ex = exits(&r);
        assert!(!ex.contains(&ExitCondition::Failure), "{ex:?}");
        assert!(ex.contains(&ExitCondition::Success));
    }

    #[test]
    fn native_float_add_has_many_paths() {
        let r = Explorer::new().explore(InstrUnderTest::Native(NativeMethodId(41)));
        let ex = exits(&r);
        assert!(ex.contains(&ExitCondition::Failure));
        assert!(ex.contains(&ExitCondition::Success));
        // receiver not float / arg not float / both float.
        assert!(r.paths.len() >= 4, "{}", r.paths.len());
    }

    #[test]
    fn returns_report_method_return() {
        let r = explore_bytecode(Instruction::ReturnReceiver);
        assert!(matches!(r.paths[0].outcome, PathOutcome::MethodReturn { .. }));
    }

    #[test]
    fn sequences_chain_constraints_across_instructions() {
        // push 2; push 3; Add; Pop — runs clean end to end.
        let r = Explorer::new()
            .explore_sequence(&[
                Instruction::PushTwo,
                Instruction::PushInteger(3),
                Instruction::Add,
                Instruction::Pop,
            ])
            .unwrap();
        // Constants only: one success path, empty output stack.
        let successes: Vec<_> = r
            .paths
            .iter()
            .filter(|p| matches!(p.outcome, PathOutcome::Success))
            .collect();
        assert_eq!(successes.len(), 1, "{:?}", r.paths);
        assert!(successes[0].output_stack.is_empty());
    }

    #[test]
    fn sequences_explore_operand_dependent_branches() {
        // [Add, Add]: the first Add's operands come from the frame;
        // paths must include double-success and first-add-sends.
        let r = Explorer::new()
            .explore_sequence(&[Instruction::Add, Instruction::Add])
            .unwrap();
        let has_full_success = r.paths.iter().any(|p| {
            matches!(p.outcome, PathOutcome::Success) && p.output_stack.len() == 1
        });
        let has_send = r
            .paths
            .iter()
            .any(|p| matches!(p.outcome, PathOutcome::MessageSend(_)));
        assert!(has_full_success, "three ints summed twice");
        assert!(has_send, "a slow path somewhere in the chain");
        // The double-add needs three operands on the frame.
        assert!(r.state.stack_vars.len() >= 3);
    }

    #[test]
    fn sequence_jumps_terminate_the_path() {
        let r = Explorer::new()
            .explore_sequence(&[
                Instruction::PushTrue,
                Instruction::ShortJumpTrue(4),
                Instruction::PushNil, // unreachable when the jump is taken
            ])
            .unwrap();
        assert!(r
            .paths
            .iter()
            .any(|p| matches!(p.outcome, PathOutcome::Jump { .. })));
    }

    #[test]
    fn empty_sequences_are_an_error_not_a_panic() {
        assert_eq!(
            Explorer::new().explore_sequence(&[]).err(),
            Some(ExploreError::EmptySequence)
        );
    }

    #[test]
    fn models_satisfy_their_paths() {
        // Every explored path's model assigns the counters
        // consistently with the recorded constraints.
        let r = explore_bytecode(Instruction::Add);
        for p in &r.paths {
            let problem = r.state.problem_with(&p.constraints);
            assert!(
                solve(&problem).is_ok(),
                "recorded path should be satisfiable: {:?}",
                p.constraints
            );
        }
    }
}
