//! [`Wire`] codecs for every domain type the corpus persists.
//!
//! The encoding is positional and tag-based: enums write a one-byte
//! discriminant, structs write their fields in declaration order,
//! collections are length-prefixed. There is no schema in the file —
//! the format version plus the section fingerprints (which mix in the
//! source hash of every crate that defines these types) guarantee the
//! reader and writer agree on the layout, and any disagreement is
//! caught by the checksum/decode layer and degrades to a cold run.
//!
//! Two representational notes:
//!
//! - `&'static str` fields decode through the leak-interning pool
//!   ([`crate::wire::intern`]); `Cow<'static, str>` fields decode as
//!   `Cow::Owned` (equality with the borrowed form still holds).
//! - [`Instruction`] round-trips through the bytecode set's own
//!   encoder/decoder, so the corpus inherits the exact operand
//!   canonicalization the live catalog uses.

use crate::wire::{Decoder, Encoder, WireError};
use igjit_bytecode::{Instruction, MethodHeader, SpecialSelector};
use igjit_concolic::{
    AbstractState, CurationReason, ExplorationResult, ExploredPath, InstrUnderTest, ObjShape,
    PathOutcome, SendRecord, VarRole,
};
use igjit_difftest::{
    CauseKey, DefectCategory, Difference, DifferenceKind, InstructionOutcome, PathVerdict,
    SnapshotStats, Target, Verdict,
};
use igjit_heap::Oop;
use igjit_interp::NativeMethodId;
use igjit_jit::{CompileError, CompileKey, CompiledCode, CompilerKind, FrontEnd};
use igjit_machine::Isa;
use igjit_solver::{
    Assignment, CmpOp, Constraint, FloatTerm, Kind, KindSet, LinExpr, Model, SolveError, VarId,
    VarSpec,
};
use std::borrow::Cow;

/// A type that can be written to and read back from the corpus wire
/// format.
pub trait Wire: Sized {
    /// Appends the encoding of `self`.
    fn enc(&self, e: &mut Encoder);
    /// Decodes one value.
    fn dec(d: &mut Decoder<'_>) -> Result<Self, WireError>;
}

/// Encodes one value standalone.
pub fn to_bytes<T: Wire>(v: &T) -> Vec<u8> {
    let mut e = Encoder::new();
    v.enc(&mut e);
    e.into_bytes()
}

/// Decodes one value standalone, requiring full consumption.
pub fn from_bytes<T: Wire>(bytes: &[u8]) -> Result<T, WireError> {
    let mut d = Decoder::new(bytes);
    let v = T::dec(&mut d)?;
    d.finish()?;
    Ok(v)
}

macro_rules! prim_wire {
    ($($t:ty => $enc:ident / $dec:ident),* $(,)?) => {$(
        impl Wire for $t {
            fn enc(&self, e: &mut Encoder) {
                e.$enc(*self);
            }
            fn dec(d: &mut Decoder<'_>) -> Result<Self, WireError> {
                d.$dec()
            }
        }
    )*};
}

prim_wire! {
    u8 => u8 / u8,
    u16 => u16 / u16,
    u32 => u32 / u32,
    u64 => u64 / u64,
    i32 => i32 / i32,
    i64 => i64 / i64,
    f64 => f64 / f64,
    bool => bool / bool,
    usize => usize / usize,
}

impl Wire for String {
    fn enc(&self, e: &mut Encoder) {
        e.str(self);
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        d.string()
    }
}

impl Wire for &'static str {
    fn enc(&self, e: &mut Encoder) {
        e.str(self);
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        d.static_str()
    }
}

impl Wire for Cow<'static, str> {
    fn enc(&self, e: &mut Encoder) {
        e.str(self);
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(Cow::Owned(d.string()?))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn enc(&self, e: &mut Encoder) {
        match self {
            None => e.u8(0),
            Some(v) => {
                e.u8(1);
                v.enc(e);
            }
        }
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        match d.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::dec(d)?)),
            _ => Err(WireError::BadTag("Option")),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn enc(&self, e: &mut Encoder) {
        e.usize(self.len());
        for v in self {
            v.enc(e);
        }
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        let n = d.seq_len()?;
        // `seq_len` only caps the count by the remaining *bytes*, while
        // an element may occupy hundreds of bytes in memory. Reserve no
        // more memory than the remaining input occupies, so a crafted
        // count cannot pre-allocate far beyond the file's own size; a
        // genuine longer vector just grows as it decodes.
        let mut out = Vec::with_capacity(n.min(d.remaining() / std::mem::size_of::<T>().max(1)));
        for _ in 0..n {
            out.push(T::dec(d)?);
        }
        Ok(out)
    }
}

/// Shared values encode as their contents, so a corpus can be written
/// from the caches' `Arc`s without cloning what they point at.
impl<T: Wire> Wire for std::sync::Arc<T> {
    fn enc(&self, e: &mut Encoder) {
        (**self).enc(e);
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(std::sync::Arc::new(T::dec(d)?))
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn enc(&self, e: &mut Encoder) {
        self.0.enc(e);
        self.1.enc(e);
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok((A::dec(d)?, B::dec(d)?))
    }
}

// ---------------------------------------------------------------- solver

impl Wire for VarId {
    fn enc(&self, e: &mut Encoder) {
        e.u32(self.0);
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(VarId(d.u32()?))
    }
}

impl Wire for Kind {
    fn enc(&self, e: &mut Encoder) {
        e.u8(*self as u8);
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        let i = d.u8()? as usize;
        Kind::ALL.get(i).copied().ok_or(WireError::BadTag("Kind"))
    }
}

impl Wire for KindSet {
    fn enc(&self, e: &mut Encoder) {
        let mut mask = 0u16;
        for k in self.iter() {
            mask |= 1 << (k as u8);
        }
        e.u16(mask);
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        let mask = d.u16()?;
        if mask >> Kind::ALL.len() != 0 {
            return Err(WireError::BadTag("KindSet"));
        }
        let kinds: Vec<Kind> = Kind::ALL
            .iter()
            .copied()
            .filter(|&k| mask & (1 << (k as u8)) != 0)
            .collect();
        Ok(KindSet::of(&kinds))
    }
}

impl Wire for VarSpec {
    fn enc(&self, e: &mut Encoder) {
        self.kinds.enc(e);
        e.i64(self.int_bounds.0);
        e.i64(self.int_bounds.1);
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(VarSpec { kinds: KindSet::dec(d)?, int_bounds: (d.i64()?, d.i64()?) })
    }
}

impl Wire for CmpOp {
    fn enc(&self, e: &mut Encoder) {
        e.u8(match self {
            CmpOp::Lt => 0,
            CmpOp::Le => 1,
            CmpOp::Gt => 2,
            CmpOp::Ge => 3,
            CmpOp::Eq => 4,
            CmpOp::Ne => 5,
        });
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(match d.u8()? {
            0 => CmpOp::Lt,
            1 => CmpOp::Le,
            2 => CmpOp::Gt,
            3 => CmpOp::Ge,
            4 => CmpOp::Eq,
            5 => CmpOp::Ne,
            _ => return Err(WireError::BadTag("CmpOp")),
        })
    }
}

impl Wire for FloatTerm {
    fn enc(&self, e: &mut Encoder) {
        match self {
            FloatTerm::Var(v) => {
                e.u8(0);
                v.enc(e);
            }
            FloatTerm::Const(c) => {
                e.u8(1);
                e.f64(*c);
            }
        }
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(match d.u8()? {
            0 => FloatTerm::Var(VarId::dec(d)?),
            1 => FloatTerm::Const(d.f64()?),
            _ => return Err(WireError::BadTag("FloatTerm")),
        })
    }
}

impl Wire for LinExpr {
    fn enc(&self, e: &mut Encoder) {
        e.i64(self.constant);
        self.terms.enc(e);
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(LinExpr { constant: d.i64()?, terms: Vec::dec(d)? })
    }
}

impl Wire for Constraint {
    fn enc(&self, e: &mut Encoder) {
        match self {
            Constraint::Kind { var, allowed } => {
                e.u8(0);
                var.enc(e);
                allowed.enc(e);
            }
            Constraint::Int(op, lhs, rhs) => {
                e.u8(1);
                op.enc(e);
                lhs.enc(e);
                rhs.enc(e);
            }
            Constraint::Float(op, lhs, rhs) => {
                e.u8(2);
                op.enc(e);
                lhs.enc(e);
                rhs.enc(e);
            }
            Constraint::ObjEq(a, b) => {
                e.u8(3);
                a.enc(e);
                b.enc(e);
            }
            Constraint::ObjNe(a, b) => {
                e.u8(4);
                a.enc(e);
                b.enc(e);
            }
            Constraint::Or(cs) => {
                e.u8(5);
                cs.enc(e);
            }
            Constraint::And(cs) => {
                e.u8(6);
                cs.enc(e);
            }
        }
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(match d.u8()? {
            0 => Constraint::Kind { var: VarId::dec(d)?, allowed: KindSet::dec(d)? },
            1 => Constraint::Int(CmpOp::dec(d)?, LinExpr::dec(d)?, LinExpr::dec(d)?),
            2 => Constraint::Float(CmpOp::dec(d)?, FloatTerm::dec(d)?, FloatTerm::dec(d)?),
            3 => Constraint::ObjEq(VarId::dec(d)?, VarId::dec(d)?),
            4 => Constraint::ObjNe(VarId::dec(d)?, VarId::dec(d)?),
            5 => Constraint::Or(Vec::dec(d)?),
            6 => Constraint::And(Vec::dec(d)?),
            _ => return Err(WireError::BadTag("Constraint")),
        })
    }
}

impl Wire for Assignment {
    fn enc(&self, e: &mut Encoder) {
        self.kind.enc(e);
        e.i64(self.int);
        e.f64(self.float);
        e.u32(self.alias);
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(Assignment { kind: Kind::dec(d)?, int: d.i64()?, float: d.f64()?, alias: d.u32()? })
    }
}

impl Wire for Model {
    fn enc(&self, e: &mut Encoder) {
        e.usize(self.len());
        for i in 0..self.len() {
            self.assignment(VarId(i as u32)).enc(e);
        }
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(Model::from_assignments(Vec::dec(d)?))
    }
}

impl Wire for SolveError {
    fn enc(&self, e: &mut Encoder) {
        match self {
            SolveError::Unsat => e.u8(0),
            SolveError::PrecisionExceeded => e.u8(1),
            SolveError::ResourceLimit => e.u8(2),
            SolveError::Unsupported(s) => {
                e.u8(3);
                e.str(s);
            }
        }
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(match d.u8()? {
            0 => SolveError::Unsat,
            1 => SolveError::PrecisionExceeded,
            2 => SolveError::ResourceLimit,
            3 => SolveError::Unsupported(d.static_str()?),
            _ => return Err(WireError::BadTag("SolveError")),
        })
    }
}

// ------------------------------------------------------- heap / machine

impl Wire for Oop {
    fn enc(&self, e: &mut Encoder) {
        e.u32(self.0);
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(Oop(d.u32()?))
    }
}

impl Wire for Isa {
    fn enc(&self, e: &mut Encoder) {
        e.u8(match self {
            Isa::X86ish => 0,
            Isa::Arm32ish => 1,
        });
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(match d.u8()? {
            0 => Isa::X86ish,
            1 => Isa::Arm32ish,
            _ => return Err(WireError::BadTag("Isa")),
        })
    }
}

// ------------------------------------------------------------- bytecode

impl Wire for Instruction {
    fn enc(&self, e: &mut Encoder) {
        let mut bytes = Vec::with_capacity(2);
        igjit_bytecode::encode(*self, &mut bytes);
        e.bytes(&bytes);
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        let bytes = d.bytes()?;
        match igjit_bytecode::decode(bytes, 0) {
            Ok((instr, len)) if len == bytes.len() => Ok(instr),
            _ => Err(WireError::BadTag("Instruction")),
        }
    }
}

impl Wire for SpecialSelector {
    fn enc(&self, e: &mut Encoder) {
        e.u32(self.index());
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        SpecialSelector::from_index(d.u32()?).ok_or(WireError::BadTag("SpecialSelector"))
    }
}

// ------------------------------------------------------------- concolic

impl Wire for NativeMethodId {
    fn enc(&self, e: &mut Encoder) {
        e.u16(self.0);
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(NativeMethodId(d.u16()?))
    }
}

impl Wire for InstrUnderTest {
    fn enc(&self, e: &mut Encoder) {
        match self {
            InstrUnderTest::Bytecode(i) => {
                e.u8(0);
                i.enc(e);
            }
            InstrUnderTest::Native(id) => {
                e.u8(1);
                id.enc(e);
            }
        }
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(match d.u8()? {
            0 => InstrUnderTest::Bytecode(Instruction::dec(d)?),
            1 => InstrUnderTest::Native(NativeMethodId::dec(d)?),
            _ => return Err(WireError::BadTag("InstrUnderTest")),
        })
    }
}

impl Wire for SendRecord {
    fn enc(&self, e: &mut Encoder) {
        self.special.enc(e);
        e.bool(self.must_be_boolean);
        self.literal_selector.enc(e);
        self.receiver.enc(e);
        self.args.enc(e);
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(SendRecord {
            special: Option::dec(d)?,
            must_be_boolean: d.bool()?,
            literal_selector: Option::dec(d)?,
            receiver: Oop::dec(d)?,
            args: Vec::dec(d)?,
        })
    }
}

impl Wire for PathOutcome {
    fn enc(&self, e: &mut Encoder) {
        match self {
            PathOutcome::Success => e.u8(0),
            PathOutcome::Jump { displacement } => {
                e.u8(1);
                e.i32(*displacement);
            }
            PathOutcome::Failure => e.u8(2),
            PathOutcome::MessageSend(s) => {
                e.u8(3);
                s.enc(e);
            }
            PathOutcome::MethodReturn { value } => {
                e.u8(4);
                value.enc(e);
            }
            PathOutcome::InvalidFrame => e.u8(5),
            PathOutcome::InvalidMemoryAccess => e.u8(6),
            PathOutcome::Unsupported { reason } => {
                e.u8(7);
                e.str(reason);
            }
        }
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(match d.u8()? {
            0 => PathOutcome::Success,
            1 => PathOutcome::Jump { displacement: d.i32()? },
            2 => PathOutcome::Failure,
            3 => PathOutcome::MessageSend(SendRecord::dec(d)?),
            4 => PathOutcome::MethodReturn { value: Oop::dec(d)? },
            5 => PathOutcome::InvalidFrame,
            6 => PathOutcome::InvalidMemoryAccess,
            7 => PathOutcome::Unsupported { reason: d.static_str()? },
            _ => return Err(WireError::BadTag("PathOutcome")),
        })
    }
}

impl Wire for ExploredPath {
    fn enc(&self, e: &mut Encoder) {
        self.instruction.enc(e);
        self.constraints.enc(e);
        self.model.enc(e);
        self.outcome.enc(e);
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(ExploredPath {
            instruction: InstrUnderTest::dec(d)?,
            constraints: Vec::dec(d)?,
            model: Model::dec(d)?,
            outcome: PathOutcome::dec(d)?,
        })
    }
}

impl Wire for CurationReason {
    fn enc(&self, e: &mut Encoder) {
        match self {
            CurationReason::SolverError(err) => {
                e.u8(0);
                err.enc(e);
            }
            CurationReason::Unsupported(s) => {
                e.u8(1);
                e.str(s);
            }
            CurationReason::Budget => e.u8(2),
        }
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(match d.u8()? {
            0 => CurationReason::SolverError(SolveError::dec(d)?),
            1 => CurationReason::Unsupported(d.static_str()?),
            2 => CurationReason::Budget,
            _ => return Err(WireError::BadTag("CurationReason")),
        })
    }
}

impl Wire for VarRole {
    fn enc(&self, e: &mut Encoder) {
        e.u8(match self {
            VarRole::Value => 0,
            VarRole::Counter => 1,
        });
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(match d.u8()? {
            0 => VarRole::Value,
            1 => VarRole::Counter,
            _ => return Err(WireError::BadTag("VarRole")),
        })
    }
}

impl Wire for ObjShape {
    fn enc(&self, e: &mut Encoder) {
        self.size_var.enc(e);
        self.slots.enc(e);
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(ObjShape { size_var: Option::dec(d)?, slots: Vec::dec(d)? })
    }
}

impl Wire for AbstractState {
    fn enc(&self, e: &mut Encoder) {
        self.specs().to_vec().enc(e);
        self.roles().to_vec().enc(e);
        self.shapes().to_vec().enc(e);
        self.stack_size.enc(e);
        self.temp_count.enc(e);
        self.literal_count.enc(e);
        self.receiver.enc(e);
        self.stack_vars.enc(e);
        self.temp_vars.enc(e);
        self.literal_vars.enc(e);
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(AbstractState::from_parts(
            Vec::dec(d)?,
            Vec::dec(d)?,
            Vec::dec(d)?,
            VarId::dec(d)?,
            VarId::dec(d)?,
            VarId::dec(d)?,
            VarId::dec(d)?,
            Vec::dec(d)?,
            Vec::dec(d)?,
            Vec::dec(d)?,
        ))
    }
}

impl Wire for ExplorationResult {
    fn enc(&self, e: &mut Encoder) {
        self.paths.enc(e);
        self.curated_out.enc(e);
        self.state.enc(e);
        e.usize(self.iterations);
        self.probe_models.enc(e);
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(ExplorationResult {
            paths: Vec::dec(d)?,
            curated_out: Vec::dec(d)?,
            state: AbstractState::dec(d)?,
            iterations: d.usize()?,
            probe_models: Vec::dec(d)?,
            // Timings and solver and trail counters are run
            // diagnostics, not results: a preloaded exploration is
            // always a cache hit, which charges no walk, probe, solve
            // or trail work, so they are not on the wire.
            solver: igjit_solver::SessionStats::default(),
            trail: igjit_solver::TrailStats::default(),
            walk_run: std::time::Duration::ZERO,
            probe_solve: std::time::Duration::ZERO,
        })
    }
}

// ------------------------------------------------------------------ jit

impl Wire for CompilerKind {
    fn enc(&self, e: &mut Encoder) {
        e.u8(match self {
            CompilerKind::SimpleStackBased => 0,
            CompilerKind::StackToRegister => 1,
            CompilerKind::RegisterAllocating => 2,
        });
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(match d.u8()? {
            0 => CompilerKind::SimpleStackBased,
            1 => CompilerKind::StackToRegister,
            2 => CompilerKind::RegisterAllocating,
            _ => return Err(WireError::BadTag("CompilerKind")),
        })
    }
}

/// A hand-written tier keeps its [`CompilerKind`] tag; the meta
/// evaluator takes the next value.
impl Wire for FrontEnd {
    fn enc(&self, e: &mut Encoder) {
        match self {
            FrontEnd::Tier(kind) => kind.enc(e),
            FrontEnd::Meta => e.u8(3),
        }
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(match d.u8()? {
            0 => FrontEnd::Tier(CompilerKind::SimpleStackBased),
            1 => FrontEnd::Tier(CompilerKind::StackToRegister),
            2 => FrontEnd::Tier(CompilerKind::RegisterAllocating),
            3 => FrontEnd::Meta,
            _ => return Err(WireError::BadTag("FrontEnd")),
        })
    }
}

impl Wire for CompileKey {
    fn enc(&self, e: &mut Encoder) {
        match self {
            CompileKey::Bytecode {
                front_end,
                isa,
                instrs,
                stack,
                temps,
                literals,
                nil,
                true_obj,
                false_obj,
            } => {
                e.u8(0);
                front_end.enc(e);
                isa.enc(e);
                instrs.enc(e);
                stack.enc(e);
                temps.enc(e);
                literals.enc(e);
                e.u32(*nil);
                e.u32(*true_obj);
                e.u32(*false_obj);
            }
            CompileKey::Native { id, isa, nil, true_obj, false_obj } => {
                e.u8(1);
                e.u32(*id);
                isa.enc(e);
                e.u32(*nil);
                e.u32(*true_obj);
                e.u32(*false_obj);
            }
        }
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(match d.u8()? {
            0 => CompileKey::Bytecode {
                front_end: FrontEnd::dec(d)?,
                isa: Isa::dec(d)?,
                instrs: Vec::dec(d)?,
                stack: Vec::dec(d)?,
                temps: Vec::dec(d)?,
                literals: Vec::dec(d)?,
                nil: d.u32()?,
                true_obj: d.u32()?,
                false_obj: d.u32()?,
            },
            1 => CompileKey::Native {
                id: d.u32()?,
                isa: Isa::dec(d)?,
                nil: d.u32()?,
                true_obj: d.u32()?,
                false_obj: d.u32()?,
            },
            _ => return Err(WireError::BadTag("CompileKey")),
        })
    }
}

impl Wire for CompiledCode {
    fn enc(&self, e: &mut Encoder) {
        e.bytes(&self.code);
        self.isa.enc(e);
        e.u32(self.ntemps);
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        let (code, isa) = (d.bytes()?.to_vec(), Isa::dec(d)?);
        // The compilers emit one temp per frame slot; a larger count
        // would size the replayed frame off a corrupted word.
        match d.u32()? {
            ntemps if ntemps <= MethodHeader::MAX_FRAME_TEMPS => {
                Ok(CompiledCode { code, isa, ntemps })
            }
            _ => Err(WireError::BadLength),
        }
    }
}

impl Wire for CompileError {
    fn enc(&self, e: &mut Encoder) {
        match self {
            CompileError::NotImplemented(s) => {
                e.u8(0);
                e.str(s);
            }
            CompileError::Unsupported(s) => {
                e.u8(1);
                e.str(s);
            }
            CompileError::Backend(s) => {
                e.u8(2);
                e.str(s);
            }
        }
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(match d.u8()? {
            0 => CompileError::NotImplemented(d.static_str()?),
            1 => CompileError::Unsupported(d.static_str()?),
            2 => CompileError::Backend(d.string()?),
            _ => return Err(WireError::BadTag("CompileError")),
        })
    }
}

impl Wire for Result<CompiledCode, CompileError> {
    fn enc(&self, e: &mut Encoder) {
        match self {
            Ok(code) => {
                e.u8(0);
                code.enc(e);
            }
            Err(err) => {
                e.u8(1);
                err.enc(e);
            }
        }
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(match d.u8()? {
            0 => Ok(CompiledCode::dec(d)?),
            1 => Err(CompileError::dec(d)?),
            _ => return Err(WireError::BadTag("Result")),
        })
    }
}

// ------------------------------------------------------------- difftest

impl Wire for Target {
    fn enc(&self, e: &mut Encoder) {
        match self {
            Target::NativeMethods => e.u8(0),
            Target::Bytecode(k) => {
                e.u8(1);
                k.enc(e);
            }
            Target::MetaCompiled => e.u8(2),
        }
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(match d.u8()? {
            0 => Target::NativeMethods,
            1 => Target::Bytecode(CompilerKind::dec(d)?),
            2 => Target::MetaCompiled,
            _ => return Err(WireError::BadTag("Target")),
        })
    }
}

impl Wire for DefectCategory {
    fn enc(&self, e: &mut Encoder) {
        let i = DefectCategory::ALL
            .iter()
            .position(|c| c == self)
            .expect("every category is in ALL");
        e.u8(i as u8);
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        let i = d.u8()? as usize;
        DefectCategory::ALL.get(i).copied().ok_or(WireError::BadTag("DefectCategory"))
    }
}

impl Wire for CauseKey {
    fn enc(&self, e: &mut Encoder) {
        self.category.enc(e);
        self.instruction.enc(e);
        self.compiler.enc(e);
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(CauseKey {
            category: DefectCategory::dec(d)?,
            instruction: Cow::dec(d)?,
            compiler: Cow::dec(d)?,
        })
    }
}

impl Wire for DifferenceKind {
    fn enc(&self, e: &mut Encoder) {
        match self {
            DifferenceKind::ExitMismatch { interp, compiled } => {
                e.u8(0);
                e.str(interp);
                e.str(compiled);
            }
            DifferenceKind::StackMismatch => e.u8(1),
            DifferenceKind::TempsMismatch => e.u8(2),
            DifferenceKind::ResultMismatch => e.u8(3),
            DifferenceKind::SendMismatch => e.u8(4),
            DifferenceKind::SideEffectMismatch => e.u8(5),
            DifferenceKind::CompileRefused => e.u8(6),
            DifferenceKind::SimulationError => e.u8(7),
            DifferenceKind::EngineError => e.u8(8),
        }
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(match d.u8()? {
            0 => DifferenceKind::ExitMismatch { interp: d.string()?, compiled: d.string()? },
            1 => DifferenceKind::StackMismatch,
            2 => DifferenceKind::TempsMismatch,
            3 => DifferenceKind::ResultMismatch,
            4 => DifferenceKind::SendMismatch,
            5 => DifferenceKind::SideEffectMismatch,
            6 => DifferenceKind::CompileRefused,
            7 => DifferenceKind::SimulationError,
            8 => DifferenceKind::EngineError,
            _ => return Err(WireError::BadTag("DifferenceKind")),
        })
    }
}

impl Wire for Difference {
    fn enc(&self, e: &mut Encoder) {
        self.kind.enc(e);
        e.str(&self.detail);
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(Difference { kind: DifferenceKind::dec(d)?, detail: d.string()? })
    }
}

impl Wire for Verdict {
    fn enc(&self, e: &mut Encoder) {
        match self {
            Verdict::Agree => e.u8(0),
            Verdict::Difference(diff) => {
                e.u8(1);
                diff.enc(e);
            }
        }
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(match d.u8()? {
            0 => Verdict::Agree,
            1 => Verdict::Difference(Difference::dec(d)?),
            _ => return Err(WireError::BadTag("Verdict")),
        })
    }
}

impl Wire for PathVerdict {
    fn enc(&self, e: &mut Encoder) {
        self.instruction.enc(e);
        e.str(self.interp_exit);
        self.verdict.enc(e);
        self.cause.enc(e);
        self.all_causes.enc(e);
        e.bool(self.found_by_probe);
        self.isa.enc(e);
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(PathVerdict {
            instruction: InstrUnderTest::dec(d)?,
            interp_exit: {
                let label = std::str::from_utf8(d.bytes()?).map_err(|_| WireError::BadUtf8)?;
                PathVerdict::interp_exit_label(label).ok_or(WireError::BadTag("interp exit"))?
            },
            verdict: Verdict::dec(d)?,
            cause: Option::dec(d)?,
            all_causes: Vec::dec(d)?,
            found_by_probe: d.bool()?,
            isa: Option::dec(d)?,
        })
    }
}

impl Wire for SnapshotStats {
    fn enc(&self, e: &mut Encoder) {
        e.u64(self.seals);
        e.u64(self.restores);
        e.u64(self.dirty_words);
        for v in self.dirty_hist {
            e.u64(v);
        }
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        let seals = d.u64()?;
        let restores = d.u64()?;
        let dirty_words = d.u64()?;
        let mut dirty_hist = [0u64; 8];
        for slot in &mut dirty_hist {
            *slot = d.u64()?;
        }
        Ok(SnapshotStats { seals, restores, dirty_words, dirty_hist })
    }
}

impl Wire for InstructionOutcome {
    fn enc(&self, e: &mut Encoder) {
        self.instruction.enc(e);
        e.usize(self.paths_found);
        e.usize(self.curated);
        self.verdicts.enc(e);
        e.usize(self.witness_errors);
        e.usize(self.oracle_panics);
        self.snapshot.enc(e);
        e.usize(self.meta_compiled_runs);
        e.usize(self.meta_trampolines);
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(InstructionOutcome {
            instruction: InstrUnderTest::dec(d)?,
            paths_found: d.usize()?,
            curated: d.usize()?,
            verdicts: Vec::dec(d)?,
            witness_errors: d.usize()?,
            oracle_panics: d.usize()?,
            snapshot: SnapshotStats::dec(d)?,
            meta_compiled_runs: d.usize()?,
            meta_trampolines: d.usize()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constraint_round_trips() {
        let c = Constraint::Or(vec![
            Constraint::Kind { var: VarId(3), allowed: KindSet::only(Kind::Float) },
            Constraint::And(vec![
                Constraint::Int(
                    CmpOp::Le,
                    LinExpr { constant: -7, terms: vec![(2, VarId(1))] },
                    LinExpr { constant: 0, terms: vec![] },
                ),
                Constraint::Float(CmpOp::Ne, FloatTerm::Var(VarId(0)), FloatTerm::Const(1.5)),
            ]),
            Constraint::ObjEq(VarId(4), VarId(5)),
        ]);
        let rt: Constraint = from_bytes(&to_bytes(&c)).unwrap();
        assert_eq!(rt, c);
    }

    #[test]
    fn instruction_and_selector_round_trip() {
        for spec in igjit_bytecode::instruction_catalog() {
            let rt: Instruction = from_bytes(&to_bytes(&spec.instruction)).unwrap();
            assert_eq!(rt, spec.instruction);
        }
        for sel in SpecialSelector::ALL {
            let rt: SpecialSelector = from_bytes(&to_bytes(&sel)).unwrap();
            assert_eq!(rt, sel);
        }
    }

    #[test]
    fn kindset_round_trips() {
        let sets =
            [KindSet::EMPTY, KindSet::ANY, KindSet::only(Kind::SmallInt).union(KindSet::only(Kind::Nil))];
        for s in sets {
            let rt: KindSet = from_bytes(&to_bytes(&s)).unwrap();
            assert_eq!(rt, s);
        }
    }

    #[test]
    fn model_round_trips() {
        let m = Model::from_assignments(vec![
            Assignment { kind: Kind::SmallInt, int: -3, float: 0.0, alias: 7 },
            Assignment { kind: Kind::Float, int: 0, float: -2.25, alias: 8 },
        ]);
        let rt: Model = from_bytes(&to_bytes(&m)).unwrap();
        assert_eq!(rt, m);
    }

    #[test]
    fn every_enum_rejects_bad_tags() {
        assert!(from_bytes::<CmpOp>(&[99]).is_err());
        assert!(from_bytes::<Verdict>(&[9]).is_err());
        assert!(from_bytes::<Target>(&[7]).is_err());
        assert!(from_bytes::<PathOutcome>(&[200]).is_err());
        assert!(from_bytes::<Kind>(&[15]).is_err());
        assert!(from_bytes::<FrontEnd>(&[4]).is_err());
        assert_eq!(from_bytes::<FrontEnd>(&to_bytes(&FrontEnd::Meta)).unwrap(), FrontEnd::Meta);
    }
}
