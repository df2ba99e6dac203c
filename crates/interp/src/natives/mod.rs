//! Native methods (primitives).
//!
//! Native methods are the VM's non-inlined primitive operations
//! (§3.1): *safe by contract* — they validate operand types and shapes
//! and answer [`NativeOutcome::Failure`] instead of misbehaving, which
//! is why the paper treats an `InvalidMemoryAccess` from a native
//! method as a genuine error rather than an exploration signal.
//!
//! The catalog holds 112 native methods in four groups, matching the
//! scale of the paper's evaluation (112 tested primitives):
//!
//! | group | ids | count |
//! |-------|-----|-------|
//! | SmallInteger arithmetic | 1–17 | 17 |
//! | Float arithmetic        | 40–53 | 14 |
//! | Object access/allocation| 60–80 | 21 |
//! | FFI / external memory   | 100–159 | 60 |
//!
//! The FFI group is the substrate for the paper's *missing
//! functionality* defect family: all 60 are implemented here (the
//! interpreter side) and none are implemented by the 32-bit template
//! compiler.

mod ffi;
mod float;
mod object;
mod smallint;

use crate::context::VmContext;
use crate::exit::SendArgs;
use crate::frame::Frame;

/// Identifies a native method in the VM's primitive table.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NativeMethodId(pub u16);

/// The four primitive groups.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum NativeGroup {
    /// Tagged integer arithmetic, comparison and bitwise primitives.
    SmallInteger,
    /// Boxed float primitives.
    Float,
    /// Object access, allocation, identity and reflection primitives.
    Object,
    /// Foreign-memory primitives over the simulated external region.
    Ffi,
}

/// Catalog entry for one native method.
#[derive(Clone, Debug)]
pub struct NativeMethodSpec {
    /// Primitive id.
    pub id: NativeMethodId,
    /// Human-readable name (`primitiveAdd`, …).
    pub name: String,
    /// Group.
    pub group: NativeGroup,
    /// Number of arguments (receiver excluded).
    pub argc: u32,
}

/// How a native method finished (§3.4 for native methods).
#[derive(Clone, PartialEq, Debug)]
pub enum NativeOutcome<V> {
    /// The primitive succeeded: receiver and arguments were popped,
    /// `result` was pushed, and execution returns to the caller.
    Success {
        /// The value pushed for the caller.
        result: V,
    },
    /// Operand validation failed; the stack is untouched and execution
    /// falls back to the method's bytecode body.
    Failure,
    /// The frame does not hold receiver + arguments.
    InvalidFrame,
    /// The primitive performed an out-of-bounds access — a genuine bug
    /// when it happens, since natives are safe by contract.
    InvalidMemoryAccess,
    /// The primitive touches machinery the prototype does not model.
    Unsupported {
        /// What is missing.
        reason: &'static str,
    },
}

impl<V> NativeOutcome<V> {
    /// Collapses to the paper's exit-condition lattice.
    pub fn exit_condition(&self) -> Option<crate::ExitCondition> {
        Some(match self {
            NativeOutcome::Success { .. } => crate::ExitCondition::Success,
            NativeOutcome::Failure => crate::ExitCondition::Failure,
            NativeOutcome::InvalidFrame => crate::ExitCondition::InvalidFrame,
            NativeOutcome::InvalidMemoryAccess => crate::ExitCondition::InvalidMemoryAccess,
            NativeOutcome::Unsupported { .. } => return None,
        })
    }
}

/// The catalog, built once per process. `native_spec` sits on the
/// per-run hot path of the compiled pipeline (twice per compiled
/// native run: operand extraction and template argc), so rebuilding
/// the 112-entry spec vector per lookup costs real campaign wall
/// clock — memoize it and hand out borrows.
static CATALOG: std::sync::OnceLock<Vec<NativeMethodSpec>> = std::sync::OnceLock::new();

fn cached_catalog() -> &'static [NativeMethodSpec] {
    CATALOG.get_or_init(|| {
        let mut specs = Vec::new();
        specs.extend(smallint::catalog());
        specs.extend(float::catalog());
        specs.extend(object::catalog());
        specs.extend(ffi::catalog());
        specs
    })
}

/// Enumerates the full native-method catalog in id order.
pub fn native_catalog() -> Vec<NativeMethodSpec> {
    cached_catalog().to_vec()
}

/// Looks up one spec by id: a binary search, since the catalog is in
/// strictly increasing id order (`catalog_ids_are_unique_and_sorted`).
pub fn native_spec(id: NativeMethodId) -> Option<&'static NativeMethodSpec> {
    let catalog = cached_catalog();
    catalog.binary_search_by_key(&id, |s| s.id).ok().map(|i| &catalog[i])
}

/// Runs native method `id` against `frame`, whose operand stack must
/// hold `receiver, arg0, …, argN` (receiver deepest).
///
/// On [`NativeOutcome::Success`] the operands are replaced by the
/// result; on every other outcome the stack is untouched.
pub fn run_native<C: VmContext>(
    ctx: &mut C,
    frame: &mut Frame<C::V>,
    id: NativeMethodId,
) -> NativeOutcome<C::V> {
    match id.0 {
        1..=17 => smallint::run(ctx, frame, id),
        40..=53 => float::run(ctx, frame, id),
        60..=80 => object::run(ctx, frame, id),
        100..=159 => ffi::run(ctx, frame, id),
        _ => NativeOutcome::Unsupported { reason: "unknown primitive id" },
    }
}

/// Pops `argc + 1` operands and pushes `result`; shared success
/// epilogue for all primitives.
pub(crate) fn succeed<C: VmContext>(
    frame: &mut Frame<C::V>,
    argc: u32,
    result: C::V,
) -> NativeOutcome<C::V> {
    frame.pop_n(argc as usize + 1);
    frame.push(result);
    NativeOutcome::Success { result }
}

/// Reads `receiver, args..` from the operand stack (at most
/// [`SendArgs::MAX`] arguments, held inline); `None` means the frame is
/// too shallow (InvalidFrame).
pub(crate) fn operands<C: VmContext>(
    ctx: &mut C,
    frame: &Frame<C::V>,
    argc: u32,
) -> Option<(C::V, SendArgs<C::V>)> {
    let receiver = ctx.stack_value(frame, argc as usize).ok()?;
    let mut args = SendArgs::new(&[], receiver);
    for i in (0..argc as usize).rev() {
        args.push(ctx.stack_value(frame, i).ok()?);
    }
    Some((receiver, args))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_exactly_112_natives() {
        let catalog = native_catalog();
        assert_eq!(catalog.len(), 112);
    }

    #[test]
    fn catalog_ids_are_unique_and_sorted() {
        let catalog = native_catalog();
        for w in catalog.windows(2) {
            assert!(w[0].id < w[1].id, "{:?} !< {:?}", w[0].id, w[1].id);
        }
    }

    #[test]
    fn native_spec_finds_every_catalog_id_and_nothing_else() {
        let catalog = native_catalog();
        for spec in &catalog {
            assert_eq!(native_spec(spec.id).map(|s| s.id), Some(spec.id));
        }
        for id in (0..=u16::MAX).map(NativeMethodId) {
            let listed = catalog.iter().any(|s| s.id == id);
            assert_eq!(native_spec(id).is_some(), listed, "{id:?}");
        }
    }

    #[test]
    fn group_counts_match_the_design() {
        let catalog = native_catalog();
        let count = |g: NativeGroup| catalog.iter().filter(|s| s.group == g).count();
        assert_eq!(count(NativeGroup::SmallInteger), 17);
        assert_eq!(count(NativeGroup::Float), 14);
        assert_eq!(count(NativeGroup::Object), 21);
        assert_eq!(count(NativeGroup::Ffi), 60);
    }

    #[test]
    fn spec_lookup_works() {
        assert_eq!(native_spec(NativeMethodId(1)).unwrap().name, "primitiveAdd");
        assert!(native_spec(NativeMethodId(999)).is_none());
    }

    #[test]
    fn unknown_id_is_unsupported() {
        let mut mem = igjit_heap::ObjectMemory::new();
        let nil = mem.nil();
        let mut ctx = crate::ConcreteContext::new(&mut mem);
        let mut frame = crate::Frame::new(nil, crate::MethodInfo::empty());
        assert!(matches!(
            run_native(&mut ctx, &mut frame, NativeMethodId(999)),
            NativeOutcome::Unsupported { .. }
        ));
    }
}
