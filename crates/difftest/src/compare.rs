//! Behavioural comparison between the interpreter and compiled runs.

use igjit_heap::fxhash::FxHashMap;

use igjit_heap::{ObjectMemory, Oop};
use igjit_solver::VarId;

use crate::compiled::CompiledRun;
use crate::oracle::EngineExit;

/// Result of comparing one path's two executions.
#[derive(Clone, Debug)]
pub enum Verdict {
    /// Same observable behaviour.
    Agree,
    /// The engines diverged.
    Difference(Difference),
}

impl Verdict {
    /// Whether this verdict is a difference.
    pub fn is_difference(&self) -> bool {
        matches!(self, Verdict::Difference(_))
    }
}

/// A detected divergence.
#[derive(Clone, Debug)]
pub struct Difference {
    /// What kind of divergence.
    pub kind: DifferenceKind,
    /// Human-readable detail for the report.
    pub detail: String,
}

/// The kinds of divergence the comparator distinguishes.
#[derive(Clone, PartialEq, Debug)]
pub enum DifferenceKind {
    /// Different exit conditions (e.g. Success vs MessageSend).
    ExitMismatch {
        /// Interpreter exit (short form).
        interp: String,
        /// Compiled exit (short form).
        compiled: String,
    },
    /// Same exit, different operand stack contents.
    StackMismatch,
    /// Same exit, different temp contents.
    TempsMismatch,
    /// Same exit, different result / return value.
    ResultMismatch,
    /// Same exit (send), different selector or send payload.
    SendMismatch,
    /// Side effects on the input object graph differ.
    SideEffectMismatch,
    /// The compiler refused the instruction.
    CompileRefused,
    /// The simulated runtime errored (reflection-table hole).
    SimulationError,
    /// Harness-level failure.
    EngineError,
}

fn exit_name(e: &EngineExit) -> String {
    match e {
        EngineExit::Success { .. } => "Success".into(),
        EngineExit::JumpTaken => "JumpTaken".into(),
        EngineExit::Failure => "Failure".into(),
        EngineExit::Return { .. } => "Return".into(),
        EngineExit::Send { .. } => "Send".into(),
        EngineExit::InvalidFrame => "InvalidFrame".into(),
        EngineExit::InvalidMemory => "InvalidMemory".into(),
        EngineExit::SimulationError(r) => format!("SimulationError({r})"),
        EngineExit::EngineError(r) => format!("EngineError({r})"),
    }
}

/// Structural value equivalence across two heaps.
///
/// Materialization is deterministic, so *input* objects occupy the
/// same addresses in both heaps and raw comparison usually suffices;
/// freshly allocated results (boxed floats, copies) are compared
/// structurally instead.
pub fn values_equivalent(
    mem_a: &ObjectMemory,
    a: Oop,
    mem_b: &ObjectMemory,
    b: Oop,
    depth: u32,
) -> bool {
    if a.is_small_int() || b.is_small_int() {
        return a == b;
    }
    if depth > 4 {
        return true; // bounded structural comparison
    }
    let ca = mem_a.class_index_of(a);
    let cb = mem_b.class_index_of(b);
    if ca != cb {
        return false;
    }
    // Floats compare by payload bits.
    if let (Ok(fa), Ok(fb)) = (mem_a.float_value_of(a), mem_b.float_value_of(b)) {
        return fa.to_bits() == fb.to_bits();
    }
    match (mem_a.format_of(a), mem_b.format_of(b)) {
        (Ok(fa), Ok(fb)) if fa == fb => {
            if fa.is_bytes() {
                let (na, nb) = (
                    mem_a.byte_count(a).unwrap_or(0),
                    mem_b.byte_count(b).unwrap_or(0),
                );
                if na != nb {
                    return false;
                }
                return (0..na).all(|i| {
                    mem_a.fetch_byte(a, i).ok() == mem_b.fetch_byte(b, i).ok()
                });
            }
            if fa.has_pointer_slots() {
                let (na, nb) = (
                    mem_a.element_count(a).unwrap_or(0),
                    mem_b.element_count(b).unwrap_or(0),
                );
                if na != nb {
                    return false;
                }
                return (0..na).all(|i| {
                    match (mem_a.fetch_pointer(a, i), mem_b.fetch_pointer(b, i)) {
                        (Ok(va), Ok(vb)) => {
                            values_equivalent(mem_a, va, mem_b, vb, depth + 1)
                        }
                        _ => false,
                    }
                });
            }
            true
        }
        _ => false,
    }
}

fn vecs_equivalent(mem_a: &ObjectMemory, a: &[Oop], mem_b: &ObjectMemory, b: &[Oop]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(&x, &y)| values_equivalent(mem_a, x, mem_b, y, 0))
}

/// Compares the side effects on the shared input object graph.
fn side_effects_equivalent(
    mem_a: &ObjectMemory,
    mem_b: &ObjectMemory,
    var_oops: &FxHashMap<VarId, Oop>,
) -> bool {
    var_oops.values().all(|&oop| {
        if !mem_a.is_live_object(oop) || !mem_b.is_live_object(oop) {
            return true;
        }
        values_equivalent(mem_a, oop, mem_b, oop, 0)
    })
}

/// Compares one path's interpreter run against its compiled run.
///
/// `interp_mem`/`compiled_mem` are the post-execution heaps;
/// `var_oops` maps input variables to their (identical) materialized
/// oops.
pub fn compare_runs(
    interp: &EngineExit,
    interp_mem: &ObjectMemory,
    compiled: &CompiledRun,
    compiled_mem: &ObjectMemory,
    var_oops: &FxHashMap<VarId, Oop>,
) -> Verdict {
    let compiled_exit = match compiled {
        CompiledRun::Refused(e) => {
            return Verdict::Difference(Difference {
                kind: DifferenceKind::CompileRefused,
                detail: format!("compiler refused: {e}"),
            });
        }
        CompiledRun::Ran(e) => e,
    };
    if let EngineExit::SimulationError(r) = compiled_exit {
        return Verdict::Difference(Difference {
            kind: DifferenceKind::SimulationError,
            detail: format!("simulation runtime error on register {r}"),
        });
    }
    if let EngineExit::EngineError(r) = compiled_exit {
        return Verdict::Difference(Difference {
            kind: DifferenceKind::EngineError,
            detail: r.clone(),
        });
    }
    let verdict = match (interp, compiled_exit) {
        (
            EngineExit::Success { stack: s1, temps: t1, result: r1 },
            EngineExit::Success { stack: s2, temps: t2, result: r2 },
        ) => {
            // Native results: compare result values. Bytecode: compare
            // stacks and temps.
            let result_ok = match (r1, r2) {
                (Some(a), Some(b)) => values_equivalent(interp_mem, *a, compiled_mem, *b, 0),
                _ => true,
            };
            if !result_ok {
                Some(Difference {
                    kind: DifferenceKind::ResultMismatch,
                    detail: format!("results differ: {r1:?} vs {r2:?}"),
                })
            } else if r1.is_none() && !vecs_equivalent(interp_mem, s1, compiled_mem, s2) {
                Some(Difference {
                    kind: DifferenceKind::StackMismatch,
                    detail: format!("operand stacks differ: {s1:?} vs {s2:?}"),
                })
            } else if r1.is_none() && !vecs_equivalent(interp_mem, t1, compiled_mem, t2) {
                Some(Difference {
                    kind: DifferenceKind::TempsMismatch,
                    detail: format!("temps differ: {t1:?} vs {t2:?}"),
                })
            } else {
                None
            }
        }
        (EngineExit::JumpTaken, EngineExit::JumpTaken) => None,
        (EngineExit::Failure, EngineExit::Failure) => None,
        (EngineExit::Return { value: v1 }, EngineExit::Return { value: v2 }) => {
            if values_equivalent(interp_mem, *v1, compiled_mem, *v2, 0) {
                None
            } else {
                Some(Difference {
                    kind: DifferenceKind::ResultMismatch,
                    detail: format!("returned values differ: {v1:?} vs {v2:?}"),
                })
            }
        }
        (
            EngineExit::Send { selector: sel1, receiver: r1, args: a1 },
            EngineExit::Send { selector: sel2, receiver: r2, args: a2 },
        ) => {
            // Compare the raw trampoline payloads: the compiled side
            // cannot distinguish a special-selector index from a
            // literal selector oop with the same bits, but the raw
            // encodings are directly comparable.
            let raw = |s: &crate::oracle::SelectorId| -> u32 {
                match s {
                    crate::oracle::SelectorId::Special(sp) => sp.index(),
                    crate::oracle::SelectorId::MustBeBoolean => {
                        igjit_jit::MUST_BE_BOOLEAN_SELECTOR
                    }
                    crate::oracle::SelectorId::Literal(oop) => oop.0,
                }
            };
            let sel_ok = raw(sel1) == raw(sel2);
            let rcvr_ok = values_equivalent(interp_mem, *r1, compiled_mem, *r2, 0);
            // Compare as many args as both sides captured.
            let n = a1.len().min(a2.len());
            let args_ok = vecs_equivalent(interp_mem, &a1[..n], compiled_mem, &a2[..n]);
            if sel_ok && rcvr_ok && args_ok {
                None
            } else {
                Some(Difference {
                    kind: DifferenceKind::SendMismatch,
                    detail: format!(
                        "sends differ: {sel1:?} to {r1:?} {a1:?} vs {sel2:?} to {r2:?} {a2:?}"
                    ),
                })
            }
        }
        (i, c) => {
            let (interp, compiled) = (exit_name(i), exit_name(c));
            let detail = format!("exits differ: {interp} vs {compiled}");
            Some(Difference { kind: DifferenceKind::ExitMismatch { interp, compiled }, detail })
        }
    };
    if let Some(d) = verdict {
        return Verdict::Difference(d);
    }
    if !side_effects_equivalent(interp_mem, compiled_mem, var_oops) {
        return Verdict::Difference(Difference {
            kind: DifferenceKind::SideEffectMismatch,
            detail: "input object graphs diverged".into(),
        });
    }
    Verdict::Agree
}

#[cfg(test)]
mod tests {
    use super::*;

    fn si(v: i64) -> Oop {
        Oop::from_small_int(v)
    }

    #[test]
    fn small_ints_compare_by_value() {
        let a = ObjectMemory::new();
        let b = ObjectMemory::new();
        assert!(values_equivalent(&a, si(5), &b, si(5), 0));
        assert!(!values_equivalent(&a, si(5), &b, si(6), 0));
    }

    #[test]
    fn floats_compare_by_bits_across_heaps() {
        let mut a = ObjectMemory::new();
        let mut b = ObjectMemory::new();
        // Allocate extra garbage in b so addresses differ.
        let _pad = b.instantiate_array(&[]).unwrap();
        let fa = a.instantiate_float(2.5).unwrap();
        let fb = b.instantiate_float(2.5).unwrap();
        let fc = b.instantiate_float(3.5).unwrap();
        assert!(values_equivalent(&a, fa, &b, fb, 0));
        assert!(!values_equivalent(&a, fa, &b, fc, 0));
    }

    #[test]
    fn arrays_compare_structurally() {
        let mut a = ObjectMemory::new();
        let mut b = ObjectMemory::new();
        let aa = a.instantiate_array(&[si(1), si(2)]).unwrap();
        let bb = b.instantiate_array(&[si(1), si(2)]).unwrap();
        let cc = b.instantiate_array(&[si(1), si(3)]).unwrap();
        assert!(values_equivalent(&a, aa, &b, bb, 0));
        assert!(!values_equivalent(&a, aa, &b, cc, 0));
    }

    #[test]
    fn class_mismatch_is_inequivalent() {
        let mut a = ObjectMemory::new();
        let mut b = ObjectMemory::new();
        let aa = a.instantiate_array(&[]).unwrap();
        let bb = b.instantiate_bytes(igjit_heap::ClassIndex::BYTE_ARRAY, &[]).unwrap();
        assert!(!values_equivalent(&a, aa, &b, bb, 0));
    }

    #[test]
    fn matching_success_exits_agree() {
        let mem = ObjectMemory::new();
        let i = EngineExit::Success { stack: vec![si(1)], temps: vec![], result: None };
        let c = CompiledRun::Ran(EngineExit::Success {
            stack: vec![si(1)],
            temps: vec![],
            result: None,
        });
        let v = compare_runs(&i, &mem, &c, &mem, &FxHashMap::default());
        assert!(!v.is_difference());
    }

    #[test]
    fn exit_mismatch_is_detected() {
        let mem = ObjectMemory::new();
        let i = EngineExit::Failure;
        let c = CompiledRun::Ran(EngineExit::Success {
            stack: vec![],
            temps: vec![],
            result: Some(si(0)),
        });
        match compare_runs(&i, &mem, &c, &mem, &FxHashMap::default()) {
            Verdict::Difference(d) => {
                assert!(matches!(d.kind, DifferenceKind::ExitMismatch { .. }))
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn refusal_is_a_difference() {
        let mem = ObjectMemory::new();
        let i = EngineExit::Failure;
        let c = CompiledRun::Refused(igjit_jit::CompileError::NotImplemented("ffi"));
        match compare_runs(&i, &mem, &c, &mem, &FxHashMap::default()) {
            Verdict::Difference(d) => assert_eq!(d.kind, DifferenceKind::CompileRefused),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn return_value_mismatch_is_detected() {
        let mem = ObjectMemory::new();
        let i = EngineExit::Return { value: si(1) };
        let c = CompiledRun::Ran(EngineExit::Return { value: si(2) });
        match compare_runs(&i, &mem, &c, &mem, &FxHashMap::default()) {
            Verdict::Difference(d) => assert_eq!(d.kind, DifferenceKind::ResultMismatch),
            other => panic!("{other:?}"),
        }
        let c = CompiledRun::Ran(EngineExit::Return { value: si(1) });
        assert!(!compare_runs(&i, &mem, &c, &mem, &FxHashMap::default()).is_difference());
    }

    #[test]
    fn temps_mismatch_is_detected() {
        let mem = ObjectMemory::new();
        let i = EngineExit::Success { stack: vec![], temps: vec![si(1)], result: None };
        let c = CompiledRun::Ran(EngineExit::Success {
            stack: vec![],
            temps: vec![si(2)],
            result: None,
        });
        match compare_runs(&i, &mem, &c, &mem, &FxHashMap::default()) {
            Verdict::Difference(d) => assert_eq!(d.kind, DifferenceKind::TempsMismatch),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn send_payload_mismatch_is_detected() {
        use crate::oracle::SelectorId;
        use igjit_bytecode::SpecialSelector;
        let mem = ObjectMemory::new();
        let i = EngineExit::Send {
            selector: SelectorId::Special(SpecialSelector::Plus),
            receiver: si(1),
            args: vec![si(2)],
        };
        // Same selector, different receiver.
        let c = CompiledRun::Ran(EngineExit::Send {
            selector: SelectorId::Special(SpecialSelector::Plus),
            receiver: si(9),
            args: vec![si(2)],
        });
        match compare_runs(&i, &mem, &c, &mem, &FxHashMap::default()) {
            Verdict::Difference(d) => assert_eq!(d.kind, DifferenceKind::SendMismatch),
            other => panic!("{other:?}"),
        }
        // Literal selector vs special selector with colliding bits:
        // the raw-payload comparison distinguishes nothing here (both
        // encode the same trampoline payload), so a literal whose oop
        // bits equal the special index counts as the same send.
        let lit = EngineExit::Send {
            selector: SelectorId::Literal(igjit_heap::Oop(SpecialSelector::Plus.index())),
            receiver: si(1),
            args: vec![si(2)],
        };
        assert!(!compare_runs(&i, &mem, &CompiledRun::Ran(lit), &mem, &FxHashMap::default())
            .is_difference());
    }

    #[test]
    fn side_effect_divergence_is_detected() {
        let mut mem_a = ObjectMemory::new();
        let mut mem_b = ObjectMemory::new();
        let a = mem_a.instantiate_array(&[si(1)]).unwrap();
        let b = mem_b.instantiate_array(&[si(1)]).unwrap();
        assert_eq!(a, b, "deterministic layout");
        mem_b.store_pointer(b, 0, si(9)).unwrap();
        let mut var_oops = FxHashMap::default();
        var_oops.insert(igjit_solver::VarId(0), a);
        let i = EngineExit::Success { stack: vec![], temps: vec![], result: None };
        let c = CompiledRun::Ran(EngineExit::Success {
            stack: vec![],
            temps: vec![],
            result: None,
        });
        match compare_runs(&i, &mem_a, &c, &mem_b, &var_oops) {
            Verdict::Difference(d) => {
                assert_eq!(d.kind, DifferenceKind::SideEffectMismatch)
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stack_mismatch_is_detected() {
        let mem = ObjectMemory::new();
        let i = EngineExit::Success { stack: vec![si(1)], temps: vec![], result: None };
        let c = CompiledRun::Ran(EngineExit::Success {
            stack: vec![si(2)],
            temps: vec![],
            result: None,
        });
        match compare_runs(&i, &mem, &c, &mem, &FxHashMap::default()) {
            Verdict::Difference(d) => assert_eq!(d.kind, DifferenceKind::StackMismatch),
            other => panic!("{other:?}"),
        }
    }
}
