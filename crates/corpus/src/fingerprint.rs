//! Content fingerprints that key corpus sections.
//!
//! The corpus must answer one question precisely: *could this cached
//! result differ from what the current binary would recompute?* Each
//! semantic crate exposes a compile-time hash of its own sources
//! (`srcid::SOURCE_FINGERPRINT`, an FNV-1a over every `.rs` file,
//! baked in via `include_bytes!`). Section fingerprints mix exactly
//! the crates whose code can influence that section's results:
//!
//! - **exploration** — the interpreter-side semantics: bytecode set,
//!   heap model, solver, interpreter, concolic engine, plus the probe
//!   flag (probes change what an exploration records).
//! - **code** — the compiler side: bytecode set, heap model, JIT, and
//!   the mutation layer (its catalog changes what an armed mutant
//!   compiles to) plus the *runtime* mutant-arming state.
//! - **outcomes** — everything: both fingerprints above, plus the
//!   machine simulator, the differential-test driver and the partial
//!   evaluator behind the meta tier (its outcomes are stored like any
//!   other target's, so a stale evaluator must invalidate them), plus
//!   the ISA list, since a stored verdict bakes all of them in.
//!
//! This is deliberately finer than "hash the whole binary": editing
//! the JIT invalidates code artifacts and outcomes but leaves the
//! (expensive) exploration section warm; editing only driver crates
//! (`igjit`, `igjit-bench` — orchestration, not semantics) invalidates
//! nothing. Crates outside the lists below must not influence
//! per-instruction results; the campaign's thread-count/knob
//! invariance tests are the guard for that.

use crate::wire::{fnv1a, fnv_mix};
use igjit_machine::Isa;

/// The three section keys of a corpus file.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Fingerprints {
    /// Keys the exploration-cache section.
    pub exploration: u64,
    /// Keys the compiled-code section.
    pub code: u64,
    /// Keys the per-instruction outcome section.
    pub outcomes: u64,
}

/// Computes the fingerprints for a campaign configuration.
///
/// `probes` and `isas` must match the sweep's `CampaignConfig`; the
/// current mutant-arming state (`igjit_mutate::current()`) is read
/// here, so a process running with an armed mutant gets corpus
/// keys disjoint from every pristine run's.
pub fn fingerprints(probes: bool, isas: &[Isa]) -> Fingerprints {
    let interp_side = [
        igjit_bytecode::srcid::SOURCE_FINGERPRINT,
        igjit_heap::srcid::SOURCE_FINGERPRINT,
        igjit_solver::srcid::SOURCE_FINGERPRINT,
        igjit_interp::srcid::SOURCE_FINGERPRINT,
        igjit_concolic::srcid::SOURCE_FINGERPRINT,
    ];
    let mut exploration = fnv1a(b"igjit-corpus/exploration");
    for fp in interp_side {
        exploration = fnv_mix(exploration, fp);
    }
    exploration = fnv_mix(exploration, probes as u64);

    let mutant_state = match igjit_mutate::current() {
        None => 0,
        // Offset so "mutant 0 armed" (if it ever existed) differs from
        // "no mutant".
        Some(id) => 1 + id.0 as u64,
    };
    let code_side = [
        igjit_bytecode::srcid::SOURCE_FINGERPRINT,
        igjit_heap::srcid::SOURCE_FINGERPRINT,
        igjit_jit::srcid::SOURCE_FINGERPRINT,
        igjit_mutate::srcid::SOURCE_FINGERPRINT,
    ];
    let mut code = fnv1a(b"igjit-corpus/code");
    for fp in code_side {
        code = fnv_mix(code, fp);
    }
    code = fnv_mix(code, mutant_state);

    let mut outcomes = fnv1a(b"igjit-corpus/outcomes");
    outcomes = fnv_mix(outcomes, exploration);
    outcomes = fnv_mix(outcomes, code);
    outcomes = fnv_mix(outcomes, igjit_machine::srcid::SOURCE_FINGERPRINT);
    outcomes = fnv_mix(outcomes, igjit_difftest::srcid::SOURCE_FINGERPRINT);
    outcomes = fnv_mix(outcomes, igjit_metajit::srcid::SOURCE_FINGERPRINT);
    outcomes = fnv_mix(outcomes, isas.len() as u64);
    for isa in isas {
        outcomes = fnv_mix(
            outcomes,
            match isa {
                Isa::X86ish => 1,
                Isa::Arm32ish => 2,
            },
        );
    }
    Fingerprints { exploration, code, outcomes }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_within_a_build() {
        // Fingerprints read the armed mutant, which a concurrently
        // running test may arm: hold the disarmed state.
        let _off = igjit_mutate::FaultInjector::pinned_off();
        let a = fingerprints(true, &[Isa::X86ish, Isa::Arm32ish]);
        let b = fingerprints(true, &[Isa::X86ish, Isa::Arm32ish]);
        assert_eq!(a, b);
    }

    #[test]
    fn config_changes_move_the_right_sections() {
        let _off = igjit_mutate::FaultInjector::pinned_off();
        let base = fingerprints(true, &[Isa::X86ish, Isa::Arm32ish]);
        let no_probes = fingerprints(false, &[Isa::X86ish, Isa::Arm32ish]);
        // Probes shape what exploration records → exploration + outcomes
        // move, code artifacts stay valid.
        assert_ne!(base.exploration, no_probes.exploration);
        assert_eq!(base.code, no_probes.code);
        assert_ne!(base.outcomes, no_probes.outcomes);

        let one_isa = fingerprints(true, &[Isa::X86ish]);
        // The ISA list only affects which verdicts a stored outcome
        // aggregates — exploration and per-key code artifacts stay valid.
        assert_eq!(base.exploration, one_isa.exploration);
        assert_eq!(base.code, one_isa.code);
        assert_ne!(base.outcomes, one_isa.outcomes);
    }

    #[test]
    fn armed_mutant_moves_code_and_outcomes() {
        let pristine = fingerprints(true, &[Isa::X86ish]);
        let _guard = igjit_mutate::FaultInjector::arm(igjit_mutate::MutantId(101));
        let armed = fingerprints(true, &[Isa::X86ish]);
        assert_eq!(pristine.exploration, armed.exploration);
        assert_ne!(pristine.code, armed.code);
        assert_ne!(pristine.outcomes, armed.outcomes);
    }
}
