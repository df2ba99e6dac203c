//! Family-shared exploration: replaying a representative's negation
//! walk for another member of the same instruction family.
//!
//! The catalog's jump and push-constant groups differ only in an
//! immediate operand (a displacement, a pushed constant) that never
//! enters a path condition — their negation trees are isomorphic. So
//! instead of re-solving the whole tree per member (§2.3's dominant
//! cost), the exploration cache solves it **once** for the family's
//! representative ([`igjit_bytecode::Instruction::family_rep`]) with
//! [`crate::Explorer::record_replay`] on, and every other member
//! *replays* that walk: it re-executes its own instruction against the
//! representative's recorded solver models, in walk order, and keeps
//! its own outcome payloads and oracle outputs.
//!
//! The replay is **verified**, never trusted: each step checks that
//! the member's variable registry, recorded path condition, outcome
//! discriminant and unsupported-reason match the representative's
//! record, and the final abstract state must be identical. Any
//! mismatch makes [`replay`] return `None` and the caller falls back
//! to a full exploration — so a too-eager family grouping can only
//! cost time, not correctness.

use std::time::Duration;

use igjit_bytecode::Instruction;
use igjit_heap::ObjectMemory;
use igjit_interp::step;

use crate::explore::{
    convert_step, discriminant_of, snapshot_outputs, ExplorationResult, ExploredPath,
    Explorer, InstrUnderTest, PathOutcome,
};
use crate::materialize::materialize_frame;
use crate::state::AbstractState;
use igjit_solver::Constraint;

/// Replays `rep`'s recorded walk with `member`'s instruction.
/// Returns `None` (caller must explore from scratch) unless every
/// verification passes.
pub(crate) fn replay(
    explorer: &Explorer,
    rep: &ExplorationResult,
    member: Instruction,
) -> Option<ExplorationResult> {
    let log = rep.replay_log.as_ref()?;
    let replay_t = std::time::Instant::now();
    let mut state = AbstractState::new();
    let mut paths = Vec::new();
    for record in log {
        // The member must present exactly the variable registry the
        // representative had when this node's model was solved — the
        // model assigns one value per variable.
        if state.var_count() != record.model.len()
            || state.specs() != &rep.state.specs()[..state.var_count()]
        {
            return None;
        }
        let mut mem = ObjectMemory::new();
        let mat = materialize_frame(&mut state, &record.model, &mut mem);
        let mut frame = mat.frame.clone();
        let (outcome, path) = {
            let mut ctx = crate::trace::ConcolicContext::new(&mut mem, &mut state, frame.depth());
            let outcome = convert_step(step(&mut ctx, &mut frame, member));
            (outcome, ctx.take_path())
        };
        let path: Vec<Constraint> = path.into_iter().take(explorer.max_path_len).collect();
        // The member's recorded path condition and exit class must be
        // the representative's — that is what makes the rest of the
        // walk (negation order, dedup, budget) transfer verbatim.
        if path != record.constraints || discriminant_of(&outcome) != record.disc {
            return None;
        }
        if let PathOutcome::Unsupported { reason } = outcome {
            if record.unsupported != Some(reason) {
                return None;
            }
        }
        if record.stored {
            let (output_stack, output_temps, object_dumps) =
                snapshot_outputs(&frame, &mem, &mat.var_oops);
            paths.push(ExploredPath {
                instruction: InstrUnderTest::Bytecode(member),
                constraints: path,
                model: record.model.clone(),
                outcome,
                output_stack,
                output_temps,
                object_dumps,
            });
        }
    }
    if state != rep.state || paths.len() != rep.paths.len() {
        return None;
    }
    // Curation, iteration and solver counters are walk properties,
    // pinned by the verified per-step identities; probe models are a
    // pure function of (state, constraints, model), all verified
    // equal, so the representative's pass transfers as-is.
    Some(ExplorationResult {
        paths,
        curated_out: rep.curated_out.clone(),
        state,
        iterations: rep.iterations,
        solver: rep.solver,
        trail: rep.trail,
        probe_models: rep.probe_models.clone(),
        replay_log: None,
        // A replay's concrete work is the verified re-execution above;
        // its probing transfers from the representative without any
        // new solves, so the member charges no probe time of its own.
        walk_run: replay_t.elapsed(),
        probe_solve: Duration::ZERO,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probes::DEFAULT_MAX_PROBES;
    use igjit_bytecode::instruction_catalog;

    /// Everything a walk hands the campaign, in comparable form.
    fn digest(r: &ExplorationResult) -> String {
        format!(
            "{:?}|{:?}|{:?}|{}|{:?}|{:?}",
            r.paths, r.curated_out, r.state, r.iterations, r.solver, r.probe_models
        )
    }

    /// The cache serves every non-representative family member by
    /// replay, so each replay must be exactly what exploring the member
    /// from scratch produces: paths with their models and oracle
    /// outputs, curation, final state, iteration and solver counts, and
    /// probe models.
    #[test]
    fn every_family_replay_equals_a_scratch_exploration() {
        let mut recording = Explorer::new();
        recording.record_replay = true;
        let mut reps = std::collections::HashMap::new();
        let mut replayed = 0;
        for spec in instruction_catalog() {
            let member = spec.instruction;
            let rep = member.family_rep();
            if rep == member {
                continue;
            }
            let rep_result = reps.entry(rep).or_insert_with(|| {
                let mut r = recording.explore(InstrUnderTest::Bytecode(rep));
                r.attach_probe_models(DEFAULT_MAX_PROBES);
                r
            });
            let got = replay(&recording, rep_result, member)
                .unwrap_or_else(|| panic!("{member:?} failed to replay {rep:?}"));
            let mut fresh = Explorer::new().explore(InstrUnderTest::Bytecode(member));
            fresh.attach_probe_models(DEFAULT_MAX_PROBES);
            assert_eq!(digest(&got), digest(&fresh), "{member:?} replaying {rep:?}");
            replayed += 1;
        }
        assert!(replayed >= 25, "only {replayed} family members in the catalog");
    }
}
