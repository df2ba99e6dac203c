//! Re-armed seal levels: a memory whose inner seal re-arms the level
//! the previous restore-to-outer retired behaves exactly like one that
//! seals a fresh clone every time — the same images, the same dirty
//! counts, the same tokens — however far the frontier moves between
//! two uses of the level.

use igjit_heap::{ObjectMemory, Oop, Snapshot, HEADER_WORDS};
use proptest::prelude::*;

/// One step of the replay heap while it holds a model: a raw write
/// below its frontier, an allocation, an external write, a restore of
/// the inner seal or a second push (which folds the inner level into
/// the outer one).
#[derive(Clone, Copy, Debug)]
enum Step {
    Write(u16, u32),
    Alloc(u16),
    External(u16, u32),
    RestoreInner,
    PushSeal,
}

fn step() -> impl Strategy<Value = Step> {
    (0u8..8, any::<u16>(), any::<u32>()).prop_map(|(pick, x, y)| match pick {
        0..=2 => Step::Write(x, y),
        3 => Step::Alloc(x),
        4 => Step::External(x, y),
        5 | 6 => Step::RestoreInner,
        _ => Step::PushSeal,
    })
}

/// One model's worth of work: what materialization does to the source
/// heap, whether the replay heap mirrors it, what the replay heap does
/// after its inner seal, and whether both heaps rewind to blank after.
#[derive(Clone, Debug)]
struct Round {
    source: Vec<Step>,
    mirror: bool,
    replay: Vec<Step>,
    rewind: bool,
}

fn round() -> impl Strategy<Value = Round> {
    (
        proptest::collection::vec(step(), 0..12),
        0u8..8,
        proptest::collection::vec(step(), 0..24),
        0u8..8,
    )
        .prop_map(|(source, mirror, replay, rewind)| Round {
            source,
            mirror: mirror != 0,
            replay,
            rewind: rewind != 0,
        })
}

/// Applies a write, allocation or external write to `mem`, whose
/// allocations end at `top` (one past the last allocated word, which
/// the test tracks from the objects it allocates). Large allocations
/// move the frontier by up to 300 words at a time, past what a level's
/// bitmap covered when it was first armed.
fn apply(mem: &mut ObjectMemory, top: &mut u32, step: Step) {
    match step {
        Step::Write(x, y) => {
            let words = (*top - mem.heap_base()) / 4;
            let addr = mem.heap_base() + 4 * (u32::from(x) % words);
            mem.write_word_raw(addr, y).unwrap();
        }
        Step::Alloc(x) => {
            let slots = u32::from(x % 300);
            let small = Oop::from_small_int(i64::from(x));
            let obj = mem.instantiate_array(&vec![small; slots as usize]).unwrap();
            *top = obj.address() + 4 * (HEADER_WORDS + slots);
        }
        Step::External(x, y) => mem.external_mut().write_uint(u32::from(x % 4092), 4, y).unwrap(),
        Step::RestoreInner | Step::PushSeal => unreachable!("seal steps are not mutations"),
    }
}

/// Pushes an inner seal on both memories — `fresh` on a clone of
/// itself — and returns the (equal) token.
fn push(reused: &mut ObjectMemory, fresh: &mut ObjectMemory) -> Snapshot {
    *fresh = fresh.clone();
    let token = reused.push_seal().unwrap();
    assert_eq!(token, fresh.push_seal().unwrap());
    token
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The replay loop over a shared source: `reused` pushes its inner
    /// seal on the level it retired last time; `fresh` replaces itself
    /// by a clone (which starts without a retired level) before every
    /// push. After every step both agree on the image, the dirty count
    /// and every restore's result and token, and a rewind brings both
    /// back to the blank image.
    #[test]
    fn a_reused_level_matches_a_freshly_sealed_clone(
        rounds in proptest::collection::vec(round(), 1..12),
    ) {
        let mut base = ObjectMemory::new();
        let blank_top = base.true_object().address() + 4 * HEADER_WORDS;
        let blank_image = base.clone();
        let blank = base.seal();
        let mut source = base.clone();
        let mut reused = base.clone();
        let mut fresh = base.clone();
        // Frontiers: the source's, the replay heaps', and the replay
        // heaps' at their current inner seal.
        let (mut source_top, mut replay_top) = (blank_top, blank_top);
        let mut inner_top;
        let mut inner = None;
        for round in &rounds {
            for &step in &round.source {
                if let Step::Write(..) | Step::Alloc(_) | Step::External(..) = step {
                    apply(&mut source, &mut source_top, step);
                }
            }
            if round.mirror {
                let got = reused.mirror_from(&source);
                prop_assert_eq!(&got, &fresh.mirror_from(&source));
                if got.is_ok() {
                    prop_assert_eq!(&reused, &source);
                    replay_top = source_top;
                }
            }
            inner = Some(push(&mut reused, &mut fresh));
            inner_top = replay_top;
            for &step in &round.replay {
                match step {
                    Step::RestoreInner => {
                        let token = inner.expect("pushed above");
                        let dirty = reused.restore(&token).unwrap();
                        prop_assert_eq!(dirty, fresh.restore(&token).unwrap());
                        replay_top = inner_top;
                    }
                    Step::PushSeal => {
                        inner = Some(push(&mut reused, &mut fresh));
                        inner_top = replay_top;
                    }
                    step => {
                        let mut fresh_top = replay_top;
                        apply(&mut reused, &mut replay_top, step);
                        apply(&mut fresh, &mut fresh_top, step);
                    }
                }
                prop_assert_eq!(&reused, &fresh);
                prop_assert_eq!(reused.dirty_len(), fresh.dirty_len());
            }
            if round.rewind {
                let dirty = reused.restore(&blank).unwrap();
                prop_assert_eq!(dirty, fresh.restore(&blank).unwrap());
                source.restore(&blank).unwrap();
                prop_assert_eq!(&reused, &blank_image);
                prop_assert_eq!(&fresh, &blank_image);
                prop_assert_eq!(&source, &blank_image);
                (source_top, replay_top) = (blank_top, blank_top);
            }
        }
        // A rewind retires the inner level: its token is stale on both.
        let token = inner.expect("every round pushes");
        reused.restore(&blank).unwrap();
        fresh.restore(&blank).unwrap();
        prop_assert_eq!(reused.restore(&token), fresh.restore(&token));
        prop_assert!(reused.restore(&token).is_err());
    }
}
