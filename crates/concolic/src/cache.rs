//! Sharing one concolic exploration across compiler targets.
//!
//! The campaign tests every instruction against four compilers on two
//! ISAs, but the exploration (solver loop + interpreter tracing) only
//! depends on the instruction itself — re-exploring per target is the
//! dominant redundant cost in the Figure 6 timings. The cache memoizes
//! [`ExplorationResult`]s behind an `Arc` so concurrent campaign
//! workers on any target reuse a single exploration.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::{Duration, Instant};

use crate::explore::{ExplorationResult, Explorer, InstrUnderTest};

/// Cache key: the instruction plus whether kind probing is enabled.
///
/// With probing enabled the cached entry also carries the
/// precomputed probe models (see
/// [`ExplorationResult::attach_probe_models`]), so the flag is part
/// of the entry's identity, not just a self-description.
pub type ExplorationKey = (InstrUnderTest, bool);

/// What a cache lookup produced.
pub struct CacheLookup {
    /// The (possibly shared) exploration.
    pub exploration: Arc<ExplorationResult>,
    /// Whether the exploration was served from the cache.
    pub hit: bool,
    /// Wall-clock spent exploring (zero on a hit).
    pub explore_time: Duration,
    /// Of [`CacheLookup::explore_time`], the slice spent materializing
    /// frames and concretely executing in the negation walk (zero on a
    /// hit — a shared entry's work is charged once, by the miss).
    pub walk_run: Duration,
    /// Of [`CacheLookup::explore_time`], the slice spent solving
    /// kind-probe hypotheses (zero on a hit, like `walk_run`).
    pub probe_solve: Duration,
}

/// A thread-safe memo of concolic explorations.
///
/// Lookups take a read lock; the exploration itself runs outside any
/// lock, so workers exploring *different* instructions never serialize
/// on each other. If two workers race on the same key, the first
/// insert wins and the loser's duplicate work is dropped — results are
/// deterministic either way because exploration is a pure function of
/// the key.
#[derive(Debug, Default)]
pub struct ExplorationCache {
    map: RwLock<HashMap<ExplorationKey, Arc<ExplorationResult>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    family_hits: AtomicUsize,
    family_fallbacks: AtomicUsize,
}

impl ExplorationCache {
    /// An empty cache.
    pub fn new() -> ExplorationCache {
        ExplorationCache::default()
    }

    /// Returns the cached exploration for `(instr, probes)` or runs
    /// `explorer` to produce (and remember) it.
    ///
    /// Explorations are family-shared: on a miss for a bytecode whose
    /// [`igjit_bytecode::Instruction::family_rep`] differs from
    /// itself, the representative's exploration (cached with a replay
    /// log) is *replayed* for this member — verified step by step,
    /// with a fall back to a full exploration on any mismatch — so a
    /// whole immediate-parameterized family costs one negation-tree
    /// solve instead of one per opcode.
    pub fn get_or_explore(
        &self,
        explorer: &Explorer,
        instr: InstrUnderTest,
        probes: bool,
    ) -> CacheLookup {
        let key = (instr, probes);
        if let Some(found) = self.read_map().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return CacheLookup {
                exploration: Arc::clone(found),
                hit: true,
                explore_time: Duration::ZERO,
                walk_run: Duration::ZERO,
                probe_solve: Duration::ZERO,
            };
        }
        let t0 = Instant::now();
        if let InstrUnderTest::Bytecode(member) = instr {
            let rep = member.family_rep();
            if rep != member {
                // A non-representative member: fetch (or build) the
                // family's shared exploration, then replay it for this
                // opcode. The recursion holds no locks.
                let rep_lookup =
                    self.get_or_explore(explorer, InstrUnderTest::Bytecode(rep), probes);
                match crate::family::replay(explorer, &rep_lookup.exploration, member) {
                    Some(replayed) => {
                        self.family_hits.fetch_add(1, Ordering::Relaxed);
                        return self.insert(key, replayed, t0);
                    }
                    None => {
                        self.family_fallbacks.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        // A native, a family representative, or a member whose replay
        // failed verification: explore in full. Representatives record
        // the replay log members will need (one model clone per node).
        let record = matches!(instr, InstrUnderTest::Bytecode(b) if b.family_rep() == b);
        let explored = self.explore_full(explorer, instr, probes, record);
        self.insert(key, explored, t0)
    }

    /// Runs a full exploration (the miss path), attaching probe
    /// models when probing is part of the key.
    fn explore_full(
        &self,
        explorer: &Explorer,
        instr: InstrUnderTest,
        probes: bool,
        record_replay: bool,
    ) -> ExplorationResult {
        let mut explorer = explorer.clone();
        explorer.record_replay = record_replay;
        let mut explored = explorer.explore(instr);
        if probes {
            // Probing depends only on the exploration, never on the
            // compiler target, so precompute it here: every target
            // (and every worker) sharing this entry reuses one probe
            // pass instead of re-solving the hypotheses per tier.
            explored.attach_probe_models(crate::probes::DEFAULT_MAX_PROBES);
        }
        explored
    }

    /// Publishes a freshly-computed entry (first insert wins) and
    /// accounts the miss.
    fn insert(
        &self,
        key: ExplorationKey,
        explored: ExplorationResult,
        t0: Instant,
    ) -> CacheLookup {
        let walk_run = explored.walk_run;
        let probe_solve = explored.probe_solve;
        let explored = Arc::new(explored);
        let explore_time = t0.elapsed();
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut map = self.write_map();
        let entry = map.entry(key).or_insert_with(|| Arc::clone(&explored));
        CacheLookup { exploration: Arc::clone(entry), hit: false, explore_time, walk_run, probe_solve }
    }

    /// The map behind its read lock. A poisoned lock only means some
    /// other worker panicked *outside* a write (reads never leave the
    /// map half-updated, and the single write is an `entry` insert
    /// that cannot panic halfway), so the map is still coherent —
    /// recover it instead of cascading the panic across every
    /// campaign worker.
    fn read_map(
        &self,
    ) -> std::sync::RwLockReadGuard<'_, HashMap<ExplorationKey, Arc<ExplorationResult>>> {
        self.map.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The map behind its write lock; see
    /// [`ExplorationCache::read_map`] on poison recovery.
    fn write_map(
        &self,
    ) -> std::sync::RwLockWriteGuard<'_, HashMap<ExplorationKey, Arc<ExplorationResult>>> {
        self.map.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Explorations served from the cache.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Explorations that had to run.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Misses served by verified family replay instead of a full
    /// exploration.
    pub fn family_hits(&self) -> usize {
        self.family_hits.load(Ordering::Relaxed)
    }

    /// Family replays that failed verification and fell back to a
    /// full exploration.
    pub fn family_fallbacks(&self) -> usize {
        self.family_fallbacks.load(Ordering::Relaxed)
    }

    /// Fraction of lookups served from the cache (0 when unused).
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits();
        let m = self.misses();
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }

    /// Seeds an entry without touching the hit/miss counters (corpus
    /// warm-start: a preloaded entry becomes an ordinary hit when the
    /// sweep first asks for it). First insert wins, like
    /// [`get_or_explore`](Self::get_or_explore)'s publish.
    pub fn preload(&self, key: ExplorationKey, exploration: Arc<ExplorationResult>) {
        self.write_map().entry(key).or_insert(exploration);
    }

    /// All entries, for corpus write-back. Order is unspecified (the
    /// corpus encoder canonicalizes by key).
    pub fn snapshot(&self) -> Vec<(ExplorationKey, Arc<ExplorationResult>)> {
        self.read_map().iter().map(|(k, v)| (*k, Arc::clone(v))).collect()
    }

    /// Number of distinct explorations held.
    pub fn len(&self) -> usize {
        self.read_map().len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all entries and resets the counters.
    pub fn clear(&self) {
        self.write_map().clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.family_hits.store(0, Ordering::Relaxed);
        self.family_fallbacks.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igjit_bytecode::Instruction;

    #[test]
    fn second_lookup_hits_and_shares() {
        let cache = ExplorationCache::new();
        let explorer = Explorer::new();
        // A family representative: its miss explores nothing else.
        let instr = InstrUnderTest::Bytecode(Instruction::PushTrue);
        let first = cache.get_or_explore(&explorer, instr, false);
        assert!(!first.hit);
        assert!(first.explore_time > Duration::ZERO);
        let second = cache.get_or_explore(&explorer, instr, false);
        assert!(second.hit);
        assert_eq!(second.explore_time, Duration::ZERO);
        assert!(Arc::ptr_eq(&first.exploration, &second.exploration));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
        assert!((cache.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn probes_flag_is_part_of_the_key() {
        let cache = ExplorationCache::new();
        let explorer = Explorer::new();
        let instr = InstrUnderTest::Bytecode(Instruction::Pop);
        assert!(!cache.get_or_explore(&explorer, instr, false).hit);
        assert!(!cache.get_or_explore(&explorer, instr, true).hit);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn family_members_replay_their_representative() {
        let cache = ExplorationCache::new();
        let explorer = Explorer::new();
        // Two members of the short-jump-true family: the first miss
        // explores the representative (plus the member itself as a
        // replay), the second only replays.
        let a = cache.get_or_explore(
            &explorer,
            InstrUnderTest::Bytecode(Instruction::ShortJumpTrue(4)),
            false,
        );
        let b = cache.get_or_explore(
            &explorer,
            InstrUnderTest::Bytecode(Instruction::ShortJumpTrue(7)),
            false,
        );
        assert_eq!(cache.family_hits(), 2);
        assert_eq!(cache.family_fallbacks(), 0);
        // Members keep their own outcome payloads.
        let displacement_of = |l: &CacheLookup| {
            l.exploration
                .paths
                .iter()
                .find_map(|p| match p.outcome {
                    crate::PathOutcome::Jump { displacement } => Some(displacement),
                    _ => None,
                })
                .expect("jump path")
        };
        assert_eq!(displacement_of(&a), 4);
        assert_eq!(displacement_of(&b), 7);
        // …and identical path structure to a from-scratch exploration.
        let fresh = explorer.explore(InstrUnderTest::Bytecode(Instruction::ShortJumpTrue(7)));
        let digest = |r: &crate::ExplorationResult| {
            r.paths
                .iter()
                .map(|p| format!("{:?}|{:?}|{:?}", p.constraints, p.outcome, p.output_stack))
                .collect::<Vec<_>>()
        };
        assert_eq!(digest(&b.exploration), digest(&fresh));
        assert_eq!(b.exploration.iterations, fresh.iterations);
    }

    #[test]
    fn family_sharing_collapses_constant_pushes() {
        let cache = ExplorationCache::new();
        let explorer = Explorer::new();
        for i in [
            Instruction::PushTrue,
            Instruction::PushFalse,
            Instruction::PushNil,
            Instruction::PushZero,
            Instruction::PushOne,
            Instruction::PushMinusOne,
            Instruction::PushTwo,
        ] {
            let l = cache.get_or_explore(&explorer, InstrUnderTest::Bytecode(i), false);
            assert_eq!(l.exploration.paths.len(), 1, "{i:?}");
            // Each member pushes *its own* constant.
            let top = l.exploration.paths[0].output_stack[0];
            let fresh = explorer.explore(InstrUnderTest::Bytecode(i));
            assert_eq!(top, fresh.paths[0].output_stack[0], "{i:?}");
        }
        assert_eq!(cache.family_hits(), 6, "one rep exploration, six replays");
        assert_eq!(cache.family_fallbacks(), 0);
    }

    #[test]
    fn concurrent_lookups_converge_on_one_entry() {
        let cache = ExplorationCache::new();
        let instr = InstrUnderTest::Bytecode(Instruction::Add);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let explorer = Explorer::new();
                    cache.get_or_explore(&explorer, instr, false)
                });
            }
        });
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.hits() + cache.misses(), 4);
    }
}
