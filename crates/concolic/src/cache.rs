//! Sharing one concolic exploration across compiler targets.
//!
//! The campaign tests every instruction against four compilers on two
//! ISAs, but the exploration (solver loop + interpreter tracing) only
//! depends on the instruction itself — re-exploring per target is the
//! dominant redundant cost in the Figure 6 timings. The cache memoizes
//! [`ExplorationResult`]s behind an `Arc` so concurrent campaign
//! workers on any target reuse a single exploration.
//!
//! It is the only place an exploration comes from: every instruction
//! is explored in full by [`Explorer::explore`] and, when the key asks
//! for probing, probed once by
//! [`ExplorationResult::attach_probe_models`] (§5.4: explore once,
//! reuse the result).

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
}

impl ExplorationCache {
    /// An empty cache.
    pub fn new() -> ExplorationCache {
        ExplorationCache::default()
    }

    /// Returns the cached exploration for `(instr, probes)` or
    /// explores `instr` with a default [`Explorer`] to produce (and
    /// remember) it.
    pub fn get_or_explore(&self, instr: InstrUnderTest, probes: bool) -> CacheLookup {
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
        let mut explored = Explorer::new().explore(instr);
        if probes {
            // Probing depends only on the exploration, never on the
            // compiler target, so precompute it here: every target
            // (and every worker) sharing this entry reuses one probe
            // pass instead of re-solving the hypotheses per tier.
            explored.attach_probe_models(crate::probes::DEFAULT_MAX_PROBES);
        }
        self.insert(key, explored, t0)
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use igjit_bytecode::Instruction;

    #[test]
    fn second_lookup_hits_and_shares() {
        let cache = ExplorationCache::new();
        let instr = InstrUnderTest::Bytecode(Instruction::PushTrue);
        let first = cache.get_or_explore(instr, false);
        assert!(!first.hit);
        assert!(first.explore_time > Duration::ZERO);
        let second = cache.get_or_explore(instr, false);
        assert!(second.hit);
        assert_eq!(second.explore_time, Duration::ZERO);
        assert!(Arc::ptr_eq(&first.exploration, &second.exploration));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn probes_flag_is_part_of_the_key() {
        let cache = ExplorationCache::new();
        let instr = InstrUnderTest::Bytecode(Instruction::Pop);
        assert!(!cache.get_or_explore(instr, false).hit);
        assert!(!cache.get_or_explore(instr, true).hit);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn concurrent_lookups_converge_on_one_entry() {
        let cache = ExplorationCache::new();
        let instr = InstrUnderTest::Bytecode(Instruction::Add);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| cache.get_or_explore(instr, false));
            }
        });
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.hits() + cache.misses(), 4);
    }
}
