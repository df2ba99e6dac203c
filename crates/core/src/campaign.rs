//! The full evaluation campaign (§5 of the paper) — engine v3.
//!
//! The driver feeds every instruction of the VM through the
//! explore → materialize → compile → simulate → compare pipeline and
//! aggregates the Table 2 rows. Version 2 of the engine added the
//! lock-free parallel sweep, the shared exploration cache and the
//! per-stage observability layer. Version 3 makes the two hot paths
//! sublinear in campaign size:
//!
//! - **Incremental exploration solving.** The concolic explorer and
//!   the kind-probing pass drive an [`igjit_solver::Session`] with
//!   push/pop scopes, so each negated-branch solve reuses the shared
//!   prefix's propagation state instead of re-solving it from scratch.
//!   The session's work counters surface here as [`Metrics::solver`].
//! - **A compiled-code cache.** Compiled test methods are a pure
//!   function of `(front-end, ISA, instructions, embedded frame
//!   values, special oops)`; an [`igjit_jit::CodeCache`] shared across
//!   models, probes, paths and workers collapses the campaign's
//!   compile invocations onto one per distinct key.
//! - **Skew-free parallel stage accounting.** Each result is tagged
//!   with the worker that produced it; [`Metrics`] reports both the
//!   CPU-side per-stage sum and the per-stage maximum over workers
//!   (the critical path the wall clock actually waits on).

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use igjit_bytecode::{instruction_catalog, Instruction};
use igjit_concolic::{ExplorationCache, InstrUnderTest};
use igjit_corpus::{encode_section, Image, OutcomeKey, Section};
use igjit_difftest::{
    test_instruction_with, CampaignRow, DefectCategory, InstructionOutcome, SnapshotStats,
    StageTimes, Target,
};
use igjit_interp::{native_catalog, NativeMethodId};
use igjit_jit::{CodeCache, CompilerKind};
use igjit_machine::Isa;
use igjit_solver::{SessionStats, TrailStats};

/// Campaign knobs.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// ISAs each test case runs on (the paper uses x86 + ARM32).
    pub isas: Vec<Isa>,
    /// Whether kind probing is enabled (needed to surface the
    /// `primitiveAsFloat` interpreter defect).
    pub probes: bool,
    /// Worker threads for the per-instruction loop (1 = sequential).
    /// Instructions are independent, so the campaign parallelizes
    /// embarrassingly; per-instruction timings stay meaningful because
    /// each instruction is processed on one worker. Defaults to the
    /// machine's available parallelism.
    pub threads: usize,
    /// Persistent corpus file. When set, the campaign
    /// verifies the file's sections against this build + configuration
    /// before running, answers warm instructions from its outcomes
    /// without re-running the pipeline, decodes its exploration and
    /// compiled-code entries only when the first instruction must run,
    /// and [`Campaign::save_corpus`] writes new entries back atomically.
    /// Any mismatch, truncation or version skew degrades to a cold
    /// run — never an error, never a row change.
    pub corpus: Option<PathBuf>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            isas: vec![Isa::X86ish, Isa::Arm32ish],
            probes: true,
            threads: default_threads(),
            corpus: None,
        }
    }
}

/// The machine's available parallelism (1 when undetectable).
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Progress of a running campaign batch, delivered to the callback
/// registered with [`Campaign::on_progress`] after each instruction
/// completes. Callbacks run on worker threads and must be cheap.
#[derive(Clone, Debug)]
pub struct Progress {
    /// Label of the running Table 2 row (compiler name).
    pub row: String,
    /// Instructions finished so far in this row.
    pub completed: usize,
    /// Instructions in this row.
    pub total: usize,
    /// Label of the instruction that just finished.
    pub current: String,
}

type ProgressCallback = Arc<dyn Fn(&Progress) + Send + Sync>;

/// Aggregated observability data for one campaign batch (or, via
/// [`Metrics::merge`], a whole campaign).
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// Worker threads the batch ran on.
    pub threads: usize,
    /// Instructions processed.
    pub instructions: usize,
    /// Summed per-stage wall-clock across all instructions (CPU-side
    /// cost; exceeds `wall_clock` when threads > 1). Its
    /// [`StageTimes::clock`] counts the differential checks, the
    /// sampled ones whose splits set the stage shares, and the stage
    /// clock's reads; the JSON emits them as `stage_clock`.
    pub stages: StageTimes,
    /// Per-stage maximum over the workers' self-time sums — the
    /// critical path the batch wall clock actually waits on. Equal to
    /// `stages` when the batch ran sequentially; under merge, maxima
    /// of back-to-back batches add.
    pub stages_max: StageTimes,
    /// Exploration-cache hits.
    pub cache_hits: usize,
    /// Exploration-cache misses (explorations actually run).
    pub cache_misses: usize,
    /// Always zero: every exploration-cache miss explores in full.
    /// Kept so readers of the work counters (the benchmark's
    /// `concolic.family_hits`) keep their field.
    pub family_hits: usize,
    /// Compiled-code-cache hits (lookups answered without compiling).
    pub compile_hits: usize,
    /// Compiled-code-cache misses (compiler invocations actually run).
    pub compile_misses: usize,
    /// Instructions answered from the warm corpus overlay without
    /// running the pipeline at all (zero when no corpus is attached).
    pub corpus_hits: usize,
    /// Instructions that ran the full pipeline while a corpus was
    /// attached (their outcomes are recorded for the next save; zero
    /// when no corpus is attached).
    pub corpus_misses: usize,
    /// Incremental-solver work counters summed over exploration (cache
    /// misses only — cached explorations did no solver work) and kind
    /// probing.
    pub solver: SessionStats,
    /// Undo-trail solver counters, summed the same way: scope marks
    /// taken and the narrowings they unwound.
    pub trail: TrailStats,
    /// Models whose materialization hit an unrealizable witness and
    /// were reported as test errors instead of compared.
    pub witness_errors: usize,
    /// Models whose oracle run panicked (crashing interpreter paths,
    /// surfaced as test errors instead of silently skipped models).
    pub oracle_panics: usize,
    /// Seal/restore accounting of the copy-on-write heap replay.
    pub snapshot: SnapshotStats,
    /// End-to-end wall-clock of the batch.
    pub wall_clock: Duration,
}

impl Metrics {
    /// Fraction of exploration lookups served from the cache.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Fraction of compile lookups served from the code cache.
    pub fn compile_hit_rate(&self) -> f64 {
        let total = self.compile_hits + self.compile_misses;
        if total == 0 {
            0.0
        } else {
            self.compile_hits as f64 / total as f64
        }
    }

    /// Folds another batch's metrics into this one. Wall-clocks add
    /// (batches run back to back, so their per-stage maxima add too);
    /// thread counts keep the maximum.
    pub fn merge(&mut self, other: &Metrics) {
        self.threads = self.threads.max(other.threads);
        self.instructions += other.instructions;
        self.stages.merge(&other.stages);
        self.stages_max.merge(&other.stages_max);
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.compile_hits += other.compile_hits;
        self.compile_misses += other.compile_misses;
        self.corpus_hits += other.corpus_hits;
        self.corpus_misses += other.corpus_misses;
        self.solver.merge(&other.solver);
        self.trail.merge(&other.trail);
        self.witness_errors += other.witness_errors;
        self.oracle_panics += other.oracle_panics;
        self.snapshot.merge(&other.snapshot);
        self.wall_clock += other.wall_clock;
    }

    /// Renders the metrics as a self-contained JSON object.
    pub fn to_json(&self) -> String {
        let ms = |d: Duration| d.as_secs_f64() * 1000.0;
        // `walk_run`/`probe_solve` are sub-slices of `explore` (engine
        // v8): they re-attribute time already counted there, so `total`
        // deliberately excludes them.
        let stages = |s: &StageTimes| {
            format!(
                concat!(
                    "{{\"explore\":{:.3},\"materialize\":{:.3},",
                    "\"compile\":{:.3},\"meta_compile\":{:.3},",
                    "\"simulate\":{:.3},\"compare\":{:.3},",
                    "\"setup\":{:.3},\"decode\":{:.3},\"hash\":{:.3},",
                    "\"report\":{:.3},\"progress\":{:.3},\"other\":{:.3},",
                    "\"walk_run\":{:.3},\"probe_solve\":{:.3},",
                    "\"total\":{:.3}}}"
                ),
                ms(s.explore),
                ms(s.materialize),
                ms(s.compile),
                ms(s.meta_compile),
                ms(s.simulate),
                ms(s.compare),
                ms(s.setup),
                ms(s.decode),
                ms(s.hash),
                ms(s.report),
                ms(s.progress),
                ms(s.other),
                ms(s.walk_run),
                ms(s.probe_solve),
                ms(s.total()),
            )
        };
        let hist = self
            .snapshot
            .dirty_hist
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(",");
        format!(
            concat!(
                "{{\"threads\":{},\"instructions\":{},\"wall_clock_ms\":{:.3},",
                "\"witness_errors\":{},\"oracle_panics\":{},",
                "\"cache\":{{\"hits\":{},\"misses\":{},\"hit_rate\":{:.4}}},",
                "\"compile_cache\":{{\"hits\":{},\"misses\":{},\"hit_rate\":{:.4}}},",
                "\"corpus\":{{\"hits\":{},\"misses\":{}}},",
                "\"solver\":{{\"solves\":{},\"sat\":{},\"unsat\":{},\"nodes_visited\":{},",
                "\"propagation_reuse\":{},\"rebuilds\":{},",
                "\"pushes\":{},\"max_depth\":{}}},",
                "\"trail\":{{\"marks\":{},\"undone_ops\":{}}},",
                "\"snapshot\":{{\"seals\":{},\"restores\":{},\"dirty_words\":{},",
                "\"dirty_hist\":[{}]}},",
                "\"stage_clock\":{{\"checks\":{},\"sampled_checks\":{},\"clock_reads\":{}}},",
                "\"stages_ms\":{},\"stages_max_ms\":{}}}"
            ),
            self.threads,
            self.instructions,
            ms(self.wall_clock),
            self.witness_errors,
            self.oracle_panics,
            self.cache_hits,
            self.cache_misses,
            self.cache_hit_rate(),
            self.compile_hits,
            self.compile_misses,
            self.compile_hit_rate(),
            self.corpus_hits,
            self.corpus_misses,
            self.solver.solves,
            self.solver.sat,
            self.solver.unsat,
            self.solver.nodes_visited,
            self.solver.propagation_reuse,
            self.solver.rebuilds,
            self.solver.pushes,
            self.solver.max_depth,
            self.trail.trail_marks,
            self.trail.undone_ops,
            self.snapshot.seals,
            self.snapshot.restores,
            self.snapshot.dirty_words,
            hist,
            self.stages.clock.checks,
            self.stages.clock.sampled_checks,
            self.stages.clock.clock_reads,
            stages(&self.stages),
            stages(&self.stages_max),
        )
    }
}

/// The campaign driver: explores, compiles, runs and compares every
/// instruction of the VM against a chosen compiler.
#[derive(Default)]
pub struct Campaign {
    config: CampaignConfig,
    cache: Arc<ExplorationCache>,
    code_cache: Arc<CodeCache>,
    on_progress: Option<ProgressCallback>,
    corpus: Option<Arc<CorpusState>>,
}

/// A corpus file bound to a campaign: what loading found, the
/// sections still waiting to be decoded, and the warm overlay
/// `run_one` consults before running the pipeline.
struct CorpusState {
    path: PathBuf,
    fps: igjit_corpus::Fingerprints,
    stats: igjit_corpus::LoadStats,
    /// The image as loaded. Its exploration and code sections reach
    /// the caches once, on the first pipeline miss or at a save that
    /// re-encodes them — a fully warm sweep never decodes them.
    image: Image,
    /// Set by that one-time preload: per cache section, whether it
    /// decoded and every entry landed in the cache as a new key.
    preloaded: OnceLock<[bool; 2]>,
    /// Outcomes from the corpus file; immutable after construction, so
    /// workers read it lock-free. The only outcomes a lookup sees.
    loaded: HashMap<OutcomeKey, InstructionOutcome>,
    /// Outcomes produced by this campaign's pipeline runs: written
    /// during a sweep, read only by a save.
    recorded: Mutex<HashMap<OutcomeKey, InstructionOutcome>>,
}

impl CorpusState {
    fn recorded(&self) -> std::sync::MutexGuard<'_, HashMap<OutcomeKey, InstructionOutcome>> {
        self.recorded.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lookup(&self, target: Target, instr: InstrUnderTest) -> Option<InstructionOutcome> {
        self.loaded.get(&(target, instr)).cloned()
    }

    fn record(&self, target: Target, instr: InstrUnderTest, outcome: InstructionOutcome) {
        self.recorded().insert((target, instr), outcome);
    }

    /// Decodes the loaded exploration and code sections into the
    /// caches, once. A section that fails to decode warns and runs
    /// cold.
    fn preload(&self, cache: &ExplorationCache, code_cache: &CodeCache) {
        self.preloaded.get_or_init(|| {
            let before = [cache.len(), code_cache.len()];
            let mut decoded = [true; 2];
            match self.image.explorations() {
                Some(Ok(entries)) => {
                    for (key, exploration) in entries {
                        cache.preload(key, exploration);
                    }
                }
                Some(Err(_)) => decoded[0] = false,
                None => {}
            }
            match self.image.code() {
                Some(Ok(entries)) => {
                    for (key, artifact) in entries {
                        code_cache.preload(key, artifact);
                    }
                }
                Some(Err(_)) => decoded[1] = false,
                None => {}
            }
            let after = [cache.len(), code_cache.len()];
            [Section::Explorations, Section::Code].map(|section| {
                let i = section as usize;
                if !decoded[i] {
                    eprintln!("igjit: corpus {}: {}", self.path.display(), section.decode_warning());
                }
                decoded[i] && after[i] == before[i] + self.stats.count(section)
            })
        });
    }
}

/// Loads the configured corpus file (if any): every section is
/// verified, only the outcomes are decoded. Load problems are warnings
/// on stderr, never errors — a bad corpus is a cold run.
fn attach_corpus(config: &CampaignConfig) -> Option<Arc<CorpusState>> {
    let path = config.corpus.as_ref()?;
    let fps = igjit_corpus::fingerprints(config.probes, &config.isas);
    let (mut image, mut stats) = Image::load(path, &fps);
    let loaded = match image.outcomes() {
        Some(Ok(outcomes)) => outcomes.into_iter().collect(),
        Some(Err(_)) => {
            stats.decode_failed(Section::Outcomes);
            image.reject(Section::Outcomes);
            HashMap::new()
        }
        None => HashMap::new(),
    };
    for w in &stats.warnings {
        eprintln!("igjit: corpus {}: {}", path.display(), w);
    }
    Some(Arc::new(CorpusState {
        path: path.clone(),
        fps,
        stats,
        image,
        preloaded: OnceLock::new(),
        loaded,
        recorded: Mutex::new(HashMap::new()),
    }))
}

impl std::fmt::Debug for Campaign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Campaign")
            .field("config", &self.config)
            .field("cache_entries", &self.cache.len())
            .field("code_cache_entries", &self.code_cache.len())
            .field("on_progress", &self.on_progress.is_some())
            .finish()
    }
}

/// Per-instruction timing sample (feeds Figures 6 and 7).
#[derive(Clone, Debug)]
pub struct TimingSample {
    /// Instruction label.
    pub label: String,
    /// Whether this is a native method (vs a bytecode).
    pub is_native: bool,
    /// Time spent in concolic exploration + differential runs.
    pub elapsed: Duration,
    /// Paths explored.
    pub paths: usize,
    /// Per-stage breakdown of `elapsed`.
    pub stages: StageTimes,
    /// Whether the exploration came from the shared cache.
    pub cache_hit: bool,
    /// Whether the outcome came from the warm corpus overlay (`None`
    /// when no corpus is attached).
    pub corpus_hit: Option<bool>,
}

/// Aggregate result of one campaign run (one Table 2 row plus the
/// per-instruction details).
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// The Table 2 row.
    pub row: CampaignRow,
    /// Per-instruction outcomes.
    pub outcomes: Vec<InstructionOutcome>,
    /// Per-instruction wall-clock samples.
    pub timings: Vec<TimingSample>,
    /// Observability data for the batch that produced this row.
    pub metrics: Metrics,
}

impl CampaignReport {
    /// Distinct defect causes across all outcomes.
    pub fn causes(&self) -> Vec<igjit_difftest::CauseKey> {
        let mut keys: Vec<_> = self.outcomes.iter().flat_map(|o| o.causes()).collect();
        keys.sort();
        keys.dedup();
        keys
    }

    /// Cause counts per defect family (one Table 3 contribution).
    pub fn causes_by_category(&self) -> Vec<(DefectCategory, usize)> {
        DefectCategory::ALL
            .iter()
            .map(|&cat| {
                (cat, self.causes().iter().filter(|c| c.category == cat).count())
            })
            .collect()
    }
}

/// One unit of campaign work: a labelled instruction × target pair.
type WorkItem = (String, bool, InstrUnderTest, Target);

impl Campaign {
    /// A campaign with the paper's configuration (both ISAs, probing
    /// on).
    pub fn new(config: CampaignConfig) -> Campaign {
        Campaign::with_exploration_cache(config, Arc::new(ExplorationCache::new()))
    }

    /// A campaign that shares an existing exploration cache instead of
    /// creating its own.
    ///
    /// The mutation campaign uses this to amortize exploration across
    /// mutants: fault injection perturbs only the JIT side of the
    /// pipeline, so the interpreter-derived exploration results stay
    /// valid for every mutant and the cache can be carried over. The
    /// compiled-code cache is still fresh per campaign — compiled
    /// artifacts, the meta tier's included, *do* depend on the armed
    /// mutant.
    ///
    /// A configured corpus file's explorations reach a shared cache as
    /// they reach an owned one: on the first pipeline miss, or at
    /// [`Campaign::save_corpus`], which then writes the union of the
    /// file's entries and the cache's.
    pub fn with_exploration_cache(
        config: CampaignConfig,
        cache: Arc<ExplorationCache>,
    ) -> Campaign {
        let code_cache = Arc::new(CodeCache::new());
        let corpus = attach_corpus(&config);
        Campaign { config, cache, code_cache, on_progress: None, corpus }
    }

    /// A fast configuration for doctests and examples: one ISA, no
    /// probing, sequential.
    pub fn quick() -> Campaign {
        Campaign::new(CampaignConfig {
            isas: vec![Isa::X86ish],
            probes: false,
            threads: 1,
            ..CampaignConfig::default()
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// The exploration cache shared by every run of this campaign.
    pub fn cache(&self) -> &ExplorationCache {
        &self.cache
    }

    /// An owning handle on the exploration cache, for carrying it into
    /// another campaign via [`Campaign::with_exploration_cache`].
    pub fn exploration_cache_arc(&self) -> Arc<ExplorationCache> {
        Arc::clone(&self.cache)
    }

    /// The compiled-code cache shared by every run of this campaign.
    pub fn code_cache(&self) -> &CodeCache {
        &self.code_cache
    }

    /// Load statistics of the configured corpus file, when one is
    /// attached.
    pub fn corpus_load_stats(&self) -> Option<&igjit_corpus::LoadStats> {
        self.corpus.as_ref().map(|state| &state.stats)
    }

    /// Writes the caches and recorded outcomes back to the configured
    /// corpus file: atomically (temp file + rename), and not at all
    /// when the file already holds these bytes. `None` when no corpus
    /// file is configured.
    ///
    /// A loaded section whose store still holds exactly its entries is
    /// copied from the loaded payload bytes; only the others are
    /// encoded — from the caches' shared entries and from references
    /// into the outcome maps, never from deep copies. The written
    /// bytes equal [`igjit_corpus::file::encode`] of the merged corpus
    /// either way.
    pub fn save_corpus(&self) -> Option<std::io::Result<igjit_corpus::SaveOutcome>> {
        let state = self.corpus.as_ref()?;
        let recorded = state.recorded();
        // Per section, whether the loaded payload is still the whole
        // store: a cache holds none of it yet (no preload) or exactly
        // its entries; no outcome was recorded.
        let reusable = |landed: Option<&[bool; 2]>| {
            let cache = |i: usize, len: usize| match landed {
                None => len == 0,
                Some(landed) => landed[i] && len == state.stats.count(Section::ALL[i]),
            };
            let held =
                [cache(0, self.cache.len()), cache(1, self.code_cache.len()), recorded.is_empty()];
            Section::ALL.map(|s| held[s as usize] && state.image.payload(s).is_some())
        };
        // A cache section is re-encoded from its cache, which must then
        // also hold the loaded image's entries.
        let [explorations, code, _] = reusable(state.preloaded.get());
        if !(explorations && code) {
            state.preload(&self.cache, &self.code_cache);
        }
        let [explorations, code, outcomes] = reusable(state.preloaded.get());
        if explorations && code && outcomes && state.image.is_canonical() {
            // Reassembling would reproduce the image: compare it as is.
            return Some(state.image.save(&state.path));
        }
        let fresh = [
            (!explorations)
                .then(|| encode_section(self.cache.snapshot().iter().map(|(k, e)| (k, e)))),
            (!code).then(|| encode_section(self.code_cache.snapshot().iter().map(|(k, e)| (k, e)))),
            (!outcomes).then(|| {
                let mut merged: HashMap<&OutcomeKey, &InstructionOutcome> =
                    state.loaded.iter().collect();
                merged.extend(recorded.iter());
                encode_section(merged)
            }),
        ];
        Some(state.image.rebuild(&state.fps, fresh).save(&state.path))
    }

    /// Registers a progress callback, invoked from worker threads
    /// after each instruction completes.
    pub fn on_progress(mut self, callback: impl Fn(&Progress) + Send + Sync + 'static) -> Self {
        self.on_progress = Some(Arc::new(callback));
        self
    }

    /// Differentially tests one bytecode instruction against one tier.
    pub fn test_bytecode_instruction(
        &self,
        instr: Instruction,
        kind: CompilerKind,
    ) -> InstructionOutcome {
        self.run_one(InstrUnderTest::Bytecode(instr), Target::Bytecode(kind)).1
    }

    /// Differentially tests one native method against the template
    /// compiler.
    pub fn test_native_method(&self, id: NativeMethodId) -> InstructionOutcome {
        self.run_one(InstrUnderTest::Native(id), Target::NativeMethods).1
    }

    /// Runs the whole pipeline for one instruction, reusing (and
    /// feeding) the shared exploration and code caches.
    fn run_one(&self, instr: InstrUnderTest, target: Target) -> (TimingInfo, InstructionOutcome) {
        let t0 = Instant::now();
        // Warm path: a corpus outcome replays verbatim — no explore,
        // no compile, no simulation. The lookup cost lands in `other`.
        // Meta-tier outcomes participate like any other target's: the
        // corpus outcome fingerprint mixes in the partial evaluator's
        // source hash, so a stale evaluator degrades to a cold run.
        if let Some(state) = &self.corpus {
            if let Some(outcome) = state.lookup(target, instr) {
                let elapsed = t0.elapsed();
                let stages = StageTimes { other: elapsed, ..StageTimes::default() };
                let info = TimingInfo {
                    elapsed,
                    stages,
                    solver: SessionStats::default(),
                    trail: TrailStats::default(),
                    cache_hit: false,
                    corpus_hit: Some(true),
                };
                return (info, outcome);
            }
            state.preload(&self.cache, &self.code_cache);
        }
        let lookup = self.cache.get_or_explore(instr, self.config.probes);
        let (outcome, mut stages) = test_instruction_with(
            instr,
            target,
            &self.config.isas,
            &lookup,
            &self.code_cache,
        );
        // Exploration solver work (probing included) is charged once,
        // to the run that actually explored; a cache hit did none.
        let (solver, trail) = if lookup.hit {
            (SessionStats::default(), TrailStats::default())
        } else {
            (lookup.exploration.solver, lookup.exploration.trail)
        };
        let elapsed = t0.elapsed();
        // The stages split `test_instruction_with`'s clock; what is
        // left — the exploration-cache lookup around it — lands in
        // `other`, so the per-item stage sum equals the item's wall
        // clock.
        stages.other += elapsed.saturating_sub(stages.total());
        let corpus_hit = match &self.corpus {
            Some(state) => {
                state.record(target, instr, outcome.clone());
                Some(false)
            }
            None => None,
        };
        (TimingInfo { elapsed, stages, solver, trail, cache_hit: lookup.hit, corpus_hit }, outcome)
    }

    /// Runs a batch of instructions, sequentially or on a lock-free
    /// worker pool, preserving input order in the outputs.
    ///
    /// Parallel scheme: workers claim the next item off an atomic
    /// cursor (dynamic load balancing — per-instruction cost varies by
    /// orders of magnitude) and send `(index, result)` through a
    /// channel; the scope's owner thread writes each result into its
    /// input-order slot. No mutex anywhere, and the report content is
    /// identical at any thread count because both the work (pure per
    /// item) and the assembly order (by index) are scheduling-independent.
    fn run_batch(&self, label: String, items: Vec<WorkItem>) -> CampaignReport {
        let threads = self.config.threads.clamp(1, items.len().max(1));
        let wall0 = Instant::now();
        let compile_lookups0 = (self.code_cache.hits(), self.code_cache.misses());
        let done = AtomicUsize::new(0);
        let total = items.len();
        let report_progress = |name: &str, cb: &ProgressCallback| {
            cb(&Progress {
                row: label.clone(),
                completed: done.fetch_add(1, Ordering::Relaxed) + 1,
                total,
                current: name.to_string(),
            });
        };
        let run_one = |(name, is_native, instr, target): &WorkItem|
         -> (TimingSample, InstructionOutcome, SessionStats, TrailStats) {
            let (mut info, outcome) = self.run_one(*instr, *target);
            // Progress reporting is a stderr write + flush per
            // instruction; charge it to its own stage so it can't
            // masquerade as pipeline residual. Without a reporter there
            // is nothing to time.
            if let Some(cb) = &self.on_progress {
                let t_progress = Instant::now();
                report_progress(name, cb);
                let dt = t_progress.elapsed();
                info.stages.progress += dt;
                info.elapsed += dt;
            }
            (
                TimingSample {
                    label: name.clone(),
                    is_native: *is_native,
                    elapsed: info.elapsed,
                    paths: outcome.paths_found,
                    stages: info.stages,
                    cache_hit: info.cache_hit,
                    corpus_hit: info.corpus_hit,
                },
                outcome,
                info.solver,
                info.trail,
            )
        };
        // Per-worker self-time sums: each item's stages are charged to
        // the worker that ran it, so the per-stage maximum over workers
        // is the batch's critical path (no skew from summing across
        // concurrent workers).
        let mut worker_stages = vec![StageTimes::default(); threads];
        let results: Vec<(TimingSample, InstructionOutcome, SessionStats, TrailStats)> =
            if threads <= 1 {
            items
                .iter()
                .map(|item| {
                    let r = run_one(item);
                    worker_stages[0].merge(&r.0.stages);
                    r
                })
                .collect()
        } else {
            let next = AtomicUsize::new(0);
            let mut slots: Vec<Option<(TimingSample, InstructionOutcome, SessionStats, TrailStats)>> =
                (0..items.len()).map(|_| None).collect();
            std::thread::scope(|s| {
                let (tx, rx) = mpsc::channel();
                let items = &items;
                let next = &next;
                let run_one = &run_one;
                for wid in 0..threads {
                    let tx = tx.clone();
                    s.spawn(move || loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        // A send only fails if the collector is gone,
                        // which only happens when the scope is
                        // unwinding already.
                        if tx.send((i, wid, run_one(&items[i]))).is_err() {
                            break;
                        }
                    });
                }
                drop(tx);
                for (i, wid, result) in rx {
                    worker_stages[wid].merge(&result.0.stages);
                    slots[i] = Some(result);
                }
            });
            slots.into_iter().map(|s| s.expect("every slot filled")).collect()
        };
        let mut row = CampaignRow { label, ..CampaignRow::default() };
        let mut outcomes = Vec::with_capacity(results.len());
        let mut timings = Vec::with_capacity(results.len());
        let mut metrics = Metrics { threads, instructions: results.len(), ..Metrics::default() };
        for ws in &worker_stages {
            metrics.stages_max.merge_max(ws);
        }
        for (t, o, solver, trail) in results {
            row.absorb(&o);
            metrics.stages.merge(&t.stages);
            metrics.solver.merge(&solver);
            metrics.trail.merge(&trail);
            metrics.witness_errors += o.witness_errors;
            metrics.oracle_panics += o.oracle_panics;
            metrics.snapshot.merge(&o.snapshot);
            match t.corpus_hit {
                // A warm replay never consulted the exploration cache,
                // so it is neither a cache hit nor a miss.
                Some(true) => metrics.corpus_hits += 1,
                Some(false) | None => {
                    if t.corpus_hit.is_some() {
                        metrics.corpus_misses += 1;
                    }
                    if t.cache_hit {
                        metrics.cache_hits += 1;
                    } else {
                        metrics.cache_misses += 1;
                    }
                }
            }
            timings.push(t);
            outcomes.push(o);
        }
        metrics.compile_hits = self.code_cache.hits() - compile_lookups0.0;
        metrics.compile_misses = self.code_cache.misses() - compile_lookups0.1;
        metrics.wall_clock = wall0.elapsed();
        // Batch-level driver overhead (scheduling, result collection,
        // report assembly) goes to `other` so the stage accounting sums
        // to the wall clock instead of silently dropping it. On a
        // sequential batch the CPU-side sum and the critical path are
        // the same thing; in parallel only the critical path can be
        // meaningfully squared with the wall clock.
        if threads <= 1 {
            let leftover = metrics.wall_clock.saturating_sub(metrics.stages.total());
            metrics.stages.other += leftover;
            metrics.stages_max.other += leftover;
        } else {
            let leftover = metrics.wall_clock.saturating_sub(metrics.stages_max.total());
            metrics.stages_max.other += leftover;
        }
        CampaignReport { row, outcomes, timings, metrics }
    }

    /// Runs the native-method row of Table 2: all 112 primitives.
    pub fn run_native_methods(&self) -> CampaignReport {
        let items = native_catalog()
            .into_iter()
            .map(|spec| {
                (spec.name.clone(), true, InstrUnderTest::Native(spec.id), Target::NativeMethods)
            })
            .collect();
        self.run_batch(Target::NativeMethods.label().to_string(), items)
    }

    /// Runs one bytecode-compiler row of Table 2: the whole
    /// instruction catalog against one tier.
    pub fn run_bytecodes(&self, kind: CompilerKind) -> CampaignReport {
        let items = instruction_catalog()
            .into_iter()
            .map(|spec| {
                (
                    format!("{:?}", spec.instruction),
                    false,
                    InstrUnderTest::Bytecode(spec.instruction),
                    Target::Bytecode(kind),
                )
            })
            .collect();
        self.run_batch(kind.name().to_string(), items)
    }

    /// Runs the meta-compiled row of Table 2 (tier 5, engine v9): the
    /// whole instruction catalog against the partial evaluator derived
    /// from the interpreter's step functions. Pairs the evaluator
    /// refuses trampoline through the interpreter, so the row is total;
    /// [`CampaignRow::meta_coverage`] reports the compiled fraction.
    pub fn run_meta_compiled(&self) -> CampaignReport {
        let items = instruction_catalog()
            .into_iter()
            .map(|spec| {
                (
                    format!("{:?}", spec.instruction),
                    false,
                    InstrUnderTest::Bytecode(spec.instruction),
                    Target::MetaCompiled,
                )
            })
            .collect();
        self.run_batch(Target::MetaCompiled.label().to_string(), items)
    }

    /// The full Table 2: native methods, the three bytecode tiers and
    /// the meta-compiled tier.
    ///
    /// Thanks to the shared exploration cache, each bytecode
    /// instruction is explored once for the first tier and reused by
    /// the others.
    pub fn run_all(&self) -> Vec<CampaignReport> {
        let mut reports = vec![self.run_native_methods()];
        for kind in CompilerKind::ALL {
            reports.push(self.run_bytecodes(kind));
        }
        reports.push(self.run_meta_compiled());
        reports
    }
}

/// Timing facts `run_one` hands to `run_batch`.
struct TimingInfo {
    elapsed: Duration,
    stages: StageTimes,
    solver: SessionStats,
    trail: TrailStats,
    cache_hit: bool,
    corpus_hit: Option<bool>,
}

/// Sums the per-row metrics of a full campaign run.
pub fn aggregate_metrics(reports: &[CampaignReport]) -> Metrics {
    let mut total = Metrics::default();
    for r in reports {
        total.merge(&r.metrics);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_campaign_on_one_bytecode() {
        let c = Campaign::quick();
        let o = c.test_bytecode_instruction(Instruction::LessThan, CompilerKind::StackToRegister);
        assert!(o.paths_found >= 3);
        // The float comparison fast path differs (the interpreter
        // inlines it, the compiler sends); it shows up once per
        // comparison outcome (true/false), so one or two paths.
        assert!((1..=2).contains(&o.difference_count()), "{:?}", o.verdicts);
    }

    #[test]
    fn quick_campaign_on_one_native() {
        let c = Campaign::quick();
        let o = c.test_native_method(NativeMethodId(2));
        assert!(o.curated >= 3);
        assert_eq!(o.difference_count(), 0);
    }

    #[test]
    fn report_cause_aggregation() {
        let c = Campaign::quick();
        let mut row = CampaignRow { label: "t".into(), ..Default::default() };
        let o = c.test_native_method(NativeMethodId(14));
        row.absorb(&o);
        let report = CampaignReport {
            row,
            outcomes: vec![o],
            timings: vec![],
            metrics: Metrics::default(),
        };
        let by_cat = report.causes_by_category();
        let behavioural = by_cat
            .iter()
            .find(|(c, _)| *c == DefectCategory::BehaviouralDifference)
            .unwrap();
        assert!(behavioural.1 >= 1);
    }

    #[test]
    fn repeated_tests_hit_the_exploration_cache() {
        let c = Campaign::quick();
        let _ = c.test_bytecode_instruction(Instruction::Pop, CompilerKind::StackToRegister);
        assert_eq!(c.cache().misses(), 1);
        let _ = c.test_bytecode_instruction(Instruction::Pop, CompilerKind::SimpleStackBased);
        assert_eq!(c.cache().hits(), 1, "second tier reuses the exploration");
    }

    #[test]
    fn progress_callback_sees_every_item() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let seen = Arc::new(AtomicUsize::new(0));
        let seen2 = Arc::clone(&seen);
        let c = Campaign::new(CampaignConfig {
            isas: vec![Isa::X86ish],
            probes: false,
            threads: 2,
            ..CampaignConfig::default()
        })
        .on_progress(move |p| {
            seen2.fetch_add(1, Ordering::Relaxed);
            assert!(p.completed <= p.total);
        });
        let report = c.run_native_methods();
        assert_eq!(seen.load(Ordering::Relaxed), report.row.tested_instructions);
    }

    #[test]
    fn parallel_report_is_bit_identical_to_sequential() {
        // The lock-free sweep assembles results in input order, so the
        // report must not depend on the worker count: same rows, same
        // cause sets, same outcome order at threads = 1 and 4.
        let run = |threads: usize| {
            Campaign::new(CampaignConfig {
                isas: vec![Isa::X86ish, Isa::Arm32ish],
                probes: true,
                threads,
                ..CampaignConfig::default()
            })
            .run_native_methods()
        };
        let (seq, par) = (run(1), run(4));
        assert_eq!(seq.row, par.row);
        assert_eq!(seq.causes(), par.causes());
        assert_eq!(seq.outcomes.len(), par.outcomes.len());
        for (a, b) in seq.outcomes.iter().zip(&par.outcomes) {
            assert_eq!(a.causes(), b.causes());
            assert_eq!(a.paths_found, b.paths_found);
            assert_eq!(a.curated, b.curated);
            assert_eq!(a.witness_errors, b.witness_errors);
        }
    }

    #[test]
    fn metrics_json_is_well_formed_enough() {
        let m = Metrics {
            threads: 4,
            instructions: 7,
            cache_hits: 3,
            cache_misses: 4,
            compile_hits: 6,
            compile_misses: 2,
            wall_clock: Duration::from_millis(12),
            stages: StageTimes {
                clock: igjit_difftest::StageClock { checks: 9, sampled_checks: 2, clock_reads: 30 },
                ..StageTimes::default()
            },
            ..Metrics::default()
        };
        let j = m.to_json();
        assert!(j.contains("\"stage_clock\":{\"checks\":9,\"sampled_checks\":2,\"clock_reads\":30}"));
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"threads\":4"));
        assert!(j.contains("\"hit_rate\":0.4286"));
        assert!(j.contains("\"compile_cache\":{\"hits\":6,\"misses\":2,\"hit_rate\":0.7500}"));
        assert!(j.contains("\"corpus\":{\"hits\":0,\"misses\":0}"));
        assert!(j.contains("\"progress\":"));
        assert!(j.contains("\"stages_max_ms\""));
        assert!(j.contains("\"trail\":{\"marks\":0,\"undone_ops\":0}"));
        assert!(j.contains(
            "\"solver\":{\"solves\":0,\"sat\":0,\"unsat\":0,\"nodes_visited\":0,\
             \"propagation_reuse\":0,\"rebuilds\":0,\"pushes\":0,\"max_depth\":0}"
        ));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
