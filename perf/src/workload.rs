//! The four workloads: what each sets up, what one op calls, and how
//! the op's output is checked. Every op calls only public entry points
//! of the reproduction, and every campaign runs on
//! `CampaignConfig { threads: 1, corpus, ..Default::default() }`, so no
//! engine setting the benchmark does not own can change what it times.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use igjit::mutate::CATALOG;
use igjit::{
    aggregate_metrics, Campaign, CampaignConfig, CampaignReport, CompilerKind, DefectCategory,
    ExplorationCache, FaultInjector, Instruction, Isa, Metrics, MutantId, StageTimes,
};
use igjit_corpus::SaveOutcome;
use igjit_difftest::{test_sequence, SequenceOutcome};

use crate::rng::Rng;
use crate::trace::Tracer;

pub const ISAS: [Isa; 2] = [Isa::X86ish, Isa::Arm32ish];

/// Span names of the five Table 2 rows, in `Campaign::run_all` order.
pub const ROW_SPANS: [&str; 5] = [
    "core.row_native",
    "core.row_tier1",
    "core.row_tier2",
    "core.row_tier3",
    "core.row_meta",
];

/// Table 2 at the seed commit, per row: tested instructions,
/// interpreter paths, curated paths, differences. Any seed and any row
/// order must reproduce it.
pub const PINNED_ROWS: [[usize; 4]; 5] = [
    [112, 753, 753, 437],
    [148, 512, 511, 37],
    [148, 512, 511, 16],
    [148, 512, 511, 16],
    [148, 512, 511, 0],
];

/// Mutants the full five-row sweep kills (35 of the 44-operator
/// catalog); every other catalog mutant must survive.
pub const EXPECTED_KILLS: [u32; 35] = [
    101, 102, 104, 105, 106, 107, 108, 109, 110, 111, 112, 113, 114, 115, 116, 117, 119, 120, 121,
    122, 123, 124, 125, 203, 204, 301, 302, 303, 304, 401, 402, 404, 405, 501, 502,
];

/// The instructions `sequence_fuzz` draws random sequences from: no
/// unsupported features and bounded frame demands.
pub const POOL: [Instruction; 24] = [
    Instruction::PushZero,
    Instruction::PushOne,
    Instruction::PushTwo,
    Instruction::PushMinusOne,
    Instruction::PushInteger(13),
    Instruction::PushInteger(-77),
    Instruction::PushTrue,
    Instruction::PushFalse,
    Instruction::PushNil,
    Instruction::PushReceiver,
    Instruction::Dup,
    Instruction::Pop,
    Instruction::Add,
    Instruction::Subtract,
    Instruction::Multiply,
    Instruction::Modulo,
    Instruction::LessThan,
    Instruction::GreaterOrEqual,
    Instruction::Equal,
    Instruction::BitAnd,
    Instruction::BitOr,
    Instruction::IdentityEqual,
    Instruction::SpecialSendSize,
    Instruction::ShortJumpTrue(3),
];

/// Sequences one `seq_fuzz` op tests back to back. One sequence takes
/// from 10 µs to several ms depending on what it draws; a batch evens
/// the ops out, so a low percentile of their latencies reads the host's
/// quiet moments rather than the cheapest draws.
pub const SEQ_BATCH: usize = 64;

/// A seeded random sequence of 2 or 3 instructions from [`POOL`].
pub fn random_sequence(rng: &mut Rng) -> Vec<Instruction> {
    let len = 2 + rng.below(2);
    (0..len).map(|_| POOL[rng.below(POOL.len())]).collect()
}

/// The only draws that diverge outside the optimisation gap: all 14,400
/// sequences of two or three [`POOL`] instructions were tested at the
/// seed commit, and in these two the StackToRegister tier pushes the
/// arithmetic result where the second `PushReceiver` should push the
/// receiver. About 6 in 10,000 sequences of four or five instructions
/// diverge the same way, so draws stop at three and every op's verdict
/// stays known.
pub const DIVERGENT: [[Instruction; 3]; 2] = [
    [
        Instruction::PushReceiver,
        Instruction::Multiply,
        Instruction::PushReceiver,
    ],
    [
        Instruction::PushReceiver,
        Instruction::Modulo,
        Instruction::PushReceiver,
    ],
];

pub fn config(corpus: Option<PathBuf>) -> CampaignConfig {
    CampaignConfig {
        threads: 1,
        corpus,
        ..Default::default()
    }
}

/// Runs Table 2 row `row` (an index into [`ROW_SPANS`]).
pub fn run_row(campaign: &Campaign, row: usize) -> CampaignReport {
    match row {
        0 => campaign.run_native_methods(),
        1..=3 => campaign.run_bytecodes(CompilerKind::ALL[row - 1]),
        _ => campaign.run_meta_compiled(),
    }
}

/// Runs the rows in `order`, each inside its span, and returns the
/// reports in row order.
fn sweep(campaign: &Campaign, order: &[usize], tr: &mut Tracer) -> Vec<CampaignReport> {
    let mut reports: Vec<Option<CampaignReport>> = (0..ROW_SPANS.len()).map(|_| None).collect();
    for &row in order {
        let span = tr.open(ROW_SPANS[row]);
        reports[row] = Some(run_row(campaign, row));
        tr.close(span);
    }
    reports
        .into_iter()
        .map(|r| r.expect("every row ran"))
        .collect()
}

const ROW_ORDER: [usize; 5] = [0, 1, 2, 3, 4];

/// Freeing a campaign's caches is part of an op, in its own span.
fn drop_campaign(campaign: Campaign, tr: &mut Tracer) {
    let span = tr.open("core.drop_campaign");
    drop(campaign);
    tr.close(span);
}

/// What a workload keeps between ops.
pub enum Workload {
    SweepCold,
    SweepWarm {
        corpus: PathBuf,
    },
    Mutation {
        cache: Arc<ExplorationCache>,
        baseline: Vec<Vec<String>>,
    },
    SeqFuzz,
}

/// What one op produced, before it is checked.
pub enum Output {
    Sweep {
        reports: Vec<CampaignReport>,
        saved: Option<std::io::Result<SaveOutcome>>,
    },
    Mutant {
        id: MutantId,
        reports: Vec<CampaignReport>,
    },
    Sequences(Vec<SequenceOutcome>),
}

/// Names of the work counters an op reports, in [`Counters`] order.
pub const COUNTERS: [&str; 11] = [
    "paths",
    "cache_hits",
    "cache_misses",
    "family_hits",
    "solves",
    "nodes_visited",
    "restores",
    "dirty_words",
    "compile_hits",
    "compile_misses",
    "corpus_hits",
];

/// Work counters of one op, as the program reports them; a sequence
/// test reports only its paths.
pub type Counters = [f64; COUNTERS.len()];

fn counters(paths: usize, m: &Metrics) -> Counters {
    [
        paths as f64,
        m.cache_hits as f64,
        m.cache_misses as f64,
        m.family_hits as f64,
        m.solver.solves as f64,
        m.solver.nodes_visited as f64,
        m.snapshot.restores as f64,
        m.snapshot.dirty_words as f64,
        m.compile_hits as f64,
        m.compile_misses as f64,
        m.corpus_hits as f64,
    ]
}

/// A checked op: the work it did and the program's own accounting.
pub struct Checked {
    pub instructions: usize,
    pub curated: usize,
    pub counters: Counters,
    /// Per-stage times the campaign reported (zero for sequences).
    pub stages: StageTimes,
}

/// Where a block's draws come from.
#[derive(Clone, Copy, Debug)]
pub struct Key {
    pub seed: u64,
    pub workload: usize,
    pub block: usize,
}

impl Key {
    pub fn rng(&self, purpose: u64) -> Rng {
        Rng::new(&[self.seed, self.workload as u64, self.block as u64, purpose])
    }
}

fn check_rows(reports: &[CampaignReport]) -> Result<Metrics, String> {
    for (i, (r, pinned)) in reports.iter().zip(PINNED_ROWS).enumerate() {
        let got = [
            r.row.tested_instructions,
            r.row.interpreter_paths,
            r.row.curated_paths,
            r.row.differences,
        ];
        if got != pinned {
            return Err(format!(
                "{} row is {got:?}, pinned {pinned:?}",
                ROW_SPANS[i]
            ));
        }
    }
    let m = aggregate_metrics(reports);
    if m.witness_errors + m.oracle_panics > 0 {
        return Err(format!(
            "{} witness errors and {} oracle panics",
            m.witness_errors, m.oracle_panics
        ));
    }
    Ok(m)
}

/// One instruction's comparable output per row: path and curation
/// counts, test errors and every path verdict. Any change from the
/// disarmed baseline kills the armed mutant.
fn signatures(reports: &[CampaignReport]) -> Vec<Vec<String>> {
    reports
        .iter()
        .map(|r| {
            r.outcomes
                .iter()
                .map(|o| {
                    let mut sig = format!(
                        "{} {} {} {}",
                        o.paths_found, o.curated, o.witness_errors, o.oracle_panics
                    );
                    for v in &o.verdicts {
                        sig.push_str(&format!(
                            " [{} {} {:?} {:?} {}]",
                            v.interp_exit,
                            v.verdict.is_difference(),
                            v.all_causes,
                            v.isa,
                            v.found_by_probe,
                        ));
                    }
                    sig
                })
                .collect()
        })
        .collect()
}

/// Every difference a sequence shows lies in the optimisation gap,
/// except in the [`DIVERGENT`] draws, which must show a behavioural one.
fn check_sequence(outcome: &SequenceOutcome) -> Result<(), String> {
    let pinned = DIVERGENT.iter().any(|d| d[..] == outcome.instructions[..]);
    let outside: Vec<Option<DefectCategory>> = outcome
        .verdicts
        .iter()
        .filter(|v| v.verdict.is_difference())
        .map(|v| v.cause.as_ref().map(|c| c.category))
        .filter(|&c| c != Some(DefectCategory::OptimisationDifference))
        .collect();
    let as_pinned = if pinned {
        !outside.is_empty()
            && outside
                .iter()
                .all(|&c| c == Some(DefectCategory::BehaviouralDifference))
    } else {
        outside.is_empty()
    };
    if as_pinned {
        return Ok(());
    }
    Err(format!(
        "{:?}: differences outside the optimisation gap {outside:?}, expected {}",
        outcome.instructions,
        if pinned {
            "a behavioural difference"
        } else {
            "none"
        },
    ))
}

fn mutant_for_op(key: &Key, op: usize) -> MutantId {
    let mut order: Vec<usize> = (0..CATALOG.len()).collect();
    key.rng((op / CATALOG.len()) as u64).shuffle(&mut order);
    CATALOG[order[op % CATALOG.len()]].id
}

impl Workload {
    /// Prepares workload `index` (see `spec::WORKLOADS`) in `dir`.
    pub fn set_up(index: usize, dir: &Path) -> Result<Workload, String> {
        match index {
            0 => Ok(Workload::SweepCold),
            1 => {
                let corpus = dir.join("warm.corpus");
                let campaign = Campaign::new(config(Some(corpus.clone())));
                check_rows(&sweep(&campaign, &ROW_ORDER, &mut Tracer::off()))?;
                match campaign.save_corpus() {
                    Some(Ok(SaveOutcome::Written { .. })) => Ok(Workload::SweepWarm { corpus }),
                    other => Err(format!("building the warm corpus: {other:?}")),
                }
            }
            2 => {
                if CATALOG.len() != 44
                    || EXPECTED_KILLS
                        .iter()
                        .any(|&id| igjit::mutate::find(MutantId(id)).is_none())
                {
                    return Err("the mutant catalog no longer matches the expected verdicts".into());
                }
                let campaign = Campaign::new(config(None));
                let reports = {
                    let _off = FaultInjector::pinned_off();
                    sweep(&campaign, &ROW_ORDER, &mut Tracer::off())
                };
                check_rows(&reports)?;
                Ok(Workload::Mutation {
                    cache: campaign.exploration_cache_arc(),
                    baseline: signatures(&reports),
                })
            }
            _ => Ok(Workload::SeqFuzz),
        }
    }

    /// Op `op` of the block `key` names: only calls into the program,
    /// so the worker can time exactly this.
    pub fn run(&self, key: &Key, op: usize, tr: &mut Tracer) -> Result<Output, String> {
        match self {
            Workload::SweepCold => {
                let mut order = ROW_ORDER;
                key.rng(op as u64).shuffle(&mut order);
                let span = tr.open("core.campaign_new");
                let campaign = Campaign::new(config(None));
                tr.close(span);
                let reports = sweep(&campaign, &order, tr);
                drop_campaign(campaign, tr);
                Ok(Output::Sweep {
                    reports,
                    saved: None,
                })
            }
            Workload::SweepWarm { corpus } => {
                let span = tr.open("core.campaign_new");
                let campaign = Campaign::new(config(Some(corpus.clone())));
                tr.close(span);
                let reports = sweep(&campaign, &ROW_ORDER, tr);
                let span = tr.open("core.save_corpus");
                let saved = campaign.save_corpus();
                tr.close(span);
                drop_campaign(campaign, tr);
                Ok(Output::Sweep { reports, saved })
            }
            Workload::Mutation { cache, .. } => {
                let id = mutant_for_op(key, op);
                let span = tr.open("mutate.arm");
                let armed = FaultInjector::arm(id)?;
                tr.close(span);
                let span = tr.open("core.campaign_new");
                let campaign = Campaign::with_exploration_cache(config(None), Arc::clone(cache));
                tr.close(span);
                let reports = sweep(&campaign, &ROW_ORDER, tr);
                drop_campaign(campaign, tr);
                drop(armed);
                Ok(Output::Mutant { id, reports })
            }
            Workload::SeqFuzz => {
                let mut rng = key.rng(op as u64);
                let outcomes = (0..SEQ_BATCH)
                    .map(|_| {
                        let instructions = random_sequence(&mut rng);
                        let span = tr.open("difftest.test_sequence");
                        let outcome =
                            test_sequence(&instructions, CompilerKind::StackToRegister, &ISAS);
                        tr.close(span);
                        outcome
                    })
                    .collect();
                Ok(Output::Sequences(outcomes))
            }
        }
    }

    /// Checks an op's output against what the seed commit produced.
    pub fn check(&self, output: &Output) -> Result<Checked, String> {
        let sweep_checked = |reports: &[CampaignReport], m: &Metrics| Checked {
            instructions: m.instructions,
            curated: reports.iter().map(|r| r.row.curated_paths).sum(),
            counters: counters(reports.iter().map(|r| r.row.interpreter_paths).sum(), m),
            stages: m.stages,
        };
        match (self, output) {
            (Workload::SweepCold, Output::Sweep { reports, .. }) => {
                let m = check_rows(reports)?;
                Ok(sweep_checked(reports, &m))
            }
            (Workload::SweepWarm { .. }, Output::Sweep { reports, saved }) => {
                let m = check_rows(reports)?;
                if m.corpus_hits != m.instructions {
                    return Err(format!("{}/{} corpus hits", m.corpus_hits, m.instructions));
                }
                match saved {
                    Some(Ok(SaveOutcome::Unchanged)) => Ok(sweep_checked(reports, &m)),
                    other => Err(format!(
                        "save_corpus returned {other:?}, expected Unchanged"
                    )),
                }
            }
            (Workload::Mutation { baseline, .. }, Output::Mutant { id, reports }) => {
                let m = aggregate_metrics(reports);
                if m.witness_errors + m.oracle_panics > 0 {
                    return Err(format!("mutant {}: test errors in the sweep", id.0));
                }
                let killed = signatures(reports) != *baseline;
                let expected = EXPECTED_KILLS.contains(&id.0);
                if killed != expected {
                    return Err(format!(
                        "mutant {} {}, expected it to {}",
                        id.0,
                        if killed { "was killed" } else { "survived" },
                        if expected { "be killed" } else { "survive" },
                    ));
                }
                Ok(sweep_checked(reports, &m))
            }
            (Workload::SeqFuzz, Output::Sequences(outcomes)) => {
                for outcome in outcomes {
                    check_sequence(outcome)?;
                }
                Ok(Checked {
                    instructions: outcomes.iter().map(|o| o.instructions.len()).sum(),
                    curated: outcomes.iter().map(|o| o.curated).sum(),
                    counters: counters(
                        outcomes.iter().map(|o| o.paths_found).sum(),
                        &Metrics::default(),
                    ),
                    stages: StageTimes::default(),
                })
            }
            _ => Err("an op produced another workload's output".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_inputs_depend_only_on_seed_block_and_op() {
        let key = |seed, block| Key {
            seed,
            workload: 3,
            block,
        };
        let seqs = |k: Key| {
            (0..50)
                .map(|op| random_sequence(&mut k.rng(op)))
                .collect::<Vec<_>>()
        };
        assert_eq!(seqs(key(5, 1)), seqs(key(5, 1)));
        assert_ne!(seqs(key(5, 1)), seqs(key(6, 1)));
        assert_ne!(seqs(key(5, 1)), seqs(key(5, 2)));
        assert!(seqs(key(5, 1)).iter().all(|s| (2..=3).contains(&s.len())));
        let mutants = |k: Key| (0..88).map(|op| mutant_for_op(&k, op)).collect::<Vec<_>>();
        let m = mutants(Key {
            seed: 9,
            workload: 2,
            block: 0,
        });
        assert_eq!(
            m,
            mutants(Key {
                seed: 9,
                workload: 2,
                block: 0
            })
        );
        // Each matrix of 44 ops covers the whole catalog once.
        for matrix in m.chunks(CATALOG.len()) {
            let mut ids: Vec<u32> = matrix.iter().map(|id| id.0).collect();
            ids.sort_unstable();
            let mut all: Vec<u32> = CATALOG.iter().map(|op| op.id.0).collect();
            all.sort_unstable();
            assert_eq!(ids, all);
        }
    }

    #[test]
    fn pinned_rows_sum_to_the_table_2_totals() {
        let total = PINNED_ROWS.iter().fold([0; 4], |mut acc, row| {
            for (a, v) in acc.iter_mut().zip(row) {
                *a += v;
            }
            acc
        });
        assert_eq!(total, [704, 2801, 2797, 506]);
    }
}
