//! The layer pass of a traced run: the same seeded calls into each
//! crate's public functions on every workload, timed one by one. It
//! gives every layer a busy time per call that no workload's cache
//! state can hide.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use igjit::{
    instruction_catalog, native_catalog, Campaign, CompilerKind, Explorer, InstrUnderTest,
    ObjectMemory,
};
use igjit_concolic::{materialize_base, materialize_frame, probe_models, DEFAULT_MAX_PROBES};
use igjit_corpus::SaveOutcome;
use igjit_difftest::{
    compare_runs, concrete_frame, run_compiled_for_instr, run_oracle, run_oracle_on,
};

use crate::rng::Rng;
use crate::workload::{config, random_sequence, run_row, ISAS, PINNED_ROWS};

pub type Samples = BTreeMap<&'static str, Vec<f64>>;

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

fn ns(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e9
}

/// Table 2 rows on a cold campaign, then the corpus they leave behind:
/// loaded and saved through the campaign and through `igjit_corpus`.
fn campaign_and_corpus(dir: &Path, rounds: usize, out: &mut Samples) -> Result<(), String> {
    const ROW_METRICS: [&str; 5] = [
        "core.row_native_ms",
        "core.row_tier1_ms",
        "core.row_tier2_ms",
        "core.row_tier3_ms",
        "core.row_meta_ms",
    ];
    let path = dir.join("layer.corpus");
    let cfg = config(Some(path.clone()));
    let campaign = Campaign::new(cfg.clone());
    for (row, metric) in ROW_METRICS.iter().enumerate() {
        let t = Instant::now();
        black_box(run_row(&campaign, row));
        out.entry(metric).or_default().push(ms(t));
    }
    match campaign.save_corpus() {
        Some(Ok(SaveOutcome::Written { .. })) => {}
        other => return Err(format!("layer pass: saving the corpus gave {other:?}")),
    }
    let fps = igjit_corpus::fingerprints(cfg.probes, &cfg.isas);
    let copy = dir.join("layer-copy.corpus");
    for _ in 0..rounds {
        let t = Instant::now();
        let warm = Campaign::new(cfg.clone());
        out.entry("core.campaign_new_ms").or_default().push(ms(t));
        let t = Instant::now();
        let saved = warm.save_corpus();
        out.entry("core.save_corpus_ms").or_default().push(ms(t));
        if !matches!(saved, Some(Ok(SaveOutcome::Unchanged))) {
            return Err(format!(
                "layer pass: re-saving an unchanged corpus gave {saved:?}"
            ));
        }
        let t = Instant::now();
        let (corpus, stats) = igjit_corpus::load(&path, &fps);
        out.entry("corpus.load_ms").or_default().push(ms(t));
        let instructions: usize = PINNED_ROWS.iter().map(|row| row[0]).sum();
        if stats.cold || stats.outcomes != instructions {
            return Err(format!("layer pass: corpus load found {stats:?}"));
        }
        let _ = std::fs::remove_file(&copy);
        let t = Instant::now();
        let saved = igjit_corpus::save(&copy, &corpus, &fps);
        out.entry("corpus.save_ms").or_default().push(ms(t));
        if !matches!(saved, Ok(SaveOutcome::Written { .. })) {
            return Err(format!("layer pass: corpus save gave {saved:?}"));
        }
    }
    let bytes = std::fs::metadata(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .len();
    out.entry("corpus.file_mb")
        .or_default()
        .push(bytes as f64 / 1e6);
    Ok(())
}

/// Explore, probe, oracle, compiled run, compare, seal and restore on
/// up to three curated paths of one instruction.
fn one_instruction(instr: InstrUnderTest, kind: Option<CompilerKind>, out: &mut Samples) {
    let t = Instant::now();
    let explored = Explorer::new().explore(instr);
    out.entry("concolic.explore_us").or_default().push(us(t));
    for path in explored.curated_paths().into_iter().take(3) {
        let t = Instant::now();
        black_box(probe_models(&explored.state, path, DEFAULT_MAX_PROBES));
        out.entry("solver.probe_models_us").or_default().push(us(t));

        let t = Instant::now();
        let oracle = run_oracle(&explored.state, &path.model, instr);
        out.entry("difftest.run_oracle_us").or_default().push(us(t));
        if oracle.exit.is_testable() {
            for isa in ISAS {
                let mut state = explored.state.clone();
                let mut mem = ObjectMemory::new();
                let mat = materialize_frame(&mut state, &path.model, &mut mem);
                let frame = concrete_frame(&mat.frame);
                let t = Instant::now();
                let (compiled, compiled_mem) =
                    run_compiled_for_instr(kind, isa, instr, &frame, mem);
                out.entry("difftest.run_compiled_us")
                    .or_default()
                    .push(us(t));
                let t = Instant::now();
                black_box(compare_runs(
                    &oracle.exit,
                    &oracle.mem,
                    &compiled,
                    &compiled_mem,
                    &mat.var_oops,
                ));
                out.entry("difftest.compare_runs_us")
                    .or_default()
                    .push(us(t));
            }
        }

        let mut image = materialize_base(&explored.state, &path.model);
        let t = Instant::now();
        let snapshot = image.mem.seal();
        out.entry("heap.seal_ns").or_default().push(ns(t));
        let mut frame = concrete_frame(&image.frame);
        black_box(run_oracle_on(&mut image.mem, &mut frame, instr));
        let t = Instant::now();
        let restored = image.mem.restore(&snapshot);
        out.entry("heap.restore_ns").or_default().push(ns(t));
        black_box(restored.expect("restoring the seal just taken"));
    }
}

/// Runs the layer pass for one block; `quick` shrinks every sample.
pub fn layer_pass(mut rng: Rng, dir: &Path, quick: bool) -> Result<Samples, String> {
    let mut out = Samples::new();
    campaign_and_corpus(dir, if quick { 1 } else { 3 }, &mut out)?;

    let (bytecodes, natives, sequences) = if quick { (2, 1, 2) } else { (8, 4, 8) };
    let catalog = instruction_catalog();
    let native = native_catalog();
    for _ in 0..bytecodes {
        let instr = InstrUnderTest::Bytecode(catalog[rng.below(catalog.len())].instruction);
        let kind = CompilerKind::ALL[rng.below(CompilerKind::ALL.len())];
        one_instruction(instr, Some(kind), &mut out);
    }
    for _ in 0..natives {
        one_instruction(
            InstrUnderTest::Native(native[rng.below(native.len())].id),
            None,
            &mut out,
        );
    }
    for _ in 0..sequences {
        let seq = random_sequence(&mut rng);
        let t = Instant::now();
        let explored = Explorer::new().explore_sequence(&seq);
        out.entry("concolic.explore_sequence_us")
            .or_default()
            .push(us(t));
        explored.map_err(|e| format!("layer pass: exploring {seq:?}: {e:?}"))?;
    }
    Ok(out)
}
