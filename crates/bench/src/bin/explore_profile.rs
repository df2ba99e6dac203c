//! Micro-profile of the exploration stage in isolation: explores the
//! whole catalog (natives + bytecodes) repeatedly with a fresh cache
//! each round, printing per-round wall time. Run it under a sampling
//! profiler (e.g. `gprofng collect app`) to see where explore time
//! goes without the campaign's materialize/compile/compare stages in
//! the profile.
//!
//! ```sh
//! cargo run --release -p igjit-bench --bin explore_profile -- [rounds]
//! ```
//!
//! Knob: `IGJIT_NEGATE_THREADS`.

use std::time::Instant;

use igjit_bytecode::instruction_catalog;
use igjit_concolic::{ExplorationCache, Explorer, InstrUnderTest};
use igjit_interp::native_catalog;

fn main() {
    let knobs = igjit_bench::env_knobs();
    let rounds: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(20);
    let mut explorer = Explorer::new();
    explorer.negation_threads = knobs.negate_threads_or_default();
    let mut total_paths = 0usize;
    let t0 = Instant::now();
    for round in 0..rounds {
        // Fresh cache per round: every exploration is a miss, exactly
        // like the first tier of a campaign.
        let cache = ExplorationCache::new();
        let tr = Instant::now();
        let mut paths = 0;
        for spec in native_catalog() {
            let l = cache.get_or_explore(&explorer, InstrUnderTest::Native(spec.id), true);
            paths += l.exploration.paths.len();
        }
        let native_ms = tr.elapsed().as_secs_f64() * 1000.0;
        for spec in instruction_catalog() {
            let l =
                cache.get_or_explore(&explorer, InstrUnderTest::Bytecode(spec.instruction), false);
            paths += l.exploration.paths.len();
        }
        total_paths = paths;
        eprintln!(
            "round {round:>3}: {paths} paths in {:.2} ms (natives+probes {native_ms:.2} ms, {} family hits)",
            tr.elapsed().as_secs_f64() * 1000.0,
            cache.family_hits(),
        );
    }
    eprintln!(
        "{rounds} rounds, {total_paths} paths/round, {:.2} ms/round mean",
        t0.elapsed().as_secs_f64() * 1000.0 / rounds as f64
    );
}
