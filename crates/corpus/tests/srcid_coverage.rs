//! Guards the compile-time source fingerprints against going stale.
//!
//! Each semantic crate's `srcid::SRC_FILES` is a hand-maintained,
//! sorted list of every `.rs` file under its `src/`, baked into
//! `SOURCE_FINGERPRINT` via `include_bytes!`. If a future change adds
//! a source file without listing it, the fingerprint stops covering
//! that file and the corpus would happily replay results computed by
//! different code. This test walks each crate's `src/` on disk and
//! fails on any divergence.

use std::path::Path;

/// Collects every `.rs` path under `dir`, relative to it, `/`-separated
/// and sorted — the exact format `SRC_FILES` promises.
fn rs_files_on_disk(dir: &Path) -> Vec<String> {
    fn walk(dir: &Path, prefix: &str, out: &mut Vec<String>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let entry = entry.unwrap();
            let name = entry.file_name().into_string().unwrap();
            let rel = if prefix.is_empty() { name.clone() } else { format!("{prefix}/{name}") };
            let path = entry.path();
            if path.is_dir() {
                walk(&path, &rel, out);
            } else if name.ends_with(".rs") {
                out.push(rel);
            }
        }
    }
    let mut out = Vec::new();
    walk(dir, "", &mut out);
    out.sort();
    out
}

fn check(crate_dir: &str, listed: &[&str]) {
    // Tests run with the crate root as cwd; the sibling crates live
    // one level up.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .join(crate_dir)
        .join("src");
    let on_disk = rs_files_on_disk(&dir);
    let listed: Vec<String> = listed.iter().map(|s| s.to_string()).collect();
    assert_eq!(
        on_disk, listed,
        "crates/{crate_dir}/src/srcid.rs SRC_FILES is stale: the left side is \
         what exists on disk, the right side is what SOURCE_FINGERPRINT covers. \
         Update SRC_FILES and the matching include_bytes! list."
    );
    let mut sorted = listed.clone();
    sorted.sort();
    assert_eq!(listed, sorted, "crates/{crate_dir}/src/srcid.rs SRC_FILES must stay sorted");
}

#[test]
fn srcid_listings_cover_every_source_file() {
    check("bytecode", igjit_bytecode::srcid::SRC_FILES);
    check("heap", igjit_heap::srcid::SRC_FILES);
    check("solver", igjit_solver::srcid::SRC_FILES);
    check("interp", igjit_interp::srcid::SRC_FILES);
    check("concolic", igjit_concolic::srcid::SRC_FILES);
    check("jit", igjit_jit::srcid::SRC_FILES);
    check("metajit", igjit_metajit::srcid::SRC_FILES);
    check("machine", igjit_machine::srcid::SRC_FILES);
    check("mutate", igjit_mutate::srcid::SRC_FILES);
    check("difftest", igjit_difftest::srcid::SRC_FILES);
}

#[test]
fn fingerprints_are_distinct_per_section() {
    use igjit_machine::Isa;
    let both = igjit_corpus::fingerprints(true, &[Isa::X86ish, Isa::Arm32ish]);
    assert_ne!(both.exploration, both.code);
    assert_ne!(both.code, both.outcomes);
    assert_ne!(both.exploration, both.outcomes);

    // The probe flag keys only the sections it can influence.
    let no_probes = igjit_corpus::fingerprints(false, &[Isa::X86ish, Isa::Arm32ish]);
    assert_ne!(both.exploration, no_probes.exploration);
    assert_eq!(both.code, no_probes.code);
    assert_ne!(both.outcomes, no_probes.outcomes);

    // The ISA list keys only the outcome section.
    let one_isa = igjit_corpus::fingerprints(true, &[Isa::X86ish]);
    assert_eq!(both.exploration, one_isa.exploration);
    assert_eq!(both.code, one_isa.code);
    assert_ne!(both.outcomes, one_isa.outcomes);
}
