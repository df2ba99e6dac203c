//! Compile-time identity of this crate's sources.
//!
//! `SOURCE_FINGERPRINT` is an FNV-1a hash over every `.rs` file in
//! `src/`, computed at build time via `include_bytes!`. The persistent
//! campaign corpus (`igjit-corpus`) mixes these per-crate hashes into
//! its section fingerprints, so editing any file of a semantic crate
//! invalidates exactly the corpus sections whose results could have
//! changed — and nothing else. `igjit-corpus` has a test that walks
//! this directory and fails if `SRC_FILES` goes stale.

/// Every source file baked into [`SOURCE_FINGERPRINT`], sorted,
/// relative to `src/`.
pub const SRC_FILES: &[&str] = &[
    "campaign.rs",
    "classify.rs",
    "compare.rs",
    "compiled.rs",
    "lib.rs",
    "meta.rs",
    "oracle.rs",
    "sequence.rs",
    "srcid.rs",
    "step.rs",
];

const SRC_BYTES: &[&[u8]] = &[
    include_bytes!("campaign.rs"),
    include_bytes!("classify.rs"),
    include_bytes!("compare.rs"),
    include_bytes!("compiled.rs"),
    include_bytes!("lib.rs"),
    include_bytes!("meta.rs"),
    include_bytes!("oracle.rs"),
    include_bytes!("sequence.rs"),
    include_bytes!("srcid.rs"),
    include_bytes!("step.rs"),
];

/// FNV-1a over the concatenation of [`SRC_FILES`] contents (with a
/// separator byte between files, so moving bytes across a file
/// boundary changes the hash).
pub const SOURCE_FINGERPRINT: u64 = fnv64(SRC_BYTES);

const fn fnv64(files: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut i = 0;
    while i < files.len() {
        let f = files[i];
        let mut j = 0;
        while j < f.len() {
            h ^= f[j] as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
            j += 1;
        }
        h ^= 0x1F;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
        i += 1;
    }
    h
}
