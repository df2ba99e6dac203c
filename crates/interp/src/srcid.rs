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
    "concrete.rs",
    "context.rs",
    "exit.rs",
    "frame.rs",
    "image.rs",
    "lib.rs",
    "natives/ffi.rs",
    "natives/float.rs",
    "natives/mod.rs",
    "natives/object.rs",
    "natives/smallint.rs",
    "runner.rs",
    "spec.rs",
    "srcid.rs",
    "step.rs",
];

const SRC_BYTES: &[&[u8]] = &[
    include_bytes!("concrete.rs"),
    include_bytes!("context.rs"),
    include_bytes!("exit.rs"),
    include_bytes!("frame.rs"),
    include_bytes!("image.rs"),
    include_bytes!("lib.rs"),
    include_bytes!("natives/ffi.rs"),
    include_bytes!("natives/float.rs"),
    include_bytes!("natives/mod.rs"),
    include_bytes!("natives/object.rs"),
    include_bytes!("natives/smallint.rs"),
    include_bytes!("runner.rs"),
    include_bytes!("spec.rs"),
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
