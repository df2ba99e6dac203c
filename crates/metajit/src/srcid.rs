//! Compile-time identity of this crate's sources.
//!
//! Mirrors the other semantic crates' `srcid` modules: an FNV-1a hash
//! over every `.rs` file in `src/`, so the persistent campaign corpus
//! can invalidate sections whose results could depend on the
//! meta-compiler's behaviour.

/// Every source file baked into [`SOURCE_FINGERPRINT`], sorted,
/// relative to `src/`.
pub const SRC_FILES: &[&str] = &[
    "compile.rs",
    "eval.rs",
    "lib.rs",
    "srcid.rs",
];

const SRC_BYTES: &[&[u8]] = &[
    include_bytes!("compile.rs"),
    include_bytes!("eval.rs"),
    include_bytes!("lib.rs"),
    include_bytes!("srcid.rs"),
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
