//! Persistent campaign corpus (engine v7).
//!
//! The paper's harness is meant to run continuously against an
//! evolving JIT, but exploration, probing and compilation are all
//! deterministic functions of the interpreter/compiler sources — so
//! none of that work needs to be redone when the sources haven't
//! changed. This crate persists the three cacheable layers of a sweep
//! to one binary file:
//!
//! 1. **explorations** — curated paths, probe models and recorded
//!    negation walks, keyed by the interpreter-side source
//!    fingerprint;
//! 2. **code** — compiled-code-cache artifacts (including refusals),
//!    keyed by the compiler-side fingerprint extended with the
//!    mutant-arming state;
//! 3. **outcomes** — whole-pipeline per-instruction verdicts, keyed
//!    by the combination — the section that makes a warm re-run
//!    against an unchanged compiler skip the pipeline outright.
//!
//! Invalidation is content-based ([`mod@fingerprint`]): every semantic
//! crate bakes an FNV-1a hash of its own sources in at compile time,
//! and each section mixes exactly the crates that can influence it.
//! Change the JIT and the code + outcome sections go stale while the
//! expensive exploration section stays warm; change nothing and a
//! re-sweep is almost pure cache replay.
//!
//! The file layer ([`mod@file`], format v3) enforces the format's one
//! hard rule: a corpus can only ever make a run *faster or colder* —
//! any truncation, checksum mismatch, version skew or decode error
//! silently degrades to recomputing, never panics, never changes a
//! row.
//!
//! A warm re-check pays only for what it replays. Loading an
//! [`Image`] reads the file once and checks every section's
//! fingerprint and word-wise checksum ([`wire::checksum`]) up front,
//! but decodes no section; the campaign decodes the outcomes at
//! attach, and the exploration and code sections only on its first
//! pipeline miss. Saving reuses the loaded payload bytes of every
//! section that gained nothing since it was loaded ([`Image::rebuild`]),
//! so re-saving an unchanged corpus re-encodes nothing and still
//! compares the result against the bytes on disk.

pub mod codec;
pub mod file;
pub mod fingerprint;
pub mod wire;

pub use codec::{from_bytes, to_bytes, Wire};
pub use file::{
    encode_section, load, save, Corpus, ExplorationKey, Image, LoadStats, OutcomeKey,
    SaveOutcome, Section,
};
pub use fingerprint::{fingerprints, Fingerprints};
pub use wire::{Decoder, Encoder, WireError};
