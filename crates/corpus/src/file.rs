//! The on-disk corpus file: verified up front, decoded on demand,
//! saved atomically.
//!
//! Layout (format v3, all integers little-endian):
//!
//! ```text
//! "IGJC"  magic                                  4 bytes
//! version u16                                    2 bytes
//! count   u8     number of sections              1 byte
//! then per section:
//!   tag        u8    1=explorations 2=code 3=outcomes
//!   fingerprint u64  content key (see fingerprint.rs)
//!   length      u64  payload bytes
//!   checksum    u64  word-wise FNV-1a of the payload (wire::checksum)
//!   payload     [u8; length]: entry count u64, then the entries
//!                             sorted by their encoded key
//! ```
//!
//! **Verified eagerly, decoded lazily.** [`Image::parse`] reads
//! nothing but the header, each section's fingerprint and checksum,
//! and each payload's leading entry count (which is what [`LoadStats`]
//! reports). Every integrity check therefore happens at load, while
//! an accepted section stays a verified byte range of the loaded
//! image until somebody asks for it: [`Image::explorations`],
//! [`Image::code`] and [`Image::outcomes`] decode one section each. A
//! fully warm campaign decodes only the outcomes; it decodes the
//! exploration and code sections on its first pipeline miss, if any.
//! [`load`] and [`decode`] are the eager wrappers over the same parse.
//!
//! **Reuse on save.** [`Image::rebuild`] assembles a file from fresh
//! payloads for the sections that changed and from this image's
//! verified payload bytes (and their checksum) for the sections that
//! did not, so re-saving a section that gained nothing copies bytes
//! instead of re-encoding them. Because [`encode`] is canonical —
//! equal content, equal bytes — a reused section written by `encode`
//! is exactly what re-encoding its decoded entries would produce.
//!
//! **The one hard rule:** a corpus file can never make a run wrong or
//! crash it — only warm or cold. Every anomaly (bad magic, version
//! skew, truncation, checksum mismatch, decode error) drops the
//! affected section (or the whole file) and records a warning; a
//! fingerprint mismatch is ordinary staleness and drops the section
//! silently. The sweep then recomputes exactly what a cold run would.

use crate::codec::{from_bytes, to_bytes, Wire};
use crate::fingerprint::Fingerprints;
use crate::wire::{checksum, Decoder, Encoder, WireError};
use igjit_concolic::{ExplorationResult, InstrUnderTest};
use igjit_difftest::{InstructionOutcome, Target};
use igjit_jit::{CompileError, CompileKey, CompiledCode};
use std::io::{self, Read};
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

/// File magic.
pub const MAGIC: [u8; 4] = *b"IGJC";
/// Format version; any skew degrades to cold. v2: engine v9 adds the
/// meta tier (`Target::MetaCompiled` wire tag 2, meta run counters on
/// `InstructionOutcome`). v3: section checksums hash u64 words
/// ([`crate::wire::checksum`]) instead of single bytes. v4: explored
/// paths drop their output snapshots, explorations their solver
/// counters and instruction outcomes their curation records and
/// iteration counts.
pub const VERSION: u16 = 4;

/// Magic, version and section count.
const FILE_HEADER: usize = 7;
/// Tag, fingerprint, length and checksum.
const SECTION_HEADER: usize = 25;

/// Exploration-cache key: instruction plus the probes flag (mirrors
/// `igjit_concolic::ExplorationCache`).
pub type ExplorationKey = (InstrUnderTest, bool);
/// Outcome key: one per (compiler target, instruction) pair.
pub type OutcomeKey = (Target, InstrUnderTest);

/// The three sections of a corpus file, in file order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Section {
    /// Exploration-cache entries.
    Explorations,
    /// Compiled-code-cache entries.
    Code,
    /// Per-instruction outcomes.
    Outcomes,
}

impl Section {
    /// Every section, in file order.
    pub const ALL: [Section; 3] = [Section::Explorations, Section::Code, Section::Outcomes];

    /// The section's tag on disk.
    pub fn tag(self) -> u8 {
        self as u8 + 1
    }

    fn from_tag(tag: u8) -> Option<Section> {
        Section::ALL.get(usize::from(tag).wrapping_sub(1)).copied()
    }

    fn fingerprint(self, fp: &Fingerprints) -> u64 {
        match self {
            Section::Explorations => fp.exploration,
            Section::Code => fp.code,
            Section::Outcomes => fp.outcomes,
        }
    }

    /// The warning for a section that passed its checksum but did not
    /// decode.
    pub fn decode_warning(self) -> String {
        format!("corpus section {} failed to decode; running it cold", self.tag())
    }
}

/// Everything a corpus file persists, as plain sorted pairs (the
/// in-memory cache structures live in their own crates; this is the
/// interchange form).
#[derive(Default)]
pub struct Corpus {
    /// Exploration-cache entries (curated paths, probe models,
    /// recorded walks), shared with the cache that holds them.
    pub explorations: Vec<(ExplorationKey, Arc<ExplorationResult>)>,
    /// Compiled-code-cache entries, including negative entries
    /// (compile refusals are results too).
    pub code: Vec<(CompileKey, Result<CompiledCode, CompileError>)>,
    /// Whole-pipeline per-instruction outcomes — the section that
    /// lets a fully-warm sweep skip explore/materialize/compile/
    /// simulate/compare outright.
    pub outcomes: Vec<(OutcomeKey, InstructionOutcome)>,
}

/// What a load found, for metrics and operator-facing warnings.
#[derive(Clone, Debug, Default)]
pub struct LoadStats {
    /// Entries per accepted section, from the payload's leading entry
    /// count.
    pub explorations: usize,
    /// Compiled artifacts in the accepted code section.
    pub code: usize,
    /// Instruction outcomes in the accepted outcome section.
    pub outcomes: usize,
    /// Sections dropped for a fingerprint mismatch (ordinary
    /// staleness after a code change).
    pub stale_sections: usize,
    /// True when no section could be used at all (absent file,
    /// corruption, version skew).
    pub cold: bool,
    /// Human-readable anomaly descriptions (empty for a clean load
    /// and for a simply-absent file).
    pub warnings: Vec<String>,
}

impl LoadStats {
    fn count_mut(&mut self, s: Section) -> &mut usize {
        match s {
            Section::Explorations => &mut self.explorations,
            Section::Code => &mut self.code,
            Section::Outcomes => &mut self.outcomes,
        }
    }

    /// Entries in an accepted section, from its leading entry count.
    pub fn count(&self, s: Section) -> usize {
        match s {
            Section::Explorations => self.explorations,
            Section::Code => self.code,
            Section::Outcomes => self.outcomes,
        }
    }

    /// Records that an accepted section failed to decode: its entries
    /// no longer count, and a warning says it runs cold.
    pub fn decode_failed(&mut self, s: Section) {
        *self.count_mut(s) = 0;
        self.warnings.push(s.decode_warning());
    }
}

/// Result of [`save`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SaveOutcome {
    /// The file already held exactly these bytes; nothing written.
    Unchanged,
    /// A new file was atomically moved into place.
    Written {
        /// Size of the file written.
        bytes: usize,
    },
}

/// Where an accepted section's payload lies in its image.
#[derive(Clone, Debug)]
struct Accepted {
    payload: Range<usize>,
    checksum: u64,
}

/// A corpus file image whose header and sections have been verified
/// against one set of fingerprints. Accepted sections are byte ranges
/// of the image, decoded only on request.
#[derive(Debug, Default)]
pub struct Image {
    bytes: Vec<u8>,
    sections: [Option<Accepted>; 3],
}

impl Image {
    /// Verifies a file image: header, then every section's
    /// fingerprint, checksum and leading entry count. Never panics;
    /// anomalies degrade per the module rules.
    pub fn parse(bytes: Vec<u8>, fp: &Fingerprints) -> (Image, LoadStats) {
        let (sections, stats) = verify(&bytes, fp);
        (Image { bytes, sections }, stats)
    }

    /// Reads and verifies a corpus file. An absent file is a quiet
    /// cold start; any other anomaly degrades per the module rules,
    /// with a warning in [`LoadStats::warnings`].
    pub fn load(path: &Path, fp: &Fingerprints) -> (Image, LoadStats) {
        match std::fs::read(path) {
            Ok(bytes) => Image::parse(bytes, fp),
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                (Image::default(), LoadStats { cold: true, ..LoadStats::default() })
            }
            Err(e) => (
                Image::default(),
                LoadStats {
                    cold: true,
                    warnings: vec![format!(
                        "corpus file {} unreadable ({e}); running cold",
                        path.display()
                    )],
                    ..LoadStats::default()
                },
            ),
        }
    }

    /// Encodes a corpus to a canonical image (see [`encode`]).
    pub fn encode(corpus: &Corpus, fp: &Fingerprints) -> Image {
        Image::default().rebuild(
            fp,
            [
                Some(encode_section(corpus.explorations.iter().map(|(k, v)| (k, v)))),
                Some(encode_section(corpus.code.iter().map(|(k, v)| (k, v)))),
                Some(encode_section(corpus.outcomes.iter().map(|(k, v)| (k, v)))),
            ],
        )
    }

    /// The whole file image.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// An accepted section's payload (`None` when the section was
    /// absent, stale or damaged).
    pub fn payload(&self, s: Section) -> Option<&[u8]> {
        self.sections[s as usize].as_ref().map(|a| &self.bytes[a.payload.clone()])
    }

    /// Drops an accepted section whose payload turned out not to
    /// decode, so that no rebuild reuses its bytes.
    pub fn reject(&mut self, s: Section) {
        self.sections[s as usize] = None;
    }

    fn decode<T: Wire>(&self, s: Section) -> Option<Result<Vec<T>, WireError>> {
        self.payload(s).map(from_bytes::<Vec<T>>)
    }

    /// Decodes the exploration section, if it was accepted.
    #[allow(clippy::type_complexity)]
    pub fn explorations(
        &self,
    ) -> Option<Result<Vec<(ExplorationKey, Arc<ExplorationResult>)>, WireError>> {
        self.decode(Section::Explorations)
    }

    /// Decodes the compiled-code section, if it was accepted.
    #[allow(clippy::type_complexity)]
    pub fn code(
        &self,
    ) -> Option<Result<Vec<(CompileKey, Result<CompiledCode, CompileError>)>, WireError>> {
        self.decode(Section::Code)
    }

    /// Decodes the outcome section, if it was accepted.
    pub fn outcomes(&self) -> Option<Result<Vec<(OutcomeKey, InstructionOutcome)>, WireError>> {
        self.decode(Section::Outcomes)
    }

    /// Decodes every accepted section; one that fails to decode is
    /// dropped and recorded in `stats`.
    pub fn decode_all(&self, stats: &mut LoadStats) -> Corpus {
        fn take<T>(
            decoded: Option<Result<Vec<T>, WireError>>,
            s: Section,
            stats: &mut LoadStats,
        ) -> Vec<T> {
            match decoded {
                Some(Ok(entries)) => entries,
                Some(Err(_)) => {
                    stats.decode_failed(s);
                    Vec::new()
                }
                None => Vec::new(),
            }
        }
        Corpus {
            explorations: take(self.explorations(), Section::Explorations, stats),
            code: take(self.code(), Section::Code, stats),
            outcomes: take(self.outcomes(), Section::Outcomes, stats),
        }
    }

    /// Assembles a new image in file order: each `Some` slot is a
    /// fresh payload (as [`encode_section`] makes it), each `None` slot
    /// reuses this image's verified payload bytes and checksum, so an
    /// unchanged section is neither re-encoded nor re-hashed.
    ///
    /// # Panics
    ///
    /// If a `None` slot names a section this image did not accept —
    /// a caller bug, never a property of the file.
    pub fn rebuild(&self, fp: &Fingerprints, fresh: [Option<Vec<u8>>; 3]) -> Image {
        let payloads: Vec<(&[u8], u64)> = Section::ALL
            .iter()
            .zip(&fresh)
            .map(|(&s, fresh)| match fresh {
                Some(payload) => (payload.as_slice(), checksum(payload)),
                None => {
                    let a = self.sections[s as usize]
                        .as_ref()
                        .expect("only an accepted section is reused");
                    (&self.bytes[a.payload.clone()], a.checksum)
                }
            })
            .collect();
        let total = FILE_HEADER
            + payloads.iter().map(|(p, _)| SECTION_HEADER + p.len()).sum::<usize>();
        let mut bytes = Vec::with_capacity(total);
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.push(Section::ALL.len() as u8);
        let mut sections: [Option<Accepted>; 3] = Default::default();
        for ((s, (payload, sum)), slot) in Section::ALL.iter().zip(payloads).zip(&mut sections) {
            bytes.push(s.tag());
            bytes.extend_from_slice(&s.fingerprint(fp).to_le_bytes());
            bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            bytes.extend_from_slice(&sum.to_le_bytes());
            let start = bytes.len();
            bytes.extend_from_slice(payload);
            *slot = Some(Accepted { payload: start..bytes.len(), checksum: sum });
        }
        Image { bytes, sections }
    }

    /// Whether [`Image::rebuild`] reusing every section would
    /// reproduce this image byte for byte: all three sections
    /// accepted, in file order, with nothing before, between or after
    /// them. Every image `rebuild` returns is canonical.
    pub fn is_canonical(&self) -> bool {
        let mut end = FILE_HEADER;
        self.bytes.get(6) == Some(&(Section::ALL.len() as u8))
            && self.sections.iter().all(|s| match s {
                Some(a) if a.payload.start == end + SECTION_HEADER => {
                    end = a.payload.end;
                    true
                }
                _ => false,
            })
            && end == self.bytes.len()
    }

    /// Writes the image atomically: compare against the existing file
    /// (skip the write when the bytes are the same), else write a temp
    /// file in the same directory and rename it into place.
    pub fn save(&self, path: &Path) -> io::Result<SaveOutcome> {
        if file_holds(path, &self.bytes) {
            return Ok(SaveOutcome::Unchanged);
        }
        let tmp = path.with_file_name(format!(
            "{}.tmp.{}",
            path.file_name().and_then(|n| n.to_str()).unwrap_or("corpus"),
            std::process::id()
        ));
        std::fs::write(&tmp, &self.bytes)?;
        match std::fs::rename(&tmp, path) {
            Ok(()) => Ok(SaveOutcome::Written { bytes: self.bytes.len() }),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }
}

/// Whether the file at `path` holds exactly `bytes`, compared through
/// a small buffer rather than a second copy of the whole file.
fn file_holds(path: &Path, bytes: &[u8]) -> bool {
    let Ok(mut file) = std::fs::File::open(path) else {
        return false;
    };
    if !matches!(file.metadata(), Ok(m) if m.len() == bytes.len() as u64) {
        return false;
    }
    let mut buf = vec![0u8; 64 * 1024];
    let mut rest = bytes;
    loop {
        match file.read(&mut buf) {
            Ok(0) => return rest.is_empty(),
            Ok(n) if n <= rest.len() && buf[..n] == rest[..n] => rest = &rest[n..],
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            _ => return false,
        }
    }
}

/// The parse every load goes through: header checks, then per section
/// the fingerprint, the checksum and a plausible leading entry count.
fn verify(bytes: &[u8], fp: &Fingerprints) -> ([Option<Accepted>; 3], LoadStats) {
    let mut sections: [Option<Accepted>; 3] = Default::default();
    let mut stats = LoadStats::default();
    let cold = |stats: &mut LoadStats, why: String| {
        stats.cold = true;
        stats.warnings.push(why);
    };
    if bytes.len() < FILE_HEADER {
        cold(&mut stats, "corpus file shorter than its header; ignoring it".to_string());
        return (sections, stats);
    }
    if bytes[0..4] != MAGIC {
        cold(&mut stats, "corpus file has wrong magic; ignoring it".to_string());
        return (sections, stats);
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != VERSION {
        cold(
            &mut stats,
            format!("corpus file is format v{version}, this build reads v{VERSION}; ignoring it"),
        );
        return (sections, stats);
    }
    let count = bytes[6] as usize;
    let mut d = Decoder::new(&bytes[FILE_HEADER..]);
    for _ in 0..count {
        if d.remaining() < SECTION_HEADER {
            cold(&mut stats, "corpus section table truncated; dropping the rest".to_string());
            break;
        }
        let header = (d.u8(), d.u64(), d.usize(), d.u64());
        let (Ok(tag), Ok(fingerprint), Ok(length), Ok(sum)) = header else {
            cold(&mut stats, "corpus section table truncated; dropping the rest".to_string());
            break;
        };
        if d.remaining() < length {
            cold(&mut stats, "corpus section payload truncated; dropping the rest".to_string());
            break;
        }
        let start = bytes.len() - d.remaining();
        let payload = d.raw(length).expect("length checked above");
        let Some(section) = Section::from_tag(tag) else {
            // Unknown section from a newer writer: skip, stay warm for
            // the sections we do understand.
            stats.warnings.push(format!("unknown corpus section tag {tag}; skipping it"));
            continue;
        };
        if fingerprint != section.fingerprint(fp) {
            // Ordinary staleness: the code that produced this section
            // has changed. Silent by design.
            stats.stale_sections += 1;
            continue;
        }
        if checksum(payload) != sum {
            stats.warnings.push(format!("corpus section {tag} failed its checksum; running it cold"));
            continue;
        }
        // The entry count is all a load reads of the payload itself.
        match Decoder::new(payload).seq_len() {
            Ok(n) => {
                *stats.count_mut(section) = n;
                sections[section as usize] =
                    Some(Accepted { payload: start..start + length, checksum: sum });
            }
            Err(_) => stats.warnings.push(section.decode_warning()),
        }
    }
    (sections, stats)
}

/// Encodes one section payload: the entry count, then the entries
/// sorted by encoded key, so equal content always produces identical
/// bytes whatever order the entries arrive in.
pub fn encode_section<'a, K: Wire + 'a, V: Wire + 'a>(
    entries: impl IntoIterator<Item = (&'a K, &'a V)>,
) -> Vec<u8> {
    let mut keyed: Vec<(Vec<u8>, &V)> =
        entries.into_iter().map(|(k, v)| (to_bytes(k), v)).collect();
    keyed.sort_by(|a, b| a.0.cmp(&b.0));
    let mut e = Encoder::new();
    e.usize(keyed.len());
    for (key, value) in &keyed {
        e.raw(key);
        value.enc(&mut e);
    }
    e.into_bytes()
}

/// Encodes a corpus to the full file image. Sections are sorted by
/// encoded key, so equal content always produces identical bytes —
/// that is what makes [`save`]'s skip-if-unchanged check, section
/// reuse and CI's byte-identity assertions meaningful.
pub fn encode(corpus: &Corpus, fp: &Fingerprints) -> Vec<u8> {
    Image::encode(corpus, fp).bytes
}

/// Verifies and decodes a whole file image against the expected
/// fingerprints (the eager form of [`Image::parse`]). Never panics;
/// anomalies degrade per the module rules.
pub fn decode(bytes: &[u8], fp: &Fingerprints) -> (Corpus, LoadStats) {
    let (image, mut stats) = Image::parse(bytes.to_vec(), fp);
    let corpus = image.decode_all(&mut stats);
    (corpus, stats)
}

/// Loads and decodes a whole corpus file (the eager form of
/// [`Image::load`]). An absent file is a quiet cold start.
pub fn load(path: &Path, fp: &Fingerprints) -> (Corpus, LoadStats) {
    let (image, mut stats) = Image::load(path, fp);
    let corpus = image.decode_all(&mut stats);
    (corpus, stats)
}

/// Saves a corpus atomically, and not at all when the file already
/// holds exactly its encoding (see [`Image::save`]).
pub fn save(path: &Path, corpus: &Corpus, fp: &Fingerprints) -> io::Result<SaveOutcome> {
    Image::encode(corpus, fp).save(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp() -> Fingerprints {
        crate::fingerprint::fingerprints(true, &[igjit_machine::Isa::X86ish])
    }

    #[test]
    fn empty_corpus_round_trips() {
        let bytes = encode(&Corpus::default(), &fp());
        let (corpus, stats) = decode(&bytes, &fp());
        assert!(corpus.explorations.is_empty() && corpus.code.is_empty());
        assert!(!stats.cold);
        assert_eq!(stats.stale_sections, 0);
        assert!(stats.warnings.is_empty());
    }

    #[test]
    fn stale_fingerprints_drop_sections_silently() {
        let bytes = encode(&Corpus::default(), &fp());
        let other = Fingerprints { exploration: 1, code: 2, outcomes: 3 };
        let (image, stats) = Image::parse(bytes, &other);
        assert_eq!(stats.stale_sections, 3);
        assert!(stats.warnings.is_empty());
        assert!(!stats.cold);
        assert!(Section::ALL.iter().all(|&s| image.payload(s).is_none()));
    }

    #[test]
    fn version_skew_is_cold_with_warning() {
        let mut bytes = encode(&Corpus::default(), &fp());
        bytes[4] = bytes[4].wrapping_add(1);
        let (_, stats) = decode(&bytes, &fp());
        assert!(stats.cold);
        assert!(stats.warnings.iter().any(|w| w.contains("format v")));
    }

    #[test]
    fn every_truncation_point_degrades_gracefully() {
        let bytes = encode(&Corpus::default(), &fp());
        for cut in 0..bytes.len() {
            let (_, stats) = decode(&bytes[..cut], &fp());
            // Must not panic; header cuts are cold, payload cuts warn.
            let _ = stats;
        }
    }

    #[test]
    fn implausible_entry_count_is_a_load_time_warning() {
        // A checksum-valid payload whose count exceeds its own bytes is
        // refused by the load's count read, before anything decodes.
        let mut e = Encoder::new();
        e.usize(1000);
        let bogus = e.into_bytes();
        let empty = encode_section::<u8, u8>([]);
        let bytes = Image::default()
            .rebuild(&fp(), [Some(empty.clone()), Some(empty), Some(bogus)])
            .bytes;
        let (image, stats) = Image::parse(bytes, &fp());
        assert!(image.payload(Section::Outcomes).is_none());
        assert_eq!(stats.outcomes, 0);
        assert_eq!(stats.warnings, vec![Section::Outcomes.decode_warning()]);
    }

    #[test]
    fn rebuild_reuses_accepted_payloads_verbatim() {
        let mut e = Encoder::new();
        e.usize(0);
        let empty = e.into_bytes();
        let original = Image::default().rebuild(
            &fp(),
            [Some(empty.clone()), Some(empty.clone()), Some(empty.clone())],
        );
        let (loaded, stats) = Image::parse(original.bytes().to_vec(), &fp());
        assert!(stats.warnings.is_empty());
        let reused = loaded.rebuild(&fp(), [None, None, None]);
        assert_eq!(reused.bytes(), original.bytes());
        let mixed = loaded.rebuild(&fp(), [None, Some(empty), None]);
        assert_eq!(mixed.bytes(), original.bytes());

        // Canonical: reusing every section reproduces the image.
        assert!(original.is_canonical() && loaded.is_canonical());
        let stale = Fingerprints { exploration: 1, ..fp() };
        assert!(!Image::parse(original.bytes().to_vec(), &stale).0.is_canonical());
        let mut trailing = original.bytes().to_vec();
        trailing.push(0);
        let (padded, stats) = Image::parse(trailing, &fp());
        assert!(stats.warnings.is_empty());
        assert!(!padded.is_canonical());
        assert_eq!(padded.rebuild(&fp(), [None, None, None]).bytes(), original.bytes());
    }
}
