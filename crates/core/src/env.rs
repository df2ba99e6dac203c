//! Strict parsing of the harness's `IGJIT_*` environment knobs.
//!
//! The harness binaries used to read their knobs leniently: an
//! unparseable `IGJIT_THREADS` silently fell back to the default, and
//! a typo like `IGJIT_CODECACHE=0` was ignored outright — so a cache
//! ablation could quietly measure the cached configuration. This
//! module is the single shared parser: it scans the whole environment
//! for `IGJIT_`-prefixed names, rejects unknown ones, and rejects
//! malformed values instead of guessing.

use std::ffi::OsString;

use igjit_mutate::MutantId;

/// Every environment knob the harness understands.
pub const KNOWN_VARS: &[&str] = &["IGJIT_THREADS", "IGJIT_MUTANT", "IGJIT_CORPUS"];

/// Parsed knob values. `None` means the variable was not set.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EnvKnobs {
    /// `IGJIT_THREADS`: worker threads for the per-instruction sweep.
    pub threads: Option<usize>,
    /// `IGJIT_MUTANT`: a mutation operator to arm for the whole
    /// process (id or kebab-case name from the `igjit-mutate` catalog).
    pub mutant: Option<MutantId>,
    /// `IGJIT_CORPUS`: path of the persistent campaign corpus file
    /// (loaded before the sweep, written back after).
    pub corpus: Option<std::path::PathBuf>,
}

impl EnvKnobs {
    /// Worker threads: the knob, or the machine's parallelism.
    pub fn threads_or_default(&self) -> usize {
        self.threads.unwrap_or_else(crate::default_threads)
    }
}

fn parse_threads(value: &str) -> Result<usize, String> {
    match value.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!(
            "IGJIT_THREADS={value:?} is not a positive integer"
        )),
    }
}

/// Parses knobs from an explicit `(name, value)` iterator, as
/// [`std::env::vars_os`] yields. Split out from [`parse_env`] so tests
/// can exercise the parser without mutating the process environment.
pub fn parse_vars(
    vars: impl IntoIterator<Item = (OsString, OsString)>,
) -> Result<EnvKnobs, String> {
    let mut knobs = EnvKnobs::default();
    for (name_os, value_os) in vars {
        let name = name_os.to_string_lossy();
        if !name.starts_with("IGJIT_") {
            continue;
        }
        let value = value_os.to_str().ok_or_else(|| {
            format!("{name} has a value that is not valid UTF-8")
        })?;
        match name.as_ref() {
            "IGJIT_THREADS" => knobs.threads = Some(parse_threads(value)?),
            "IGJIT_MUTANT" => {
                knobs.mutant =
                    Some(igjit_mutate::parse(value).map_err(|e| format!("IGJIT_MUTANT: {e}"))?)
            }
            "IGJIT_CORPUS" => {
                if value.is_empty() {
                    return Err("IGJIT_CORPUS is set but empty (expected a file path)".into());
                }
                knobs.corpus = Some(std::path::PathBuf::from(value));
            }
            _ => {
                return Err(format!(
                    "unknown environment variable {name} (known IGJIT_* knobs: {})",
                    KNOWN_VARS.join(", ")
                ))
            }
        }
    }
    Ok(knobs)
}

/// Parses the process environment. Harness binaries call this once at
/// startup and abort on `Err` — a misspelled knob must not silently
/// run the default configuration.
pub fn parse_env() -> Result<EnvKnobs, String> {
    parse_vars(std::env::vars_os())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(pairs: &[(&str, &str)]) -> Vec<(OsString, OsString)> {
        pairs.iter().map(|&(n, v)| (OsString::from(n), OsString::from(v))).collect()
    }

    #[test]
    fn empty_environment_yields_defaults() {
        let k = parse_vars(vars(&[("PATH", "/usr/bin"), ("HOME", "/root")])).unwrap();
        assert_eq!(k, EnvKnobs::default());
        assert!(k.threads_or_default() >= 1);
        assert!(k.mutant.is_none());
        assert!(k.corpus.is_none());
    }

    #[test]
    fn all_knobs_parse() {
        let k = parse_vars(vars(&[
            ("IGJIT_THREADS", "3"),
            ("IGJIT_MUTANT", "flip-compare-cond"),
            ("IGJIT_CORPUS", "bench/campaign.corpus"),
        ]))
        .unwrap();
        assert_eq!(k.threads, Some(3));
        assert_eq!(k.mutant, Some(igjit_mutate::ops::FLIP_COMPARE_COND));
        assert_eq!(k.corpus.as_deref(), Some(std::path::Path::new("bench/campaign.corpus")));
    }

    #[test]
    fn unknown_igjit_vars_are_rejected() {
        let err = parse_vars(vars(&[("IGJIT_CODECACHE", "0")])).unwrap_err();
        assert!(err.contains("IGJIT_CODECACHE"), "{err}");
        assert!(err.contains("IGJIT_THREADS"), "error lists the known knobs: {err}");
    }

    #[test]
    fn retired_engine_knobs_are_unknown() {
        // Each of these once switched an engine path, a row or a way
        // to run the sweep that no longer exists. Setting one must fail
        // (the binaries exit 2), not look like it still switches
        // anything — with any value.
        const RETIRED: &[&str] = &[
            "IGJIT_CODE_CACHE",
            "IGJIT_HEAP_SNAPSHOT",
            "IGJIT_PREDECODE",
            "IGJIT_INTERP_PREDECODE",
            "IGJIT_HASH_CONS",
            "IGJIT_FAMILY_SHARE",
            "IGJIT_SOLVER_TRAIL",
            "IGJIT_TIER5",
            "IGJIT_NEGATE_THREADS",
            "IGJIT_CAMPAIGN_JOBS",
        ];
        for name in RETIRED {
            assert!(!KNOWN_VARS.contains(name), "{name} is still listed");
            for value in ["0", "1"] {
                let err = parse_vars(vars(&[(name, value)])).unwrap_err();
                assert!(err.contains(&format!("unknown environment variable {name}")), "{err}");
            }
        }
    }

    #[test]
    fn malformed_values_are_rejected() {
        // The error names the offending variable, so the fix is obvious
        // from the message alone.
        for (name, bad) in [
            ("IGJIT_THREADS", "0"),
            ("IGJIT_THREADS", "many"),
            ("IGJIT_THREADS", ""),
            ("IGJIT_MUTANT", "no-such-operator"),
            ("IGJIT_MUTANT", "0"),
            ("IGJIT_CORPUS", ""),
        ] {
            let err = parse_vars(vars(&[(name, bad)]))
                .expect_err(&format!("{name}={bad:?} must be rejected"));
            assert!(err.contains(name), "error must name the knob: {err}");
        }
    }

    #[test]
    fn mutants_parse_by_id_too() {
        let k = parse_vars(vars(&[("IGJIT_MUTANT", "106")])).unwrap();
        assert_eq!(k.mutant, Some(igjit_mutate::ops::FLIP_COMPARE_COND));
    }
}
