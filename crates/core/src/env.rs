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
pub const KNOWN_VARS: &[&str] = &[
    "IGJIT_THREADS",
    "IGJIT_TIER5",
    "IGJIT_NEGATE_THREADS",
    "IGJIT_MUTANT",
    "IGJIT_CORPUS",
    "IGJIT_CAMPAIGN_JOBS",
];

/// Parsed knob values. `None` means the variable was not set; the
/// `*_enabled`/`*_or_default` accessors apply the documented defaults.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EnvKnobs {
    /// `IGJIT_THREADS`: worker threads for the per-instruction sweep.
    pub threads: Option<usize>,
    /// `IGJIT_TIER5`: whether the meta-compiled tier (#5) runs as a
    /// fifth Table 2 row. Tiers 1–4 rows are byte-identical either way.
    pub tier5: Option<bool>,
    /// `IGJIT_NEGATE_THREADS`: threads negating sibling subtrees of
    /// one instruction's path tree in parallel (1 = sequential).
    pub negate_threads: Option<usize>,
    /// `IGJIT_MUTANT`: a mutation operator to arm for the whole
    /// process (id or kebab-case name from the `igjit-mutate` catalog).
    pub mutant: Option<MutantId>,
    /// `IGJIT_CORPUS`: path of the persistent campaign corpus file
    /// (loaded before the sweep, written back after).
    pub corpus: Option<std::path::PathBuf>,
    /// `IGJIT_CAMPAIGN_JOBS`: worker *processes* sharding the main
    /// campaign (1 = in-process).
    pub campaign_jobs: Option<usize>,
}

impl EnvKnobs {
    /// Worker threads: the knob, or the machine's parallelism.
    pub fn threads_or_default(&self) -> usize {
        self.threads.unwrap_or_else(crate::default_threads)
    }

    /// Meta-compiled tier: the knob, default on.
    pub fn tier5_enabled(&self) -> bool {
        self.tier5.unwrap_or(true)
    }

    /// Parallel path negation: the knob, default 1 (sequential).
    pub fn negate_threads_or_default(&self) -> usize {
        self.negate_threads.unwrap_or(1)
    }

    /// Campaign worker processes: the knob, default 1 (in-process).
    pub fn campaign_jobs_or_default(&self) -> usize {
        self.campaign_jobs.unwrap_or(1)
    }
}

fn parse_bool(name: &str, value: &str) -> Result<bool, String> {
    match value.to_ascii_lowercase().as_str() {
        "1" | "on" | "true" | "yes" => Ok(true),
        "0" | "off" | "false" | "no" => Ok(false),
        _ => Err(format!(
            "{name}={value:?} is not a boolean (use 0/1, on/off, true/false or yes/no)"
        )),
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
            "IGJIT_TIER5" => knobs.tier5 = Some(parse_bool("IGJIT_TIER5", value)?),
            "IGJIT_NEGATE_THREADS" => {
                knobs.negate_threads = Some(match value.parse::<usize>() {
                    Ok(n) if n >= 1 => n,
                    _ => {
                        return Err(format!(
                            "IGJIT_NEGATE_THREADS={value:?} is not a positive integer"
                        ))
                    }
                })
            }
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
            "IGJIT_CAMPAIGN_JOBS" => {
                knobs.campaign_jobs = Some(match value.parse::<usize>() {
                    Ok(n) if n >= 1 => n,
                    _ => {
                        return Err(format!(
                            "IGJIT_CAMPAIGN_JOBS={value:?} is not a positive integer"
                        ))
                    }
                })
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
        assert!(k.tier5_enabled(), "the meta tier is on by default");
        assert_eq!(k.negate_threads_or_default(), 1);
        assert_eq!(k.campaign_jobs_or_default(), 1);
        assert!(k.threads_or_default() >= 1);
        assert!(k.mutant.is_none());
        assert!(k.corpus.is_none());
    }

    #[test]
    fn all_knobs_parse() {
        let k = parse_vars(vars(&[
            ("IGJIT_THREADS", "3"),
            ("IGJIT_TIER5", "off"),
            ("IGJIT_NEGATE_THREADS", "4"),
            ("IGJIT_MUTANT", "flip-compare-cond"),
            ("IGJIT_CORPUS", "bench/campaign.corpus"),
            ("IGJIT_CAMPAIGN_JOBS", "2"),
        ]))
        .unwrap();
        assert_eq!(k.threads, Some(3));
        assert_eq!(k.tier5, Some(false));
        assert!(!k.tier5_enabled());
        assert_eq!(k.negate_threads_or_default(), 4);
        assert_eq!(k.mutant, Some(igjit_mutate::ops::FLIP_COMPARE_COND));
        assert_eq!(k.corpus.as_deref(), Some(std::path::Path::new("bench/campaign.corpus")));
        assert_eq!(k.campaign_jobs_or_default(), 2);
    }

    #[test]
    fn unknown_igjit_vars_are_rejected() {
        let err = parse_vars(vars(&[("IGJIT_CODECACHE", "0")])).unwrap_err();
        assert!(err.contains("IGJIT_CODECACHE"), "{err}");
        assert!(err.contains("IGJIT_TIER5"), "error lists the known knobs: {err}");
    }

    #[test]
    fn retired_engine_knobs_are_unknown() {
        // Each of these once switched an engine path that no longer
        // exists. Setting one must fail (the binaries exit 2), not look
        // like it still switches anything — with any value.
        const RETIRED: &[&str] = &[
            "IGJIT_CODE_CACHE",
            "IGJIT_HEAP_SNAPSHOT",
            "IGJIT_PREDECODE",
            "IGJIT_INTERP_PREDECODE",
            "IGJIT_HASH_CONS",
            "IGJIT_FAMILY_SHARE",
            "IGJIT_SOLVER_TRAIL",
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
        assert!(parse_vars(vars(&[("IGJIT_THREADS", "0")])).is_err());
        assert!(parse_vars(vars(&[("IGJIT_THREADS", "many")])).is_err());
        assert!(parse_vars(vars(&[("IGJIT_THREADS", "")])).is_err());
        assert!(parse_vars(vars(&[("IGJIT_NEGATE_THREADS", "0")])).is_err());
        assert!(parse_vars(vars(&[("IGJIT_NEGATE_THREADS", "lots")])).is_err());
        assert!(parse_vars(vars(&[("IGJIT_MUTANT", "no-such-operator")])).is_err());
        assert!(parse_vars(vars(&[("IGJIT_MUTANT", "0")])).is_err());
        assert!(parse_vars(vars(&[("IGJIT_CORPUS", "")])).is_err());
        assert!(parse_vars(vars(&[("IGJIT_CAMPAIGN_JOBS", "0")])).is_err());
        assert!(parse_vars(vars(&[("IGJIT_CAMPAIGN_JOBS", "two")])).is_err());
    }

    #[test]
    fn the_boolean_knob_rejects_garbage_and_names_itself() {
        // The strict-parse contract: near-miss spellings ("yess"),
        // stray numerals and empty values are fatal, and the error
        // names the offending variable so the fix is obvious from the
        // message alone.
        for bad in ["yess", "2", "enabled", ""] {
            let err = parse_vars(vars(&[("IGJIT_TIER5", bad)]))
                .expect_err(&format!("IGJIT_TIER5={bad:?} must be rejected"));
            assert!(err.contains("IGJIT_TIER5"), "error must name the knob: {err}");
        }
    }

    #[test]
    fn booleans_accept_both_spellings_case_insensitively() {
        for on in ["1", "on", "TRUE", "Yes"] {
            let k = parse_vars(vars(&[("IGJIT_TIER5", on)])).unwrap();
            assert_eq!(k.tier5, Some(true), "{on}");
        }
        for off in ["0", "OFF", "false", "no"] {
            let k = parse_vars(vars(&[("IGJIT_TIER5", off)])).unwrap();
            assert_eq!(k.tier5, Some(false), "{off}");
        }
    }

    #[test]
    fn mutants_parse_by_id_too() {
        let k = parse_vars(vars(&[("IGJIT_MUTANT", "106")])).unwrap();
        assert_eq!(k.mutant, Some(igjit_mutate::ops::FLIP_COMPARE_COND));
    }
}
